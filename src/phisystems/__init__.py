"""phisystems: executable forms of classical prime statements.

Primality as a system of Fermat congruences, the prime-between-n-and-2n-2
statement and the two- and three-prime split conjectures as solvable
systems of totient equations, each verified at desk scale against
independent brute-force oracles.

The package loads all six modules and exports exactly the names in each
module's ``__all__``.
"""

import gc as _gc
import os as _os
import sys as _sys

# numpy's OpenBLAS starts a helper thread per extra CPU as it loads, and the
# thread spins in every process although no code here calls BLAS. So numpy's
# first load gets one BLAS thread, unless the caller has chosen a count.
_BLAS_THREADS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
# numpy's load makes some 20,000 objects that stay alive, which the cyclic
# collector would walk about thirty times as they are made (4-5 ms), and
# once more in a young generation holding them all if it were only paused
# (4-8 ms). So it is paused, and what numpy made is moved to the oldest
# generation as surviving those walks would move it, by a freeze and an
# unfreeze, unless the caller holds frozen objects, which unfreeze would
# release. Then the caller's setting is restored.
if "numpy" not in _sys.modules:
    _collecting = _gc.isenabled()
    _gc.disable()
    _one_thread = not _os.environ.keys() & _BLAS_THREADS
    if _one_thread:
        _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy

        if not _gc.get_freeze_count():
            _gc.freeze()
            _gc.unfreeze()
    finally:
        if _one_thread:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        if _collecting:
            _gc.enable()

# the module certify is bound as _certify: the name certify is the function
from . import arith, bertrand, certify as _certify, goldbach, oracle, sweep
from .arith import *
from .bertrand import *
from .certify import *
from .goldbach import *
from .oracle import *
from .sweep import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (arith, bertrand, _certify, goldbach, oracle, sweep)
    for name in module.__all__
)
