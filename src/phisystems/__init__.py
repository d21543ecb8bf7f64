"""phisystems: executable forms of classical prime statements.

Primality as a system of Fermat congruences, the prime-between-n-and-2n-2
statement and the two- and three-prime split conjectures as solvable
systems of totient equations, each verified at desk scale against
independent brute-force oracles.

The package exports exactly the names in each module's ``__all__``.
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts a helper thread per extra CPU as it loads, and the
# thread spins in every process although no code here calls BLAS. So numpy's
# first load gets one BLAS thread, unless the caller has chosen a count.
_BLAS_THREADS = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in _sys.modules and not _os.environ.keys() & _BLAS_THREADS:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
