"""phisystems: executable forms of classical prime statements.

Primality as a system of Fermat congruences, the prime-between-n-and-2n-2
statement and the two- and three-prime split conjectures as solvable
systems of totient equations, each verified at desk scale against
independent brute-force oracles.

The package exports exactly the names in each module's ``__all__``.
``bertrand`` and ``oracle``, which no sweep of the CLI needs unless it
checks against the oracle, load on first use of their names.
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

# arith and certify load eagerly: the name certify is the function, which a
# later import of the module would rebind to the module
from . import arith, certify as _certify, goldbach, sweep
from .arith import *
from .certify import *
from .goldbach import *
from .sweep import *

__version__ = "0.1.0"

# the names of the modules loaded on first use, spelled out so that they
# are known without loading them
_LAZY = {
    "bertrand": (
        "BertrandWitness",
        "bertrand_count",
        "bertrand_solutions",
        "count_identity_check",
        "first_bertrand_witness",
    ),
    "oracle": (
        "ORACLE_LIMIT",
        "PairDecomposition",
        "oracle_is_prime",
        "oracle_pairs",
        "oracle_triples",
        "trial_primes_upto",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "BertrandWitness",
    "BinaryWitness",
    "CSV_HEADER",
    "Certificate",
    "DEFAULT_MEMORY_BUDGET",
    "MemoryBudgetError",
    "ORACLE_LIMIT",
    "PairDecomposition",
    "PrimePi",
    "RangeReport",
    "SpfTable",
    "SweepOptions",
    "TASKS",
    "TernaryWitness",
    "Verdict",
    "bertrand_count",
    "bertrand_solutions",
    "binary_count",
    "binary_solutions",
    "build_spf",
    "certify",
    "certify_block",
    "certify_verdict",
    "count_identity_check",
    "count_table",
    "decomposition_to_xy",
    "emit_report",
    "fermat_congruence_holds",
    "fermat_system_solutions",
    "first_bertrand_witness",
    "first_binary_witness",
    "first_pair_y_block",
    "first_peculiar_witness",
    "first_ternary_witness",
    "oracle_is_prime",
    "oracle_pairs",
    "oracle_triples",
    "peculiar_count",
    "peculiar_solutions",
    "proposition_check",
    "raw_form_solutions",
    "run_sweep",
    "substitution_bijection_check",
    "ternary_count",
    "ternary_solutions",
    "trial_primes_upto",
    "two_prime_sum_exists",
]


def __getattr__(name: str):
    """Load bertrand or oracle on first use of it or of a name it exports;
    importing a submodule binds it as an attribute here too."""
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _LAZY_HOME:
        value = getattr(import_module(f".{_LAZY_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
