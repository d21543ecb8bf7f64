"""phisystems: executable forms of classical prime statements.

Primality as a system of Fermat congruences, the prime-between-n-and-2n-2
statement and the two- and three-prime split conjectures as solvable
systems of totient equations, each verified at desk scale against
independent brute-force oracles.

The package exports exactly the names in each module's ``__all__``.
"""

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
