"""Primality certification by a system of Fermat congruences.

A value m >= 2 is prime exactly when m^(p-1) == 1 (mod p) for every prime
p <= isqrt(m): by Fermat's little theorem each congruence holds iff p does
not divide m, so the full system is trial division in congruence form.
The checks are evaluated by square-and-multiply modular exponentiation,
never by a divisibility test, and the verdict is returned together with
the checks that were performed.
"""

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import SpfTable

__all__ = [
    "Certificate",
    "CongruenceCheck",
    "Verdict",
    "VerdictTable",
    "certify",
    "certify_verdict",
    "fermat_congruence_holds",
]


class Verdict(enum.Enum):
    PRIME = "Prime"
    COMPOSITE = "Composite"


@dataclass(frozen=True, slots=True)
class CongruenceCheck:
    """One evaluated congruence base^exponent mod modulus, exponent = modulus - 1."""

    modulus: int
    base: int
    exponent: int
    residue: int


@dataclass(frozen=True, slots=True)
class Certificate:
    """Outcome of certifying ``subject`` against its congruence system.

    ``checks`` holds the evaluated congruences in increasing modulus order.
    By default the scan stops at the first failing modulus, so a composite
    certificate carries the prefix of the system up to and including the
    failure; pass ``full_checks=True`` to :func:`certify` to retain the
    whole system.
    """

    subject: int
    checks: tuple[CongruenceCheck, ...]
    verdict: Verdict
    failing_modulus: int | None


def _is_prime_trial(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def fermat_congruence_holds(m: int, p: int) -> bool:
    """Whether m^(p-1) == 1 (mod p), i.e. whether the prime p misses m.

    Evaluated with built-in pow, which is exact binary exponentiation at
    any operand width. A single passing congruence proves nothing about
    m itself; only the full system up to isqrt(m) does.
    """
    if m < 1:
        raise ValueError(f"m must be a natural number >= 1, got {m}")
    if not _is_prime_trial(p):
        raise ValueError(f"p must be prime, got {p}")
    return pow(m, p - 1, p) == 1


def _scan_bound(m: int, table: SpfTable) -> int:
    if m < 2:
        raise ValueError(f"certification is defined for m >= 2, got {m}")
    root = math.isqrt(m)
    if root > table.limit:
        raise ValueError(
            f"certifying {m} needs primes up to {root}, "
            f"beyond the table limit {table.limit}"
        )
    return bisect_right(table.prime_list, root)


def certify_verdict(m: int, table: SpfTable) -> tuple[bool, int | None]:
    """Allocation-free verdict: (is_prime, first failing modulus or None)."""
    plist = table.prime_list
    for i in range(_scan_bound(m, table)):
        p = plist[i]
        if pow(m, p - 1, p) != 1:
            return False, p
    return True, None


def certify(m: int, table: SpfTable, *, full_checks: bool = False) -> Certificate:
    """Run the congruence system for every prime p <= isqrt(m).

    For m in {2, 3} the system is empty and the verdict is Prime. The
    verdict is Prime iff every residue equals 1; otherwise the smallest
    failing modulus is recorded (and necessarily divides m).
    """
    bound = _scan_bound(m, table)
    plist = table.prime_list
    checks: list[CongruenceCheck] = []
    failing: int | None = None
    for i in range(bound):
        p = plist[i]
        residue = pow(m, p - 1, p)
        checks.append(CongruenceCheck(modulus=p, base=m, exponent=p - 1, residue=residue))
        if residue != 1 and failing is None:
            failing = p
            if not full_checks:
                break
    verdict = Verdict.PRIME if failing is None else Verdict.COMPOSITE
    return Certificate(subject=m, checks=tuple(checks), verdict=verdict, failing_modulus=failing)


class VerdictTable:
    """Certification verdicts for every value up to a limit.

    Each entry is computed by its own congruence-system run; the table
    exists so range sweeps over the Fermat route can intersect slices
    instead of re-certifying the same value once per n. The verdicts are
    kept once, as ``verdict_bytes`` (1 where the value certifies as
    prime); ``verdicts`` is a read-only numpy view of those bytes.
    """

    def __init__(self, table: SpfTable):
        self.table = table
        self._bytes = bytes(2)
        self._view = np.frombuffer(self._bytes, np.bool_)

    @property
    def limit(self) -> int:
        return len(self._bytes) - 1

    @property
    def verdict_bytes(self) -> bytes:
        return self._bytes

    @property
    def verdicts(self) -> np.ndarray:
        return self._view

    def ensure(self, limit: int) -> np.ndarray:
        if limit > self.limit:
            table = self.table
            self._bytes += bytes(
                certify_verdict(m, table)[0]
                for m in range(max(2, len(self._bytes)), limit + 1)
            )
            self._view = np.frombuffer(self._bytes, np.bool_)
        return self._view
