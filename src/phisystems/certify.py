"""Primality certification by a system of Fermat congruences.

A value m >= 2 is prime exactly when m^(p-1) == 1 (mod p) for every prime
p <= isqrt(m): by Fermat's little theorem each congruence holds iff p does
not divide m, so the full system is trial division in congruence form.
The checks are evaluated by square-and-multiply modular exponentiation,
never by a divisibility test.

``certify`` and ``certify_verdict`` run the system for one m, and a
certificate carries the checks it performed. ``certify_block`` gives the
verdicts of a whole block of m at once: m^(p-1) mod p depends only on the
residue class of m mod p, so it evaluates the congruence once per class,
p pows for the prime p, and gathers those p outcomes over every m of the
block whose system contains p. A block is a read-only numpy bool array,
the format of the sieve's primality too; a block from 0 is a primality
mask indexed by value, the verdict table of the congruence route.
"""

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import oracle
from .arith import SpfTable

__all__ = [
    "Certificate",
    "CongruenceCheck",
    "Verdict",
    "certify",
    "certify_block",
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


def fermat_congruence_holds(m: int, p: int) -> bool:
    """Whether m^(p-1) == 1 (mod p), i.e. whether the prime p misses m.

    Evaluated with built-in pow, which is exact binary exponentiation at
    any operand width. A single passing congruence proves nothing about
    m itself; only the full system up to isqrt(m) does.
    """
    if m < 1:
        raise ValueError(f"m must be a natural number >= 1, got {m}")
    if p < 2 or not oracle.oracle_is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return pow(m, p - 1, p) == 1


def _check_reach(m: int, table: SpfTable) -> None:
    root = math.isqrt(m)
    if root > table.limit:
        raise ValueError(
            f"certifying {m} needs primes up to {root}, "
            f"beyond the table limit {table.limit}"
        )


def _scan_bound(m: int, table: SpfTable) -> int:
    if m < 2:
        raise ValueError(f"certification is defined for m >= 2, got {m}")
    _check_reach(m, table)
    return bisect_right(table.prime_list, math.isqrt(m))


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


def _block_bytes(lo: int, hi: int) -> int:
    """What certify_block(lo, hi) holds at its peak: the block, one byte per
    m; the tiling temporary, at most two periods longer than the block; and
    the moduli, at most isqrt(hi) / 2 + 1 int64 values."""
    return 0 if lo > hi else 2 * (hi - lo + 1) + 8 * math.isqrt(hi)


def certify_block(lo: int, hi: int, table: SpfTable) -> np.ndarray:
    """A read-only bool array over m in [lo, hi]: True where m certifies
    as prime.

    Entry m - lo equals ``certify_verdict(m, table)[0]`` for m >= 2, and
    0 and 1 are not prime, so a block from 0 is a mask indexed by value.
    For each prime p <= isqrt(hi), read from the sieve's mask, the
    congruence a^(p-1) == 1 (mod p) is evaluated once for every residue
    class a in [0, p), by ``pow``; the p outcomes are then tiled over m in
    [max(lo, p^2), hi], starting at the class of the first such m, and
    folded into the block. An empty block (lo > hi) has length 0.
    """
    if lo < 0:
        raise ValueError(f"a block starts at lo >= 0, got {lo}")
    if lo > hi:
        empty = np.zeros(0, dtype=np.bool_)
        empty.flags.writeable = False
        return empty
    _check_reach(hi, table)
    block = np.ones(hi - lo + 1, dtype=np.bool_)
    block[: max(0, 2 - lo)] = False  # 0 and 1
    for p in map(int, np.flatnonzero(table.is_prime_mask[: math.isqrt(hi) + 1])):
        holds = np.array([pow(a, p - 1, p) == 1 for a in range(p)], dtype=np.bool_)
        start = max(lo, p * p)  # p is in the system of m exactly when p^2 <= m
        width = hi - start + 1
        offset = start % p
        reps = -(-(offset + width) // p)
        block[start - lo :] &= np.tile(holds, reps)[offset : offset + width]
    block.flags.writeable = False
    return block


class VerdictTable:
    """Retired for ``certify_block(0, limit, table)``; the name stays, empty
    and unexported, for benchmark/trace_layers.py, which looks it up."""
