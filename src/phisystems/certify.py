"""Primality certification by a system of Fermat congruences.

A value m >= 2 is prime exactly when m^(p-1) == 1 (mod p) for every prime
p <= isqrt(m): by Fermat's little theorem each congruence holds iff p does
not divide m, so the full system is trial division in congruence form.
The checks are evaluated by square-and-multiply modular exponentiation,
never by a divisibility test.

``certify`` and ``certify_verdict`` run the system for one m, by the
built-in ``pow``. A certificate carries the checks it performed as two
int64 columns, the moduli p and the residues m^(p-1) mod p; the sweep's
report writer renders it.
``certify_block`` gives the verdicts of a whole block of m at once:
m^(p-1) mod p depends only on the residue class of m mod p, so for each
prime p it evaluates the congruence once for each class the block's m
that carry p occupy, at most p of them, by square-and-multiply over
int64 numpy arrays, all primes at once, and clears the m of each failing
class with one strided write. A block is a read-only numpy bool array,
the format of the sieve's primality too; a block from 0 is a primality
mask indexed by value, the verdict table of the congruence route.
"""

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import SpfTable
from .oracle import oracle_is_prime

__all__ = [
    "Certificate",
    "Verdict",
    "certify",
    "certify_block",
    "certify_verdict",
    "fermat_congruence_holds",
]


class Verdict(enum.Enum):
    PRIME = "Prime"
    COMPOSITE = "Composite"


@dataclass(frozen=True, slots=True, eq=False)
class Certificate:
    """Outcome of certifying ``subject`` against its congruence system.

    The evaluated congruences subject^(p-1) mod p are two read-only int64
    columns in increasing modulus order: ``moduli`` holds each p and
    ``residues`` its residue. By default the scan stops at the first
    failing modulus, so a composite certificate carries the prefix of the
    system up to and including the failure; pass ``full_checks=True`` to
    :func:`certify` to retain the whole system.
    """

    subject: int
    moduli: np.ndarray
    residues: np.ndarray
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
    if p < 2 or not oracle_is_prime(p):
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
    primes = table.prime_list[: _scan_bound(m, table)]
    residues, failing = [], None
    for p in primes:
        residues.append(pow(m, p - 1, p))
        if residues[-1] != 1 and failing is None:
            failing = p
            if not full_checks:
                break
    moduli = np.array(primes[: len(residues)], np.int64)
    residues = np.array(residues, np.int64)
    moduli.flags.writeable = residues.flags.writeable = False
    verdict = Verdict.PRIME if failing is None else Verdict.COMPOSITE
    return Certificate(m, moduli, residues, verdict, failing)


# Residues per pass of the vectorised square-and-multiply: the bound on its
# scratch, whatever the block's width.
_GROUP = 1 << 16
# What one residue of a pass holds at its peak: p, the residue, and in
# _fermat_residues the exponent, the running square, the product, the
# accumulator (six int64 values) and the bit that selects the product.
_RESIDUE_BYTES = 6 * 8 + 1


def _fermat_residues(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-1) mod p per element, by square-and-multiply over int64 arrays.

    Needs 0 <= a < p and p <= 3,037,000,499 = isqrt(2^63 - 1): both
    operands of every product are below p, so each product is below 2^63,
    exact in int64, and ``%`` only reduces it. The arrays are not changed.
    """
    e = p - 1
    square = a.copy()
    acc = np.ones_like(a)
    prod = np.empty_like(a)
    odd = np.empty(a.shape, dtype=np.bool_)
    for _ in range(int(e.max(initial=0)).bit_length()):
        np.bitwise_and(e, 1, out=prod)
        np.not_equal(prod, 0, out=odd)
        np.multiply(acc, square, out=prod)
        np.remainder(prod, p, out=prod)
        np.copyto(acc, prod, where=odd)
        np.multiply(square, square, out=square)
        np.remainder(square, p, out=square)
        np.right_shift(e, 1, out=e)
    return acc


def _block_bytes(lo: int, hi: int) -> int:
    """What certify_block(lo, hi) holds at its peak: the block, one byte per
    m; three int64 columns over the primes p <= r = isqrt(hi), at most
    r // 2 + 1 of them; and the residues of one pass, at most _GROUP, and
    at most min(r, hi - lo + 1) for each prime, _RESIDUE_BYTES each."""
    if lo > hi:
        return 0
    width, r = hi - lo + 1, math.isqrt(hi)
    residues = min(_GROUP, (r // 2 + 1) * min(r, width))
    return width + 24 * (r // 2 + 1) + _RESIDUE_BYTES * residues


def certify_block(lo: int, hi: int, table: SpfTable) -> np.ndarray:
    """A read-only bool array over m in [lo, hi]: True where m certifies
    as prime.

    Entry m - lo equals ``certify_verdict(m, table)[0]`` for m >= 2, and
    0 and 1 are not prime, so a block from 0 is a mask indexed by value.
    For each prime p <= isqrt(hi), read from the sieve's mask, the m that
    carry p in their system run from first = max(lo, p^2) to hi, and the
    first min(p, hi - first + 1) of them meet each residue class the block
    occupies once. The congruence a^(p-1) == 1 (mod p) is evaluated for
    those residues only, for all primes at once by _fermat_residues, in
    passes of at most _GROUP residues. A failing m clears itself and every
    p-th m after it. An empty block (lo > hi) has length 0.
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
    # The residues of all primes lie end to end: prime i's are those of
    # first_i + k for k < count_i, at positions ends_i - count_i + k, so
    # position j holds the residue of m = shift_i + j.
    primes = np.flatnonzero(table.is_prime_mask[: math.isqrt(hi) + 1])
    shifts = np.multiply(primes, primes)  # p <= isqrt(hi) < 2^32: no overflow
    np.maximum(shifts, lo, out=shifts)  # first = max(lo, p^2)
    ends = np.minimum(primes, hi + 1 - shifts)  # count = min(p, hi - first + 1)
    shifts += ends
    np.cumsum(ends, out=ends)
    shifts -= ends
    total = int(ends[-1]) if ends.size else 0
    for g0 in range(0, total, _GROUP):
        g1 = min(g0 + _GROUP, total)
        i0 = int(np.searchsorted(ends, g0, side="right"))
        i1 = int(np.searchsorted(ends, g1, side="left")) + 1
        take = np.diff(np.minimum(ends[i0:i1], g1), prepend=g0)
        p = np.repeat(primes[i0:i1], take)
        a = np.repeat(shifts[i0:i1], take)
        a += np.arange(g0, g1)
        np.remainder(a, p, out=a)  # m mod p, the base pow reduces first too
        fails = np.flatnonzero(_fermat_residues(a, p) != 1) + g0
        firsts = shifts[np.searchsorted(ends, fails, side="right")] + fails
        for first, q in zip(firsts.tolist(), p[fails - g0].tolist()):
            block[first - lo :: q] = False
    block.flags.writeable = False
    return block


class VerdictTable:
    """Retired for ``certify_block(0, limit, table)``; the name stays, empty
    and unexported, for benchmark/trace_layers.py, which looks it up."""
