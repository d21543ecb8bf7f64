"""Brute-force reference implementations.

Everything here is deliberately independent of the sieve-backed engine:
no shared tables, no modular exponentiation. Every primality decision is
trial division by consecutive integers and every enumeration an
exhaustive scan. Slow on purpose, so the prime list and the pair and
triple scans share one bound, ``ORACLE_LIMIT``, and refuse a larger
limit, total or n with ValueError.
Used by the test suite and by the CLI's --verify-against-oracle mode.

The engine calls it in one place: ``certify.fermat_congruence_holds``
checks that its modulus is prime with ``oracle_is_prime``. That is an
argument check of a single congruence and decides no verdict.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "ORACLE_LIMIT",
    "PairDecomposition",
    "oracle_is_prime",
    "oracle_pairs",
    "oracle_triples",
    "trial_primes_upto",
]

ORACLE_LIMIT = 10**7


def _refuse_past_limit(what: str, value: int) -> None:
    """Raise ValueError when value, named what, is past ORACLE_LIMIT."""
    if value > ORACLE_LIMIT:
        raise ValueError(f"{what} {value} exceeds the oracle limit {ORACLE_LIMIT}")


@dataclass(frozen=True)
class PairDecomposition:
    """All splits of an even total into p + q, p <= q, both prime."""

    total: int
    pairs: list[tuple[int, int]]


def oracle_is_prime(a: int) -> bool:
    """Trial division by every integer in [2, isqrt(a)]."""
    if a < 1:
        raise ValueError(f"a must be a natural number >= 1, got {a}")
    if a == 1:
        return False
    for d in range(2, math.isqrt(a) + 1):
        if a % d == 0:
            return False
    return True


# grow-only cache of trial-division primes; membership queries are only
# ever made for values <= an ensured limit, so a superset is harmless
_known_upto = 1
_known_primes: list[int] = []
_known_set: set[int] = set()


def _ensure_primes(limit: int) -> None:
    global _known_upto
    if limit > _known_upto:
        for v in range(_known_upto + 1, limit + 1):
            if oracle_is_prime(v):
                _known_primes.append(v)
                _known_set.add(v)
        _known_upto = limit


def trial_primes_upto(limit: int) -> list[int]:
    """Primes <= limit, each certified by oracle_is_prime."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    _refuse_past_limit("limit", limit)
    _ensure_primes(limit)
    return _known_primes[: bisect_right(_known_primes, limit)]


def oracle_pairs(total: int) -> PairDecomposition:
    """Exhaustive scan of p in [2, total/2], keeping (p, total - p) when
    both are oracle-prime."""
    if total < 4 or total % 2:
        raise ValueError(f"total must be even and >= 4, got {total}")
    _refuse_past_limit("total", total)
    _ensure_primes(total)
    pset = _known_set
    pairs = [
        (p, total - p)
        for p in range(2, total // 2 + 1)
        if p in pset and (total - p) in pset
    ]
    return PairDecomposition(total=total, pairs=pairs)


def oracle_triples(n: int) -> list[tuple[int, int, int]]:
    """All canonical triples p + q + r = n: odd middle q, p <= r, all prime.

    Ordered by (q, p) ascending, matching the engine's middle-then-offset
    enumeration after the (x, y) change of variables.
    """
    if n <= 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and > 5, got {n}")
    _refuse_past_limit("n =", n)
    _ensure_primes(n)
    ps = _known_primes
    pset = _known_set
    out: list[tuple[int, int, int]] = []
    for qi in range(1, bisect_right(ps, n - 4)):
        q = ps[qi]
        s = n - q
        for pi in range(bisect_right(ps, s // 2)):
            p = ps[pi]
            if (s - p) in pset:
                out.append((p, q, s - p))
    return out
