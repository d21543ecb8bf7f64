"""Primes strictly between n and 2n - 2, as totient-equation solutions.

A solution x of phi(n + x) + 1 = n + x with 0 < x < n - 2 is exactly a
prime n + x in the open interval (n, 2n - 2). Enumeration reads the
sieve's primality mask over that interval. The solution count equals
pi(2n-2) - pi(n).
"""

from dataclasses import dataclass

import numpy as np

from .arith import PrimePi, SpfTable

__all__ = [
    "BertrandWitness",
    "bertrand_count",
    "bertrand_solutions",
    "count_identity_check",
    "first_bertrand_witness",
]


@dataclass(frozen=True, slots=True)
class BertrandWitness:
    n: int
    x: int
    prime: int


def _validate(n: int, table: SpfTable) -> None:
    if n <= 3:
        raise ValueError(f"defined for n > 3, got {n}")
    if 2 * n - 2 > table.limit:
        raise ValueError(
            f"n = {n} needs the sieve through {2 * n - 2}, table stops at {table.limit}"
        )


def bertrand_solutions(n: int, table: SpfTable) -> list[BertrandWitness]:
    """All x in (0, n-2) with n + x prime, ascending. Never empty for n > 3."""
    _validate(n, table)
    seg = table.is_prime_mask[n + 1 : 2 * n - 2]
    return [
        BertrandWitness(n=n, x=x, prime=n + x)
        for x in (np.nonzero(seg)[0] + 1).tolist()
    ]


def bertrand_count(n: int, table: SpfTable) -> int:
    """len(bertrand_solutions(n)) without materializing witnesses."""
    _validate(n, table)
    return int(np.count_nonzero(table.is_prime_mask[n + 1 : 2 * n - 2]))


def first_bertrand_witness(n: int, table: SpfTable) -> BertrandWitness | None:
    _validate(n, table)
    prime = table.is_prime_mask.data
    for x in range(1, n - 2):
        if prime[n + x]:
            return BertrandWitness(n=n, x=x, prime=n + x)
    return None


def count_identity_check(n: int, table: SpfTable, pi: PrimePi) -> bool:
    """Whether the solution count equals pi(2n-2) - pi(n).

    Solutions reach primes <= 2n-3 while pi counts through 2n-2; the two
    agree because 2n-2 is even and > 2, hence never prime.
    """
    return bertrand_count(n, table) == pi.prime_pi(2 * n - 2) - pi.prime_pi(n)
