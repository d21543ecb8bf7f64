"""Sieve-backed arithmetic functions.

A primality sieve over [2, limit] is the backbone, one byte per value,
1 exactly at the primes; the numpy mask is a read-only view of those
bytes. Primality, the prime-power valuation nu_p and the prime-counting
function pi read it directly. The count nu of prime divisors with
multiplicity and Euler's totient phi read one exact trial division,
``factorize``: the table's primes, then each odd d past the limit, until
d * d exceeds the unfactored part.

``MemoryBudgetError`` is raised by one guard, ``_check_budget``, which the
sieve, the FFT count convolution and the certification blocks all call.

Tables are immutable after construction and safe to share across threads
or forked worker processes.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "MemoryBudgetError",
    "PrimePi",
    "SpfTable",
    "build_spf",
]

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes


class MemoryBudgetError(Exception):
    """A requested table would exceed the configured memory budget."""


def _check_budget(needed: int, what: str, memory_budget: int) -> None:
    """Raise MemoryBudgetError when ``what`` needs more than the budget."""
    if needed > memory_budget:
        raise MemoryBudgetError(
            f"{what} needs {needed} bytes, budget is {memory_budget}"
        )


def _sieve_bytes(limit: int) -> int:
    """What build_spf(limit) holds at its peak: the bool array it crosses
    off and the bytes copied from it, one byte per value each."""
    return 2 * (limit + 1)


def _check_natural(a: int) -> None:
    if a < 1:
        raise ValueError(f"argument must be a natural number >= 1, got {a}")


@dataclass(eq=False)
class SpfTable:
    """Primality table over [2, limit], the sieve that build_spf returns.

    ``is_prime_bytes`` holds one byte per value in [0, limit], 1 exactly
    at the primes: the table's only primality buffer. Despite the name it
    keeps no smallest prime factors; :meth:`factorize` divides by the
    primes. Pure-Python scan loops index the bytes, which is markedly
    faster than numpy scalar indexing. The mask view, the prime list and
    the nu table are cached lazily on first use; call :meth:`warm` before
    forking workers that will share the primality mask.
    """

    limit: int
    is_prime_bytes: bytes = field(repr=False)

    @cached_property
    def is_prime_mask(self) -> np.ndarray:
        """is_prime_bytes as a read-only bool array; a view, not a copy."""
        return np.frombuffer(self.is_prime_bytes, np.bool_)

    @cached_property
    def prime_list(self) -> list[int]:
        return np.flatnonzero(self.is_prime_mask).tolist()

    @cached_property
    def nu_values(self) -> np.ndarray:
        """nu(a) for every a <= limit, via one sliced pass per prime power."""
        nu = np.zeros(self.limit + 1, dtype=np.int8)
        for p in self.prime_list:
            q = p
            while q <= self.limit:
                nu[q::q] += 1
                q *= p
        return nu

    def warm(self) -> "SpfTable":
        """Materialize the mask view of the primality bytes, which every
        sweep reads, so that forked workers inherit it; the prime list is
        built on first use."""
        self.is_prime_mask
        return self

    def factorize(self, a: int) -> list[tuple[int, int]]:
        """Prime factorization as ascending (prime, exponent) pairs, by trial
        division: the table's primes, then each odd d past the limit."""
        _check_natural(a)
        out: list[tuple[int, int]] = []
        odd_past_table = itertools.count((self.limit + 1) | 1, 2)
        for d in itertools.chain(self.prime_list, odd_past_table):
            if d * d > a:
                break
            if a % d == 0:
                e = 0
                while a % d == 0:
                    a //= d
                    e += 1
                out.append((d, e))
        if a > 1:
            out.append((a, 1))
        return out

    def nu_p(self, p: int, a: int) -> int:
        """Exact exponent of the prime p in a; 0 when p does not divide a."""
        _check_natural(a)
        if not self.is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        return e

    def nu(self, a: int) -> int:
        """Number of prime divisors of a counted with multiplicity."""
        _check_natural(a)
        return sum(e for _, e in self.factorize(a))

    def phi(self, a: int) -> int:
        """Euler's totient, from the factorization (never by counting)."""
        _check_natural(a)
        result = a
        for p, _ in self.factorize(a):
            result = result // p * (p - 1)
        return result

    def is_prime(self, a: int) -> bool:
        _check_natural(a)
        if a <= self.limit:
            return bool(self.is_prime_bytes[a])
        return self.factorize(a) == [(a, 1)]


_PI_BLOCK = 1 << 16  # values summed at a time by PrimePi.from_spf


@dataclass(eq=False)
class PrimePi:
    """Cumulative prime counts: ``cumulative[x]`` is the number of primes <= x."""

    limit: int
    cumulative: np.ndarray

    @classmethod
    def from_spf(cls, table: SpfTable) -> "PrimePi":
        """A running sum of the primality mask, one block at a time, so that
        the cast of the mask to uint32 is held for one block, never beside
        the whole result."""
        mask = table.is_prime_mask
        cumulative = np.empty(len(mask), dtype=np.uint32)
        carry = 0
        for start in range(0, len(mask), _PI_BLOCK):
            block = cumulative[start : start + _PI_BLOCK]
            np.cumsum(mask[start : start + _PI_BLOCK], dtype=np.uint32, out=block)
            block += carry
            carry = int(block[-1])
        return cls(table.limit, cumulative)

    def prime_pi(self, x: int) -> int:
        if x < 0 or x > self.limit:
            raise ValueError(f"x must be in [0, {self.limit}], got {x}")
        return int(self.cumulative[x])


def build_spf(limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SpfTable:
    """Sieve the primes in [2, limit]."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    _check_budget(_sieve_bytes(limit), f"prime sieve over [2, {limit}]", memory_budget)
    prime = np.ones(limit + 1, dtype=np.bool_)
    prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return SpfTable(limit=limit, is_prime_bytes=prime.tobytes())
