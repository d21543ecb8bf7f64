import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems.arith import MemoryBudgetError, PrimePi, _sieve_bytes, build_spf

from conftest import TABLE_LIMIT


def brute_smallest_factor(a):
    for d in range(2, a + 1):
        if a % d == 0:
            return d
    raise AssertionError(a)


def brute_factorize(a):
    out, d = [], 2
    while a > 1:
        if a % d == 0:
            e = 0
            while a % d == 0:
                a //= d
                e += 1
            out.append((d, e))
        d += 1
    return out


def brute_nu(a):
    count, d = 0, 2
    while d * d <= a:
        while a % d == 0:
            a //= d
            count += 1
        d += 1
    return count + (1 if a > 1 else 0)


def brute_phi(a):
    return sum(1 for k in range(1, a + 1) if math.gcd(k, a) == 1)


class TestBuildSpf:
    def test_examples(self):
        t = build_spf(10)
        assert t.factorize(9) == [(3, 2)]
        assert t.factorize(7) == [(7, 1)]
        assert t.factorize(10) == [(2, 1), (5, 1)]

    def test_invariants_small(self):
        t = build_spf(5000)
        smallest = [0, 1] + [brute_smallest_factor(a) for a in range(2, 5001)]
        for a in range(2, 5001):
            factors = t.factorize(a)
            p = factors[0][0]
            assert p == smallest[a]
            assert math.prod(q**e for q, e in factors) == a
            assert (p == a) == t.is_prime(a)
        for a in range(1, 5001):
            assert t.is_prime(a) == bool(t.is_prime_bytes[a])
        # primality is one buffer: the mask is a read-only view of the bytes
        mask = t.is_prime_mask
        assert not mask.flags.writeable
        assert np.shares_memory(mask, np.frombuffer(t.is_prime_bytes, np.uint8))
        expected = np.array(smallest) == np.arange(5001)
        expected[:2] = False
        assert (mask == expected).all()
        assert t.prime_list == np.flatnonzero(mask).tolist()
        for limit in (2, 3, 4, 9):
            t = build_spf(limit)
            for a in range(2, limit + 1):
                factors = t.factorize(a)
                assert factors[0][0] == smallest[a]
                assert math.prod(q**e for q, e in factors) == a
                assert t.is_prime_bytes[a] == (smallest[a] == a)

    def test_warm_peak_per_value(self):
        # the build holds the bool array it crosses off and the bytes copied
        # from it, and nothing else that grows with the limit; tracemalloc
        # also sees about 0.5 KB of Python objects (the two buffers' headers,
        # the table, the loop's own), which no budget count includes
        limit = 2_000_000
        counted = _sieve_bytes(limit)
        assert counted <= 2 * (limit + 1)
        tracemalloc.start()
        try:
            build_spf(limit).warm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= counted + 1024, peak - counted

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            build_spf(1)
        with pytest.raises(MemoryBudgetError):
            build_spf(10_000, memory_budget=128)


class TestNuPhi:
    def test_worked_examples(self, table):
        assert table.nu_p(2, 12) == 2
        assert table.nu_p(5, 12) == 0
        assert table.nu_p(7, 1) == 0
        assert table.nu(1) == 0
        assert table.nu(13) == 1
        assert table.nu(12) == 3
        assert table.phi(1) == 1
        assert table.phi(7) == 6
        assert table.phi(12) == 4

    def test_rejects_zero_and_nonprime_p(self, table):
        for fn in (table.nu, table.phi, table.is_prime):
            with pytest.raises(ValueError):
                fn(0)
        with pytest.raises(ValueError):
            table.nu_p(4, 12)
        with pytest.raises(ValueError):
            table.nu_p(2, 0)

    @given(st.integers(min_value=1, max_value=TABLE_LIMIT))
    def test_factorize_reconstructs(self, table, a):
        prod = 1
        for p, e in table.factorize(a):
            assert table.is_prime(p)
            prod *= p**e
        assert prod == a

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    def test_nu_completely_additive(self, table, a, b):
        assert table.nu(a * b) == table.nu(a) + table.nu(b)

    @given(st.integers(min_value=1, max_value=3000))
    def test_phi_matches_gcd_count(self, table, a):
        assert table.phi(a) == brute_phi(a)

    @given(st.integers(min_value=1, max_value=TABLE_LIMIT))
    def test_nu_matches_trial_division(self, table, a):
        assert table.nu(a) == brute_nu(a)

    @given(st.integers(min_value=2, max_value=TABLE_LIMIT))
    def test_phi_fixed_point_characterizes_primes(self, table, a):
        assert (table.phi(a) == a - 1) == (table.nu(a) == 1)

    def test_totient_divisor_sum(self, table):
        # standard internal-consistency identity: sum of phi over divisors is a
        for a in range(1, 1501):
            total = 0
            for d in range(1, math.isqrt(a) + 1):
                if a % d == 0:
                    total += table.phi(d)
                    if d != a // d:
                        total += table.phi(a // d)
            assert total == a

    def test_nu_values_table_matches(self, table):
        for a in range(1, 2000):
            assert int(table.nu_values[a]) == table.nu(a)

    def test_trial_division_fallback_beyond_limit(self, table):
        # the odd divisors past these tables start at 3, 11, 11 and 13
        for small in map(build_spf, (2, 9, 10, 11)):
            for a in range(1, 3001):
                assert small.factorize(a) == brute_factorize(a)
        for a in range(TABLE_LIMIT + 1, TABLE_LIMIT + 120):
            assert table.nu(a) == brute_nu(a)
            assert table.is_prime(a) == (brute_nu(a) == 1)
        big = 1_000_003 * 1_000_033  # both factors far beyond the table
        assert table.factorize(big) == [(1_000_003, 1), (1_000_033, 1)]
        assert table.phi(big) == 1_000_002 * 1_000_032
        p, q = 1_000_003, 1_000_033  # primes; their smallest factor is above the table
        for a, factors in ((p, [(p, 1)]), (p * p, [(p, 2)]), (p * q, [(p, 1), (q, 1)])):
            assert table.factorize(a) == factors
            assert table.is_prime(a) == (a == p)


class TestPrimePi:
    def test_worked_examples(self, pi):
        assert pi.prime_pi(1) == 0
        assert pi.prime_pi(10) == 4
        assert pi.prime_pi(18) == 7

    def test_bounds(self, pi):
        assert pi.prime_pi(0) == 0
        assert pi.prime_pi(2) == 1
        with pytest.raises(ValueError):
            pi.prime_pi(pi.limit + 1)
        with pytest.raises(ValueError):
            pi.prime_pi(-1)

    @given(st.integers(min_value=2, max_value=TABLE_LIMIT))
    def test_increments_track_primality(self, table, pi, x):
        step = pi.prime_pi(x) - pi.prime_pi(x - 1)
        assert step in (0, 1)
        assert (step == 1) == table.is_prime(x)

    def test_from_spf_monotone(self, table):
        pi = PrimePi.from_spf(table)
        assert pi.limit == table.limit
        assert pi.prime_pi(1) == 0
        diffs = pi.cumulative[1:].astype(int) - pi.cumulative[:-1].astype(int)
        assert diffs.min() >= 0

    def test_blockwise_sums_across_block_edges(self):
        # the running sum goes 2^16 values at a time, carrying the count over
        for limit in (2, 2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7):
            t = build_spf(limit)
            got = PrimePi.from_spf(t).cumulative
            assert got.dtype == np.uint32
            assert np.array_equal(got, np.cumsum(t.is_prime_mask, dtype=np.uint32))

    def test_from_spf_holds_only_its_result(self):
        # np.cumsum over the whole mask peaks at 8 bytes per value: the
        # uint32 result and a uint32 cast of the mask beside it
        limit = 2_000_000
        t = build_spf(limit).warm()
        tracemalloc.start()
        try:
            PrimePi.from_spf(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (limit + 1), peak / (limit + 1)
