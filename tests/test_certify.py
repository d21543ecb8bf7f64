import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems.arith import MemoryBudgetError, build_spf
from phisystems.certify import (
    Verdict,
    VerdictTable,
    certify,
    certify_block,
    certify_verdict,
    fermat_congruence_holds,
)

from conftest import TABLE_LIMIT

# the package re-exports the function certify under the module's name
certify_module = importlib.import_module("phisystems.certify")


class TestFermatCongruence:
    def test_worked_examples(self):
        assert fermat_congruence_holds(5, 2)
        assert not fermat_congruence_holds(4, 2)
        # 9 is composite; a single passing congruence proves nothing
        assert fermat_congruence_holds(9, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fermat_congruence_holds(0, 2)
        with pytest.raises(ValueError):
            fermat_congruence_holds(5, 4)
        with pytest.raises(ValueError):
            fermat_congruence_holds(5, 1)
        for p in (0, -3):
            with pytest.raises(ValueError, match="p must be prime"):
                fermat_congruence_holds(5, p)

    @given(
        st.integers(min_value=1, max_value=100_000),
        st.sampled_from([2, 3, 5, 7, 11, 13, 41, 97, 499, 997]),
    )
    def test_holds_iff_p_misses_m(self, m, p):
        assert fermat_congruence_holds(m, p) == (m % p != 0)


class TestCertify:
    def test_worked_examples(self, table):
        c = certify(2, table)
        assert c.verdict is Verdict.PRIME and c.checks == ()
        c = certify(25, table)
        assert c.verdict is Verdict.COMPOSITE and c.failing_modulus == 5
        c = certify(29, table)
        assert c.verdict is Verdict.PRIME
        assert [k.modulus for k in c.checks] == [2, 3, 5]
        assert all(k.residue == 1 for k in c.checks)

    def test_rejects_m_below_two(self, table):
        for m in (0, 1):
            with pytest.raises(ValueError):
                certify(m, table)

    def test_rejects_sieve_too_small(self):
        from phisystems.arith import build_spf

        small = build_spf(10)
        with pytest.raises(ValueError):
            certify(200, small)

    def test_equivalence_full_range(self, table):
        for m in range(2, 20_001):
            assert (certify(m, table).verdict is Verdict.PRIME) == table.is_prime(m)

    @given(st.integers(min_value=2, max_value=TABLE_LIMIT**2))
    def test_equivalence_property(self, table, m):
        assert (certify(m, table).verdict is Verdict.PRIME) == table.is_prime(m)

    @given(st.integers(min_value=2, max_value=1_000_000))
    def test_verdict_fast_path_agrees(self, table, m):
        cert = certify(m, table)
        ok, failing = certify_verdict(m, table)
        assert ok == (cert.verdict is Verdict.PRIME)
        assert failing == cert.failing_modulus

    @given(st.integers(min_value=2, max_value=1_000_000))
    def test_full_system_size(self, table, pi, m):
        cert = certify(m, table, full_checks=True)
        assert len(cert.checks) == pi.prime_pi(math.isqrt(m))
        assert [k.exponent for k in cert.checks] == [k.modulus - 1 for k in cert.checks]

    @given(st.integers(min_value=4, max_value=1_000_000))
    def test_composite_failing_modulus(self, table, m):
        cert = certify(m, table)
        if cert.verdict is Verdict.COMPOSITE:
            assert cert.failing_modulus is not None
            assert m % cert.failing_modulus == 0
            if m <= table.limit:
                assert cert.failing_modulus == table.factorize(m)[0][0]
            assert cert.checks[-1].modulus == cert.failing_modulus
            assert cert.checks[-1].residue != 1

    def test_short_circuit_vs_full(self, table):
        fast = certify(45, table)
        assert [k.modulus for k in fast.checks] == [2, 3]
        full = certify(45, table, full_checks=True)
        assert [k.modulus for k in full.checks] == [2, 3, 5]
        assert fast.failing_modulus == full.failing_modulus == 3

    def test_perfect_square_caught_at_root(self, table):
        # the bracketed root bound is tight at squares: p = sqrt(m) is included
        cert = certify(49, table)
        assert cert.verdict is Verdict.COMPOSITE and cert.failing_modulus == 7

    def test_check_count_spans_certification_window(self, table, pi):
        # across the x-window of an n, system size varies between
        # pi(sqrt(n)) and pi(sqrt(2n - 3))
        n = 5000
        sizes = {
            len(certify(n + x, table, full_checks=True).checks)
            for x in range(1, n - 2, 97)
        }
        assert min(sizes) >= pi.prime_pi(math.isqrt(n))
        assert max(sizes) <= pi.prime_pi(math.isqrt(2 * n - 3))


class TestVerdictTable:
    def test_matches_direct_certification(self, table):
        vt = VerdictTable(table)
        arr = vt.ensure(500)
        for m in range(2, 501):
            assert bool(arr[m]) == (certify(m, table).verdict is Verdict.PRIME)

    def test_grows_incrementally(self, table):
        vt = VerdictTable(table)
        views = []
        for limit in (50, 200):
            views.append(vt.ensure(limit))
            # after each growth the array is a read-only view of the bytes
            assert views[-1] is vt.verdicts and not vt.verdicts.flags.writeable
            assert np.shares_memory(vt.verdicts, np.frombuffer(vt.verdict_bytes, np.uint8))
            assert vt.verdicts.tobytes() == vt.verdict_bytes
        first, arr = views
        assert (arr[: len(first)] == first).all()
        assert vt.limit == 200
        assert vt.ensure(100) is arr  # no shrink, no rebuild

    def test_growth_in_blocks_matches_one_block(self, table):
        grown = VerdictTable(table)
        for limit in (3, 4, 97, 1_001, 9_999, 25_003, 40_001):
            grown.ensure(limit)
        once = VerdictTable(table)
        once.ensure(40_001)
        assert grown.verdict_bytes == once.verdict_bytes
        assert grown.verdict_bytes == table.is_prime_bytes[: 40_002]

    def test_memory_budget_checked_before_growth(self, table):
        vt = VerdictTable(table, memory_budget=10_000)
        vt.ensure(1_000)
        before = vt.verdict_bytes
        with pytest.raises(MemoryBudgetError, match="budget"):
            vt.ensure(5_000)
        assert vt.verdict_bytes is before and vt.limit == 1_000


def _per_m(lo, hi, table):
    return bytes(certify_verdict(m, table)[0] for m in range(lo, hi + 1))


class TestCertifyBlock:
    def test_equals_per_m_verdicts(self, table):
        assert certify_block(2, 200_000, table) == _per_m(2, 200_000, table)

    def test_random_blocks_around_prime_squares(self, table):
        # a block costs sum(p) pows over p <= isqrt(hi): keep hi near 10^6
        rng = random.Random(20261018)
        primes = [p for p in table.prime_list if p * p <= 10**6]
        blocks = []
        for _ in range(20):
            lo = rng.randrange(2, 10**6)
            blocks.append((lo, lo + rng.randrange(0, 3_000)))
        for p in rng.sample(primes, 12) + [2, 3, 5, 7]:
            # lo just below, at and just above p^2, where p joins the system
            for lo in (p * p - 1, p * p, p * p + 1):
                if lo >= 2:
                    blocks.append((lo, lo + rng.randrange(0, 2 * p + 50)))
        for lo, hi in blocks:
            assert certify_block(lo, hi, table) == _per_m(lo, hi, table), (lo, hi)

    def test_small_starts_and_single_values(self, table):
        for lo in (2, 3, 4):
            for hi in range(lo, 60):
                assert certify_block(lo, hi, table) == _per_m(lo, hi, table)
        for m in (2, 3, 4, 9, 25, 49, 97, 7919, 999_983, 10**6, 1_018_081):
            assert certify_block(m, m, table) == bytes([certify_verdict(m, table)[0]])
        assert certify_block(10, 9, table) == b""

    def test_table_limit_bounds_the_block(self):
        small = build_spf(1_000)
        hi = 1_001**2 - 1  # isqrt(hi) is exactly the table limit
        assert math.isqrt(hi) == small.limit
        assert certify_block(hi - 500, hi, small) == _per_m(hi - 500, hi, small)
        with pytest.raises(ValueError, match="beyond the table limit") as block_err:
            certify_block(hi - 500, hi + 1, small)
        with pytest.raises(ValueError) as scalar_err:
            certify_verdict(hi + 1, small)
        assert str(block_err.value) == str(scalar_err.value)
        with pytest.raises(ValueError, match="m >= 2"):
            certify_block(1, 10, small)

    @pytest.mark.parametrize(
        "lo,hi", [(2, 10_000), (123_457, 130_000), (999_000, 10**6)]
    )
    def test_one_pow_per_residue_class(self, table, monkeypatch, lo, hi):
        calls = []

        def counting_pow(base, exp, mod):
            calls.append((base, exp, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(certify_module, "pow", counting_pow, raising=False)
        got = certify_block(lo, hi, table)
        monkeypatch.undo()
        primes = [p for p in table.prime_list if p <= math.isqrt(hi)]
        assert len(calls) == sum(primes)
        # every base is a residue class in [0, p), each evaluated once
        assert sorted(calls) == sorted((a, p - 1, p) for p in primes for a in range(p))
        assert got == _per_m(lo, hi, table)

    def test_memory_budget(self, table):
        with pytest.raises(MemoryBudgetError, match="budget"):
            certify_block(2, 100_000, table, memory_budget=100_000)
        assert len(certify_block(2, 10_000, table, memory_budget=100_000)) == 9_999
