import importlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems.arith import build_spf
from phisystems.certify import (
    _GROUP,
    _RESIDUE_BYTES,
    Verdict,
    _block_bytes,
    _fermat_residues,
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
        assert c.verdict is Verdict.PRIME and c.moduli.size == c.residues.size == 0
        c = certify(25, table)
        assert c.verdict is Verdict.COMPOSITE and c.failing_modulus == 5
        c = certify(29, table)
        assert c.verdict is Verdict.PRIME
        assert c.moduli.tolist() == [2, 3, 5]
        assert c.residues.tolist() == [1, 1, 1]

    def test_checks_are_read_only_int64_columns(self, table):
        for m in (2, 45, 1_000_003):
            cert = certify(m, table, full_checks=True)
            for column in (cert.moduli, cert.residues):
                assert column.dtype == np.int64 and not column.flags.writeable
            assert not hasattr(cert, "checks")

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
        assert len(cert.moduli) == len(cert.residues) == pi.prime_pi(math.isqrt(m))
        assert cert.residues.tolist() == [pow(m, p - 1, p) for p in cert.moduli.tolist()]

    @given(st.integers(min_value=4, max_value=1_000_000))
    def test_composite_failing_modulus(self, table, m):
        cert = certify(m, table)
        if cert.verdict is Verdict.COMPOSITE:
            assert cert.failing_modulus is not None
            assert m % cert.failing_modulus == 0
            if m <= table.limit:
                assert cert.failing_modulus == table.factorize(m)[0][0]
            assert cert.moduli[-1] == cert.failing_modulus
            assert cert.residues[-1] != 1
            assert (cert.residues[:-1] == 1).all()

    def test_short_circuit_vs_full(self, table):
        fast = certify(45, table)
        assert fast.moduli.tolist() == [2, 3]
        full = certify(45, table, full_checks=True)
        assert full.moduli.tolist() == [2, 3, 5]
        assert full.residues.tolist() == [1, 0, 0]
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
            len(certify(n + x, table, full_checks=True).moduli)
            for x in range(1, n - 2, 97)
        }
        assert min(sizes) >= pi.prime_pi(math.isqrt(n))
        assert max(sizes) <= pi.prime_pi(math.isqrt(2 * n - 3))


class TestVerdictTable:
    """The verdict table of the congruence route: a certify block from 0,
    a primality mask indexed by value."""

    def test_matches_direct_certification(self, table):
        arr = certify_block(0, 500, table)
        assert arr[:2].tolist() == [False, False]
        for m in range(2, 501):
            assert bool(arr[m]) == (certify(m, table).verdict is Verdict.PRIME)

    def test_grows_incrementally(self, table):
        # a table through a higher limit extends the one through a lower
        first, arr = (certify_block(0, limit, table) for limit in (50, 200))
        for limit, verdicts in ((50, first), (200, arr)):
            assert not verdicts.flags.writeable
            assert verdicts.dtype == np.bool_ and len(verdicts) == limit + 1
        assert (arr[: len(first)] == first).all()

    def test_growth_in_blocks_matches_one_block(self, table):
        ends = (-1, 3, 4, 97, 1_001, 9_999, 25_003, 40_001)
        grown = np.concatenate(
            [certify_block(lo + 1, hi, table) for lo, hi in zip(ends, ends[1:])]
        )
        once = certify_block(0, 40_001, table)
        assert np.array_equal(grown, once)
        assert np.array_equal(once, table.is_prime_mask[: 40_002])


def _per_m(lo, hi, table):
    # 0 and 1 are not prime
    return [m >= 2 and certify_verdict(m, table)[0] for m in range(lo, hi + 1)]


class TestCertifyBlock:
    def test_equals_per_m_verdicts(self, table):
        block = certify_block(2, 200_000, table)
        assert block.dtype == np.bool_ and not block.flags.writeable
        assert block.tolist() == _per_m(2, 200_000, table)

    def test_random_blocks_around_prime_squares(self, table):
        # hi reaches 10^7; the per-m reference stops at a composite's
        # least prime factor, so it runs the full system only on primes
        rng = random.Random(20261018)
        primes = [p for p in table.prime_list if p * p <= 10**7]
        blocks = []
        for _ in range(20):
            lo = rng.randrange(2, 10**7)
            blocks.append((lo, lo + rng.randrange(0, 3_000)))
        for p in rng.sample(primes, 12) + [2, 3, 5, 7]:
            # lo just below, at and just above p^2, where p joins the system
            for lo in (p * p - 1, p * p, p * p + 1):
                if lo >= 2:
                    blocks.append((lo, lo + rng.randrange(0, 2 * p + 50)))
        for lo, hi in blocks:
            assert certify_block(lo, hi, table).tolist() == _per_m(lo, hi, table), (lo, hi)

    def test_narrow_block_far_up(self):
        lo, hi = 10**9, 10**9 + 1_000
        far = build_spf(31_623)  # isqrt(hi) = 31622
        assert certify_block(lo, hi, far).tolist() == _per_m(lo, hi, far)

    def test_small_starts_and_single_values(self, table):
        for lo in (0, 1, 2, 3, 4):
            for hi in range(lo, 60):
                assert certify_block(lo, hi, table).tolist() == _per_m(lo, hi, table)
        for m in (0, 1, 2, 3, 4, 9, 25, 49, 97, 7919, 999_983, 10**6, 1_018_081):
            assert certify_block(m, m, table).tolist() == _per_m(m, m, table)
        empty = certify_block(10, 9, table)
        assert empty.dtype == np.bool_ and empty.size == 0 and not empty.flags.writeable

    def test_table_limit_bounds_the_block(self):
        small = build_spf(1_000)
        hi = 1_001**2 - 1  # isqrt(hi) is exactly the table limit
        assert math.isqrt(hi) == small.limit
        assert certify_block(hi - 500, hi, small).tolist() == _per_m(hi - 500, hi, small)
        with pytest.raises(ValueError, match="beyond the table limit") as block_err:
            certify_block(hi - 500, hi + 1, small)
        with pytest.raises(ValueError) as scalar_err:
            certify_verdict(hi + 1, small)
        assert str(block_err.value) == str(scalar_err.value)
        assert certify_block(1, 10, small).tolist() == _per_m(1, 10, small)
        with pytest.raises(ValueError, match="lo >= 0"):
            certify_block(-1, 10, small)

    @pytest.mark.parametrize(
        "lo,hi",
        [(2, 10_000), (123_457, 130_000), (999_000, 10**6), (499_731, 499_740)],
    )
    def test_each_occupied_class_once(self, table, monkeypatch, lo, hi):
        pairs = []
        honest = certify_module._fermat_residues

        def recording(a, p):
            pairs.extend(zip(a.tolist(), p.tolist()))
            return honest(a, p)

        def no_pow(*args):
            raise AssertionError("certify_block calls the built-in pow")

        monkeypatch.setattr(certify_module, "_fermat_residues", recording)
        monkeypatch.setattr(certify_module, "pow", no_pow, raising=False)
        got = certify_block(lo, hi, table)
        monkeypatch.undo()
        assert got.tolist() == _per_m(lo, hi, table)
        primes = [p for p in table.prime_list if p <= math.isqrt(hi)]
        evaluated = {p: [] for p in primes}
        for a, p in pairs:
            evaluated[p].append(a)
        for p in primes:
            # the residues of the m that carry p, each once
            first = max(lo, p * p)
            occupied = {m % p for m in range(first, min(hi, first + p - 1) + 1)}
            assert sorted(evaluated[p]) == sorted(occupied), p

    @pytest.mark.parametrize("group", [1, 7, 64])
    def test_passes_of_any_size(self, table, monkeypatch, group):
        # a prime's residues may be cut between passes anywhere
        monkeypatch.setattr(certify_module, "_GROUP", group)
        for lo, hi in ((0, 400), (2, 3_000), (4_000, 4_100), (9_999, 10_007)):
            assert certify_block(lo, hi, table).tolist() == _per_m(lo, hi, table)

    def test_peak_within_the_count(self):
        # the block, one byte per m, the columns over the primes and one
        # pass of residues are what it holds at once; tracemalloc also sees
        # a few hundred bytes of Python objects (the arrays' headers). The
        # count errs high only by the columns, sized for r // 2 + 1 primes
        # p <= r. The primes come from the mask: no prime list is built
        for lo, hi in ((2, 2_000_000), (10**9, 10**9 + 1_000)):
            r = math.isqrt(hi)
            counted = _block_bytes(lo, hi)
            assert counted <= (hi - lo + 1) + 24 * (r // 2 + 1) + _RESIDUE_BYTES * _GROUP
            fresh = build_spf(r)
            tracemalloc.start()
            try:
                certify_block(lo, hi, fresh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= counted + 1024, (lo, peak - counted)
            assert counted - peak <= 24 * (r // 2 + 1), (lo, counted - peak)
            assert "prime_list" not in fresh.__dict__


# the largest primes p <= isqrt(2^63 - 1) = 3037000499, whose squares are
# the widest products the kernel forms, and composite moduli beside them,
# where a^(p - 1) mod p takes many values besides 0 and 1
_WIDE_MODULI = (3_037_000_493, 3_037_000_453, 3_037_000_429, 3_037_000_499, 3_037_000_498)


class TestFermatResidues:
    def test_matches_pow(self):
        for p in _WIDE_MODULI[:3]:
            assert all(p % d for d in range(2, math.isqrt(p) + 1)), p
        rng = random.Random(20261019)
        pairs = []
        for p in _WIDE_MODULI:
            root = math.isqrt(p)
            edges = [0, 1, 2, root - 1, root, root + 1, p // 2, p - 2, p - 1]
            edges += [(1 << 31) - 1, 1 << 31, (1 << 31) + 1]  # past int32
            pairs += [(a, p) for a in edges]
            pairs += [(rng.randrange(p), p) for _ in range(500)]
        for _ in range(2_000):
            p = rng.randrange(2, 3_037_000_500)
            pairs.append((rng.randrange(p), p))
        pairs += [(a, p) for p in (2, 3, 4, 5, 97) for a in range(p)]
        a, p = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        kept = a.copy(), p.copy()
        got = _fermat_residues(a, p)
        assert got.tolist() == [pow(x, q - 1, q) for x, q in pairs]
        assert np.array_equal(a, kept[0]) and np.array_equal(p, kept[1])
        assert _fermat_residues(a[:0], p[:0]).size == 0
