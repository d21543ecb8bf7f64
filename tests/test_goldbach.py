from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems import goldbach
from phisystems.arith import build_spf
from phisystems.certify import certify_block
from phisystems.goldbach import (
    binary_count,
    binary_solutions,
    decomposition_to_xy,
    fermat_system_solutions,
    first_binary_witness,
    first_pair_y_block,
    first_peculiar_witness,
    first_ternary_witness,
    peculiar_count,
    peculiar_solutions,
    proposition_check,
    raw_form_solutions,
    substitution_bijection_check,
    ternary_count,
    ternary_solutions,
    two_prime_sum_exists,
)
from phisystems.oracle import oracle_pairs, oracle_triples

from conftest import TABLE_LIMIT

PAIR_N_MAX = TABLE_LIMIT // 2
# enumeration-heavy properties stay on small odd n; cheap checks roam wider
ODD_N_SMALL = st.integers(min_value=3, max_value=1000).map(lambda k: 2 * k + 1)
ODD_N_WIDE = st.integers(min_value=3, max_value=TABLE_LIMIT // 2 - 1).map(
    lambda k: 2 * k + 1
)


def brute_nu(a):
    count, d = 0, 2
    while d * d <= a:
        while a % d == 0:
            a //= d
            count += 1
        d += 1
    return count + (1 if a > 1 else 0)


def brute_raw_form(n):
    # independent of the sieve: trial-division nu over the literal interval
    return [
        x
        for x in range(2 * n + 2, 4 * n - 1)
        if brute_nu(x - 2 * n) + brute_nu(4 * n - x) == 2
    ]


class TestBinary:
    def test_worked_examples(self, table):
        assert [w.x for w in binary_solutions(3, table)] == [0]
        assert [w.x for w in binary_solutions(5, table)] == [0, 2]
        assert [(w.x, w.p, w.q) for w in binary_solutions(2, table)] == [(0, 2, 2)]

    def test_rejects_out_of_domain(self, table):
        with pytest.raises(ValueError):
            binary_solutions(1, table)
        with pytest.raises(ValueError):
            binary_solutions(TABLE_LIMIT, table)

    @given(st.integers(min_value=2, max_value=PAIR_N_MAX))
    def test_witness_invariants(self, table, n):
        ws = binary_solutions(n, table)
        assert [w.x for w in ws] == sorted(w.x for w in ws)
        for w in ws:
            assert w.p + w.q == 2 * n and w.p <= w.q
            assert table.is_prime(w.p) and table.is_prime(w.q)
            # the totient equations hold literally at both components
            assert table.phi(w.p) + 1 == w.p
            assert table.phi(w.q) + 1 == w.q
            if n > 2:
                assert 0 <= w.x <= n - 3

    @given(st.integers(min_value=2, max_value=PAIR_N_MAX))
    def test_count_and_first_match_enumeration(self, table, n):
        ws = binary_solutions(n, table)
        assert binary_count(n, table) == len(ws)
        first = first_binary_witness(n, table)
        if ws:
            assert first == ws[0]
        else:
            assert first is None

    @given(st.integers(min_value=3, max_value=PAIR_N_MAX))
    def test_pair_with_two_is_impossible(self, table, n):
        # a split 2 + (2n - 2) needs 2n - 2 prime, but 2n - 2 is even and > 2
        assert not table.is_prime(2 * n - 2)
        pairs = oracle_pairs(2 * n).pairs
        assert sum(1 for p, _ in pairs if p == 2) == 0
        assert binary_count(n, table) == len(pairs)

    def test_n2_pair_is_the_oracle_pair(self, table):
        # at 2n = 4 the lone split is 2 + 2, exactly the special witness
        assert [(w.p, w.q) for w in binary_solutions(2, table)] == oracle_pairs(4).pairs


class TestRawForm:
    def test_examples_against_trial_division_oracle(self, table):
        # derived with the brute oracle before freezing the literals
        assert brute_raw_form(3) == [9]
        assert brute_raw_form(5) == [13, 15, 17]
        assert brute_raw_form(2) == [6]
        assert raw_form_solutions(3, table) == [9]
        assert raw_form_solutions(5, table) == [13, 15, 17]
        assert raw_form_solutions(2, table) == [6]

    @given(st.integers(min_value=2, max_value=400))
    def test_matches_trial_division_oracle(self, table, n):
        assert raw_form_solutions(n, table) == brute_raw_form(n)

    @given(st.integers(min_value=2, max_value=PAIR_N_MAX))
    def test_solutions_are_prime_pairs(self, table, n):
        for x in raw_form_solutions(n, table):
            assert 2 * n + 1 < x < 4 * n - 1
            assert table.is_prime(x - 2 * n) and table.is_prime(4 * n - x)


class TestSubstitutionBijection:
    def test_worked_examples(self, table):
        assert substitution_bijection_check(3, table)
        assert substitution_bijection_check(5, table)
        assert substitution_bijection_check(100, table)

    def test_folding_multiplicity(self, table):
        # the raw interval sees each unordered pair from both sides
        n = 5
        folded = Counter(abs(3 * n - x) for x in raw_form_solutions(n, table))
        assert folded == {0: 1, 2: 2}

    @given(st.integers(min_value=3, max_value=PAIR_N_MAX))
    def test_holds_everywhere(self, table, n):
        assert substitution_bijection_check(n, table)


class TestFermatSystem:
    def test_worked_examples(self, table):
        assert fermat_system_solutions(5, table) == [0, 2]
        assert fermat_system_solutions(4, table) == [1]
        assert fermat_system_solutions(7, table) == [0, 4]

    def test_rejects_small_n(self, table):
        for n in (1, 2, 3):
            with pytest.raises(ValueError):
                fermat_system_solutions(n, table)

    @given(st.integers(min_value=4, max_value=600))
    def test_direct_route_matches_binary(self, table, n):
        assert fermat_system_solutions(n, table) == [
            w.x for w in binary_solutions(n, table)
        ]

    def test_verdict_table_route_matches_direct(self, table):
        verdicts = certify_block(0, 2 * 399 - 2, table)  # values up to 2n - 2
        for n in range(4, 400):
            assert fermat_system_solutions(n, table, verdicts=verdicts) == (
                fermat_system_solutions(n, table)
            )
        with pytest.raises(ValueError, match="needs verdicts through 798"):
            fermat_system_solutions(400, table, verdicts=verdicts)


class TestTernary:
    def test_worked_examples(self, table):
        assert [(w.x, w.y) for w in ternary_solutions(7, table)] == [(5, 0)]
        assert [(w.p, w.q, w.r) for w in ternary_solutions(7, table)] == [(2, 3, 2)]
        assert [(w.x, w.y) for w in ternary_solutions(9, table)] == [(6, 0), (7, 0)]
        assert [(w.x, w.y) for w in ternary_solutions(11, table)] == [
            (7, 1),
            (8, 0),
            (9, 0),
        ]

    def test_rejects_out_of_domain(self, table):
        for n in (5, 6, 8, 100):
            with pytest.raises(ValueError):
                ternary_solutions(n, table)

    @given(ODD_N_SMALL)
    def test_witness_invariants(self, table, n):
        ws = ternary_solutions(n, table)
        assert ws, f"no triple for {n}"
        assert [(w.x, w.y) for w in ws] == sorted((w.x, w.y) for w in ws)
        for w in ws:
            assert w.p + w.q + w.r == n
            assert w.p <= w.r and w.q % 2 == 1
            assert table.is_prime(w.p) and table.is_prime(w.q) and table.is_prime(w.r)
            assert (w.p, w.q, w.r) == (n - w.x - w.y, 2 * w.x - n, n - w.x + w.y)
            assert 0 <= w.y < w.x < w.x + w.y + 2 < n + 1 < 2 * w.x

    @given(ODD_N_SMALL)
    def test_count_and_first_match_enumeration(self, table, n):
        ws = ternary_solutions(n, table)
        assert ternary_count(n, table) == len(ws)
        assert first_ternary_witness(n, table) == ws[0]

    @given(ODD_N_WIDE)
    def test_nonempty_wide(self, table, n):
        assert first_ternary_witness(n, table) is not None

    def test_middle_role_multiplicity(self, table):
        # 19 = 3 + 5 + 11: each of the three primes takes the middle role once
        canon = {
            (min(w.p, w.r), w.q, max(w.p, w.r))
            for w in ternary_solutions(19, table)
        }
        assert {(3, 5, 11), (5, 3, 11), (3, 11, 5)} <= canon


class TestDecomposition:
    def test_worked_examples(self):
        assert decomposition_to_xy(2, 3, 2, 7) == (5, 0)
        assert decomposition_to_xy(3, 3, 3, 9) == (6, 0)
        assert decomposition_to_xy(3, 3, 5, 11) == (7, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decomposition_to_xy(3, 3, 5, 12)  # wrong sum
        with pytest.raises(ValueError):
            decomposition_to_xy(3, 4, 3, 10)  # even n
        with pytest.raises(ValueError):
            decomposition_to_xy(2, 2, 3, 7)  # even middle
        with pytest.raises(ValueError):
            decomposition_to_xy(5, 3, 3, 11)  # p > r
        with pytest.raises(ValueError):
            decomposition_to_xy(1, 3, 3, 7)  # component below 2

    def test_round_trips_all_oracle_triples(self, table):
        for n in range(7, 302, 2):
            ours = {(w.x, w.y) for w in ternary_solutions(n, table)}
            mapped = [decomposition_to_xy(p, q, r, n) for p, q, r in oracle_triples(n)]
            assert len(mapped) == len(set(mapped)) == len(ours)
            assert set(mapped) == ours
            for (p, q, r), (x, y) in zip(oracle_triples(n), mapped):
                assert (n - x - y, 2 * x - n, n - x + y) == (p, q, r)
                assert 0 <= y < x < x + y + 2 < n + 1 < 2 * x


class TestPeculiar:
    def test_worked_examples(self, table):
        assert [(w.x, w.y) for w in peculiar_solutions(7, table)] == [(5, 0)]
        assert [(w.x, w.y) for w in peculiar_solutions(9, table)] == [(6, 0)]
        assert [(w.x, w.y) for w in peculiar_solutions(11, table)] == [(7, 1), (8, 0)]

    @given(ODD_N_SMALL)
    def test_filter_is_the_mod3_congruence(self, table, n):
        ws = ternary_solutions(n, table)
        filtered = [w for w in ws if (w.p * w.q) % 3 == 0]
        assert peculiar_solutions(n, table) == filtered
        # p, q prime makes the congruence equivalent to "one of them is 3"
        assert filtered == [w for w in ws if 3 in (w.p, w.q)]

    @given(ODD_N_SMALL)
    def test_count_and_first_match_enumeration(self, table, n):
        ws = peculiar_solutions(n, table)
        assert peculiar_count(n, table) == len(ws)
        first = first_peculiar_witness(n, table)
        if ws:
            assert first == ws[0]
        else:
            assert first is None

    def test_r_equal_3_forces_p_equal_3(self, table):
        # parity: p <= r = 3 with p + r even leaves only p = 3, so filtering
        # on (p, q) alone loses no triple containing a 3
        for n in range(7, 2002, 2):
            for w in ternary_solutions(n, table):
                if w.r == 3:
                    assert w.p == 3


class TestProposition:
    def test_worked_examples(self, table):
        assert proposition_check(7, table)  # peculiar nonempty and 4 = 2 + 2
        assert proposition_check(9, table)  # peculiar nonempty and 6 = 3 + 3
        assert proposition_check(101, table)

    def test_two_prime_sum_includes_two_plus_two(self, table):
        assert two_prime_sum_exists(4, table)
        assert not two_prime_sum_exists(3, table)
        assert not two_prime_sum_exists(11, table)
        assert two_prime_sum_exists(13, table)  # 2 + 11

    @given(ODD_N_WIDE)
    def test_holds_on_range(self, table, n):
        assert proposition_check(n, table)

    @given(ODD_N_SMALL)
    def test_both_sides_against_oracle(self, table, n):
        left = any(3 in (p, q) for p, q, _ in oracle_triples(n))
        right = len(oracle_pairs(n - 3).pairs) > 0
        assert left == right  # the equivalence itself, oracle-side
        assert (first_peculiar_witness(n, table) is not None) == left


def scalar_pair_ys(m, mask):
    """_first_pair_y of the total 2m for each m, -1 where it finds nothing."""
    prime = mask.data
    ys = [goldbach._first_pair_y(2 * k, prime) for k in m]
    return [-1 if y is None else y for y in ys]


class TestPairBlock:
    def test_matches_the_scalar_scan_on_the_sieve(self, table):
        m = np.arange(2, PAIR_N_MAX + 1)
        got = first_pair_y_block(m, table.is_prime_mask)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_pair_ys(m.tolist(), table.is_prime_mask)

    def test_matches_the_scalar_scan_on_verdicts(self, table):
        verdicts = certify_block(0, 2 * 5000 - 3, table)
        m = np.arange(2, 5001)
        got = first_pair_y_block(m, verdicts)
        assert got.tolist() == scalar_pair_ys(m.tolist(), verdicts)

    def test_any_order_and_misses(self, table):
        # a block need not be sorted or distinct; with no prime above 100
        # the larger m have no pair
        sparse = table.is_prime_mask.copy()
        sparse[101:] = False
        m = [500, 2, 3, 4, 60, 7, 500, 5, 98, 99, 6]
        got = first_pair_y_block(np.array(m), sparse).tolist()
        assert got == scalar_pair_ys(m, sparse)
        assert got[:5] == [-1, 0, 0, 1, 1]  # 4 = 2 + 2, 6 = 3 + 3, 8 = 3 + 5, 59 + 61
        assert first_pair_y_block(np.array([], dtype=np.int64), sparse).size == 0

    def test_no_pair_below_three(self, table):
        # the walk closes an m once 2m - r < 3, whatever mask[0:3] holds; with
        # no prime below 200 the small m walk up to r past 2m - 3 unpaired
        sparse = table.is_prime_mask.copy()
        sparse[:200] = False
        m = np.arange(2, 400)
        want = first_pair_y_block(m, sparse)
        assert (want[(m > 2) & (m < 100)] == -1).all()
        sparse[0:3] = True
        got = first_pair_y_block(m, sparse)
        assert got.tolist() == want.tolist()
        assert got.tolist() == scalar_pair_ys(m.tolist(), sparse)

    # runs of consecutive m, the sweeps' blocks, from below, at and past the
    # first m of the offset phase, and far above it
    RUN_STARTS = [2, 3, 63, 64, 65, 510, 511, 512, 513, 4000, 4001, 20_000, 20_001]

    @pytest.mark.parametrize("start", RUN_STARTS)
    def test_runs_match_the_scalar_scan(self, table, start):
        # the sieve, congruence verdicts, a mask without every other prime,
        # whose classes stay open past the phase's last step, and one without
        # the primes just above the run, whose m all resume the walk there
        sieve = table.is_prime_mask
        halved = sieve.copy()
        halved[np.flatnonzero(sieve)[::2]] = False
        masks = [sieve, certify_block(0, TABLE_LIMIT, table), halved]
        for length in (1, 2, 3, 255, 2999):
            m = np.arange(start, start + length)
            gap = sieve.copy()
            gap[start : start + length + 1100] = False
            for mask in (*masks, gap):
                got = first_pair_y_block(m, mask)
                assert got.tolist() == scalar_pair_ys(m.tolist(), mask), (length, mask)
            # with the gap, no m > 2 closes at the phase's offsets, up to
            # 2 * _PHASE_STEPS - 1
            assert ((got < 0) | (got > 2 * goldbach._PHASE_STEPS))[m > 2].all()

    def test_runs_far_above(self):
        sieve = build_spf(2 * 10**6).is_prime_mask
        for start in (999_000, 999_001):
            m = np.arange(start, start + 1000)
            assert first_pair_y_block(m, sieve).tolist() == scalar_pair_ys(m.tolist(), sieve)

    def test_tail_resumes_past_the_phase_and_retries(self, table):
        # no prime in [10^4, 15400): every m of the run is open after the
        # phase's 255 steps, and its walk finds no prime in its first window
        # [10^4, 14496), so it walks again over a wider one to find y > 5000
        sparse = table.is_prime_mask.copy()
        sparse[10_000:15_400] = False
        m = np.arange(10_000, 10_400)
        got = first_pair_y_block(m, sparse)
        assert got.tolist() == scalar_pair_ys(m.tolist(), sparse)
        assert (got > 5000).all()

    def test_no_prime_at_all(self):
        m = np.array([2, 3, 4, 5, 100, 2, 1000])
        got = first_pair_y_block(m, np.zeros(2000, dtype=np.bool_))
        assert got.tolist() == [0, -1, -1, -1, -1, 0, -1]

    def test_mask_cut_at_the_last_value_read(self, table):
        # the largest m reads primality through 2 max(m) - 3, and no further
        for top in (3, 4, 5, 6, 1000, 1001, 4999):
            m = np.arange(2, top + 1)
            full = first_pair_y_block(m, table.is_prime_mask)
            cut = first_pair_y_block(m, table.is_prime_mask[: 2 * top - 2])
            assert cut.tolist() == full.tolist()

    def test_two_prime_sums_one_total_at_a_time(self, table):
        # a total alone is still open after its last prime p <= total / 2
        for t in range(0, 300):
            got = goldbach._two_prime_sums(range(t, t + 1), table).tolist()
            assert got == [two_prime_sum_exists(t, table)]
        assert goldbach._two_prime_sums(range(0), table).size == 0

    def test_two_prime_sums_match_the_scalar_scan(self, table):
        # the strided rounds, then the compacted ones, on both parities; on
        # the sieve, and on a mask holding one prime in eight, where many
        # even totals that reach the compacted rounds have no split
        mask = table.is_prime_mask[:20_001].copy()
        primes = np.flatnonzero(mask)
        mask[primes[np.random.default_rng(8).random(len(primes)) < 7 / 8]] = 0
        sparse = SimpleNamespace(
            limit=20_000, is_prime_mask=mask, prime_list=np.flatnonzero(mask).tolist()
        )
        for source in (table, sparse):
            for totals in (range(0, 20_001), range(4, 20_001, 2), range(1, 9_001, 2)):
                got = goldbach._two_prime_sums(totals, source).tolist()
                assert got == [two_prime_sum_exists(t, source) for t in totals]
