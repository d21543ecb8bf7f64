import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems.goldbach import binary_count, ternary_count
from phisystems.oracle import (
    ORACLE_LIMIT,
    oracle_is_prime,
    oracle_pairs,
    oracle_triples,
    trial_primes_upto,
)


def test_is_prime_examples():
    assert not oracle_is_prime(1)
    assert oracle_is_prime(97)
    assert not oracle_is_prime(91)  # 7 * 13


def test_is_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        oracle_is_prime(0)
    with pytest.raises(ValueError):
        oracle_is_prime(-5)


def test_agrees_with_sieve(table):
    # in-table lookups below the limit, the trial-division fallback above it
    for a in range(1, 100_001):
        assert oracle_is_prime(a) == table.is_prime(a)


def test_trial_primes_upto():
    assert trial_primes_upto(1) == []
    assert trial_primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # grow-only cache returns exactly the requested prefix afterwards
    trial_primes_upto(1000)
    assert trial_primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # refused before any trial division, like the pair and triple scans
    with pytest.raises(ValueError) as exc:
        trial_primes_upto(ORACLE_LIMIT + 1)
    assert str(exc.value) == f"limit {ORACLE_LIMIT + 1} exceeds the oracle limit {ORACLE_LIMIT}"


def test_pairs_examples():
    assert oracle_pairs(4).pairs == [(2, 2)]
    assert oracle_pairs(10).pairs == [(3, 7), (5, 5)]
    assert oracle_pairs(6).pairs == [(3, 3)]


def test_pairs_rejects_bad_totals():
    for total in (2, 3, 7):
        with pytest.raises(ValueError):
            oracle_pairs(total)
    with pytest.raises(ValueError):
        oracle_pairs(10**8)  # beyond the oracle limit


def test_triples_examples():
    assert oracle_triples(7) == [(2, 3, 2)]
    assert oracle_triples(9) == [(3, 3, 3), (2, 5, 2)]
    assert oracle_triples(11) == [(3, 3, 5), (3, 5, 3), (2, 7, 2)]


def test_triples_rejects_bad_n():
    for n in (5, 6, 8):
        with pytest.raises(ValueError):
            oracle_triples(n)
    with pytest.raises(ValueError):
        oracle_triples(10**8 + 1)


@given(st.integers(min_value=2, max_value=5000))
def test_pair_counts_match_engine(table, n):
    pairs = oracle_pairs(2 * n).pairs
    with_two = sum(1 for p, _ in pairs if p == 2)
    assert binary_count(n, table) == len(pairs) - with_two + (1 if n == 2 else 0)
    for p, q in pairs:
        assert p <= q and p + q == 2 * n
        assert oracle_is_prime(p) and oracle_is_prime(q)


@given(st.integers(min_value=3, max_value=500).map(lambda k: 2 * k + 1))
def test_triple_counts_match_engine(table, n):
    triples = oracle_triples(n)
    assert ternary_count(n, table) == len(triples)
    for p, q, r in triples:
        assert p + q + r == n and p <= r and q % 2 == 1
        assert oracle_is_prime(p) and oracle_is_prime(q) and oracle_is_prime(r)
