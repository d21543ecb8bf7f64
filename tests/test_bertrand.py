import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems.bertrand import (
    bertrand_count,
    bertrand_solutions,
    count_identity_check,
    first_bertrand_witness,
)
from phisystems.certify import Verdict, certify

from conftest import TABLE_LIMIT

N_MAX = TABLE_LIMIT // 2  # keeps 2n - 2 inside the session table


def test_worked_examples(table):
    assert [w.x for w in bertrand_solutions(4, table)] == [1]
    assert bertrand_solutions(4, table)[0].prime == 5
    assert [w.x for w in bertrand_solutions(5, table)] == [2]
    assert [(w.x, w.prime) for w in bertrand_solutions(10, table)] == [
        (1, 11),
        (3, 13),
        (7, 17),
    ]


def test_count_identity_examples(table, pi):
    assert count_identity_check(10, table, pi)  # 3 = pi(18) - pi(10)
    assert count_identity_check(4, table, pi)  # 1 = pi(6) - pi(4)
    assert count_identity_check(5, table, pi)  # 1 = pi(8) - pi(5)


def test_rejects_out_of_domain(table):
    for n in (0, 1, 2, 3):
        with pytest.raises(ValueError):
            bertrand_solutions(n, table)
    with pytest.raises(ValueError):
        bertrand_solutions(TABLE_LIMIT, table)


@given(st.integers(min_value=4, max_value=N_MAX))
def test_witness_invariants(table, n):
    ws = bertrand_solutions(n, table)
    assert ws, f"no prime between {n} and {2 * n - 2}"
    xs = [w.x for w in ws]
    assert xs == sorted(xs)
    for w in ws:
        assert 0 < w.x < n - 2
        assert w.prime == n + w.x
        assert n < w.prime < 2 * n - 2
        assert table.is_prime(w.prime)


@given(st.integers(min_value=4, max_value=N_MAX))
def test_count_identity(table, pi, n):
    assert count_identity_check(n, table, pi)


@given(st.integers(min_value=4, max_value=N_MAX))
def test_count_matches_enumeration(table, n):
    assert bertrand_count(n, table) == len(bertrand_solutions(n, table))


@given(st.integers(min_value=4, max_value=N_MAX))
def test_even_endpoint_reconciliation(table, pi, n):
    # solutions stop at primes <= 2n - 3 while pi counts through 2n - 2;
    # the endpoint 2n - 2 is even and > 2, so both readings agree
    assert not table.is_prime(2 * n - 2)
    primes_to_2n3 = pi.prime_pi(2 * n - 3) - pi.prime_pi(n)
    primes_to_2n2 = pi.prime_pi(2 * n - 2) - pi.prime_pi(n)
    assert primes_to_2n3 == primes_to_2n2 == bertrand_count(n, table)


@given(st.integers(min_value=4, max_value=N_MAX))
def test_first_witness_matches(table, n):
    first = first_bertrand_witness(n, table)
    assert first == bertrand_solutions(n, table)[0]


def test_witnesses_certify_as_prime(table):
    ws = bertrand_solutions(1000, table)
    assert all(certify(w.prime, table).verdict is Verdict.PRIME for w in ws)
