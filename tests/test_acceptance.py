"""Desk-scale acceptance gate.

Each test runs one criterion at its full stated range and prints a
PASS/FAIL line (visible with pytest -s; the -v test names carry the same
information). Scales are pinned here, not configurable: these are the
exit criteria for the package.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from phisystems.arith import PrimePi, build_spf
from phisystems.bertrand import bertrand_count, bertrand_solutions, count_identity_check
from phisystems.certify import (
    Verdict,
    certify,
    certify_block,
    certify_verdict,
)
from phisystems.goldbach import (
    binary_solutions,
    decomposition_to_xy,
    fermat_system_solutions,
    first_binary_witness,
    first_peculiar_witness,
    first_ternary_witness,
    proposition_check,
    raw_form_solutions,
    ternary_solutions,
)
from phisystems.oracle import oracle_is_prime, oracle_pairs, oracle_triples
from phisystems.sweep import SweepOptions, emit_report, run_sweep

CERTIFY_LIMIT = 1_000_000
BERTRAND_LIMIT = 100_000
FORM_AGREEMENT_LIMIT = 10_000
BINARY_SWEEP_LIMIT = 1_000_000
PAIR_SAMPLE_COUNT = 500
PAIR_SAMPLE_RANGE = (3, 10_000)
PAIR_SAMPLE_SEED = 20260810
TERNARY_SWEEP_LIMIT = 1_000_000
TERNARY_BIJECTION_LIMIT = 2_000
PROPOSITION_LIMIT = 100_000
DETERMINISM_RANGE = (2, 10_000)
ARITH_LIMIT = 10_000

SIEVE_LIMIT = 2 * BINARY_SWEEP_LIMIT + 2


@pytest.fixture(scope="module")
def table():
    return build_spf(SIEVE_LIMIT).warm()


@pytest.fixture(scope="module")
def pi(table):
    return PrimePi.from_spf(table)


def report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_certification_equivalence(table):
    """certify verdict == trial-division oracle on [2, 1e6], under 60 s."""
    started = time.perf_counter()
    mismatches = []
    for m in range(2, CERTIFY_LIMIT + 1):
        engine = certify(m, table).verdict is Verdict.PRIME
        if engine != oracle_is_prime(m):
            mismatches.append(m)
    elapsed = time.perf_counter() - started
    report(
        "criterion 1: certification equivalence on [2, 1e6]",
        not mismatches and elapsed < 60.0,
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_certify_block_fast_path_on_criterion_1_range(table):
    """The block kernel equals the sieve on [2, 1e6] and the per-m verdict on a sample."""
    started = time.perf_counter()
    block = certify_block(2, CERTIFY_LIMIT, table)
    elapsed = time.perf_counter() - started
    assert np.array_equal(block, table.is_prime_mask[2 : CERTIFY_LIMIT + 1])
    rng = random.Random(PAIR_SAMPLE_SEED)
    sample = [rng.randint(2, CERTIFY_LIMIT) for _ in range(2_000)]
    bad = [m for m in sample if block[m - 2] != certify_verdict(m, table)[0]]
    report(
        "certify_block on [2, 1e6]: equals the sieve and the per-m verdicts",
        not bad,
        f"{len(bad)} sample mismatches, kernel {elapsed:.2f}s",
    )


def test_criterion_2_bertrand_count_identity(table, pi):
    """|solutions(n)| = pi(2n-2) - pi(n) >= 1 on (3, 1e5]."""
    # the count path is the enumeration's length; spot-check that equality
    # directly before leaning on it for the full range
    rng = random.Random(PAIR_SAMPLE_SEED)
    for n in (rng.randint(4, BERTRAND_LIMIT) for _ in range(200)):
        assert bertrand_count(n, table) == len(bertrand_solutions(n, table))
    bad = [
        n
        for n in range(4, BERTRAND_LIMIT + 1)
        if bertrand_count(n, table) < 1 or not count_identity_check(n, table, pi)
    ]
    report(
        "criterion 2: solution count identity on (3, 1e5]",
        not bad,
        f"{len(bad)} mismatches",
    )


def test_criterion_3_binary_form_agreement(table):
    """Sieve route, congruence route, and the folded raw route coincide on [4, 1e4]."""
    verdicts = certify_block(0, 2 * FORM_AGREEMENT_LIMIT - 2, table)
    bad = []
    for n in range(4, FORM_AGREEMENT_LIMIT + 1):
        xs = [w.x for w in binary_solutions(n, table)]
        if xs != fermat_system_solutions(n, table, verdicts=verdicts):
            bad.append(n)
            continue
        folded = Counter(abs(3 * n - x) for x in raw_form_solutions(n, table))
        if folded != {x: (1 if x == 0 else 2) for x in xs}:
            bad.append(n)
    report(
        "criterion 3: three-route agreement on [4, 1e4]",
        not bad,
        f"{len(bad)} mismatches",
    )


def test_criterion_4_binary_sweep(table):
    """A pair witness exists for every n in [2, 1e6]."""
    failures = [
        n
        for n in range(2, BINARY_SWEEP_LIMIT + 1)
        if first_binary_witness(n, table) is None
    ]
    report(
        "criterion 4: pair witness for every n in [2, 1e6]",
        not failures,
        f"failures at {failures[:5]}" if failures else "none missing",
    )


def test_criterion_5_pair_count_oracle(table):
    """Engine counts match exhaustive odd-prime pair counts on 500 samples."""
    rng = random.Random(PAIR_SAMPLE_SEED)
    lo, hi = PAIR_SAMPLE_RANGE
    bad = []
    for _ in range(PAIR_SAMPLE_COUNT):
        n = rng.randint(lo, hi)
        odd_pairs = sum(1 for p, _ in oracle_pairs(2 * n).pairs if p != 2)
        if len(binary_solutions(n, table)) != odd_pairs:
            bad.append(n)
    report(
        "criterion 5: pair-count oracle on 500 sampled n",
        not bad,
        f"{len(bad)} mismatches",
    )


def test_criterion_6_ternary_sweep_and_bijection(table):
    """Triple witnesses on (5, 1e6]; exact oracle bijection on (5, 2000]."""
    failures = [
        n
        for n in range(7, TERNARY_SWEEP_LIMIT + 1, 2)
        if first_ternary_witness(n, table) is None
    ]
    bad = []
    for n in range(7, TERNARY_BIJECTION_LIMIT + 1, 2):
        mapped = [decomposition_to_xy(p, q, r, n) for p, q, r in oracle_triples(n)]
        ours = [(w.x, w.y) for w in ternary_solutions(n, table)]
        if len(mapped) != len(set(mapped)) or sorted(mapped) != sorted(ours):
            bad.append(n)
    report(
        "criterion 6: ternary sweep on (5, 1e6] and bijection on (5, 2000]",
        not failures and not bad,
        f"{len(failures)} sweep failures, {len(bad)} bijection mismatches",
    )


def test_criterion_7_peculiar_proposition(table):
    """Equivalence check true and 3-containing triples present on odd (5, 1e5]."""
    bad = [
        n
        for n in range(7, PROPOSITION_LIMIT + 1, 2)
        if not proposition_check(n, table) or first_peculiar_witness(n, table) is None
    ]
    report(
        "criterion 7: proposition and peculiar witness on odd (5, 1e5]",
        not bad,
        f"{len(bad)} failures",
    )


def test_criterion_8_determinism(table, pooled):
    """1-worker and 8-worker sweeps over [2, 1e4] are byte-identical JSON."""
    started = pooled(8, 512)  # 9999 n in 20 chunks, so that 8 workers fork
    lo, hi = DETERMINISM_RANGE
    serial = run_sweep("binary", lo, hi, SweepOptions(threads=1), table=table)
    parallel = run_sweep("binary", lo, hi, SweepOptions(threads=8), table=table)
    same = emit_report(serial, "json") == emit_report(parallel, "json")
    same &= started == [8]
    report("criterion 8: worker-count determinism on [2, 1e4]", same)


def test_invariant_bertrand_nonempty_to_1e6(table):
    """Module invariant beyond criterion 2's range: a witness for every n
    in (3, 1e6]."""
    b = table.is_prime_mask.tobytes()  # bytes.find gives the next prime
    missing = [
        n for n in range(4, TERNARY_SWEEP_LIMIT + 1) if b.find(1, n + 1, 2 * n - 2) < 0
    ]
    report(
        "invariant: prime between n and 2n-2 for all n in (3, 1e6]",
        not missing,
        f"{len(missing)} missing",
    )


def test_invariant_peculiar_nonempty_to_1e6(table):
    """Module invariant beyond criterion 7's range: a triple containing 3
    for every odd n in (5, 1e6]."""
    missing = [
        n
        for n in range(7, TERNARY_SWEEP_LIMIT + 1, 2)
        if first_peculiar_witness(n, table) is None
    ]
    report(
        "invariant: triple-with-3 witness for all odd n in (5, 1e6]",
        not missing,
        f"{len(missing)} missing",
    )


def test_criterion_9_arithmetic_unit_suite(table):
    """phi, nu, nu_p match direct definitions on [1, 1e4]; stated equivalences hold."""
    gcd = math.gcd
    small_primes = [p for p in table.prime_list if p <= 100]
    bad = []
    for a in range(1, ARITH_LIMIT + 1):
        if table.phi(a) != sum(1 for k in range(1, a + 1) if gcd(k, a) == 1):
            bad.append(("phi", a))
        count, rem, d = 0, a, 2
        while d * d <= rem:
            while rem % d == 0:
                rem //= d
                count += 1
            d += 1
        total = count + (1 if rem > 1 else 0)
        if table.nu(a) != total:
            bad.append(("nu", a))
        for p in small_primes:
            e, rem = 0, a
            while rem % p == 0:
                rem //= p
                e += 1
            if table.nu_p(p, a) != e:
                bad.append(("nu_p", p, a))
        # stated equivalences
        if (table.nu(a) == 0) != (a == 1):
            bad.append(("nu0", a))
        if (table.nu(a) == 1) != oracle_is_prime(a):
            bad.append(("nu1", a))
        if (table.phi(a) == a - 1) != (table.nu(a) == 1):
            bad.append(("phi-fixed-point", a))
    report(
        "criterion 9: arithmetic functions vs direct definitions on [1, 1e4]",
        not bad,
        f"{len(bad)} mismatches",
    )
