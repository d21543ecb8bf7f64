#!/usr/bin/env python3
"""Run the desk-scale verification battery and print a timing table.

Covers the same ground as tests/test_acceptance.py but sized by --scale,
so quick smoke runs are possible:

    python3 scripts/desk_verification.py --scale 0.01

Exit code 0 when every check holds.
"""

import argparse
import math
import random
import sys
import time
from collections import Counter

from phisystems.arith import PrimePi, build_spf
from phisystems.bertrand import bertrand_count, count_identity_check
from phisystems.certify import Verdict, VerdictTable, certify
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


def scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(full * scale))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="range multiplier")
    args = parser.parse_args()
    s = args.scale

    certify_hi = scaled(1_000_000, s, 1_000)
    bertrand_hi = scaled(100_000, s, 100)
    forms_hi = scaled(10_000, s, 100)
    binary_hi = scaled(1_000_000, s, 1_000)
    ternary_hi = scaled(1_000_000, s, 1_001)
    bijection_hi = scaled(2_000, s, 101)
    proposition_hi = scaled(100_000, s, 101)
    determinism_hi = scaled(10_000, s, 100)
    arith_hi = scaled(10_000, s, 100)
    samples = scaled(500, s, 25)

    top = max(2 * binary_hi + 2, 2 * bertrand_hi, certify_hi, ternary_hi)
    t0 = time.perf_counter()
    table = build_spf(top).warm()
    pi = PrimePi.from_spf(table)
    print(f"tables through {top}: {time.perf_counter() - t0:.2f}s")

    results = []

    def check(name, fn):
        t0 = time.perf_counter()
        ok, detail = fn()
        dt = time.perf_counter() - t0
        results.append((name, ok, detail, dt))
        print(f"{'PASS' if ok else 'FAIL'}  {name:<44} {detail:<24} {dt:8.2f}s")

    def certification_equivalence():
        bad = sum(
            1
            for m in range(2, certify_hi + 1)
            if (certify(m, table).verdict is Verdict.PRIME) != oracle_is_prime(m)
        )
        return bad == 0, f"[2, {certify_hi}], {bad} mismatches"

    def bertrand_identity():
        bad = sum(
            1
            for n in range(4, bertrand_hi + 1)
            if bertrand_count(n, table) < 1 or not count_identity_check(n, table, pi)
        )
        return bad == 0, f"(3, {bertrand_hi}], {bad} mismatches"

    def three_routes():
        verdicts = VerdictTable(table)
        verdicts.ensure(2 * forms_hi - 3)
        bad = 0
        for n in range(4, forms_hi + 1):
            xs = [w.x for w in binary_solutions(n, table)]
            folded = Counter(abs(3 * n - x) for x in raw_form_solutions(n, table))
            if xs != fermat_system_solutions(n, table, verdicts=verdicts) or folded != {
                x: (1 if x == 0 else 2) for x in xs
            }:
                bad += 1
        return bad == 0, f"[4, {forms_hi}], {bad} mismatches"

    def binary_sweep():
        bad = sum(
            1 for n in range(2, binary_hi + 1) if first_binary_witness(n, table) is None
        )
        return bad == 0, f"[2, {binary_hi}], {bad} missing"

    def pair_count_oracle():
        rng = random.Random(20260810)
        bad = 0
        hi = min(forms_hi, 10_000)
        for _ in range(samples):
            n = rng.randint(3, hi)
            odd_pairs = sum(1 for p, _ in oracle_pairs(2 * n).pairs if p != 2)
            if len(binary_solutions(n, table)) != odd_pairs:
                bad += 1
        return bad == 0, f"{samples} samples, {bad} mismatches"

    def ternary_sweep_and_bijection():
        missing = sum(
            1
            for n in range(7, ternary_hi + 1, 2)
            if first_ternary_witness(n, table) is None
        )
        bad = 0
        for n in range(7, bijection_hi + 1, 2):
            mapped = sorted(
                decomposition_to_xy(p, q, r, n) for p, q, r in oracle_triples(n)
            )
            if mapped != sorted((w.x, w.y) for w in ternary_solutions(n, table)):
                bad += 1
        return missing == 0 and bad == 0, f"{missing} missing, {bad} bijection"

    def proposition_sweep():
        bad = sum(
            1
            for n in range(7, proposition_hi + 1, 2)
            if not proposition_check(n, table)
            or first_peculiar_witness(n, table) is None
        )
        return bad == 0, f"odd (5, {proposition_hi}], {bad} failures"

    def determinism():
        serial = run_sweep("binary", 2, determinism_hi, SweepOptions(threads=1), table=table)
        pooled = run_sweep(
            "binary", 2, determinism_hi, SweepOptions(threads=8), table=table
        )
        same = emit_report(serial, "json") == emit_report(pooled, "json")
        return same, f"[2, {determinism_hi}] x 1 vs 8 threads"

    def arithmetic_functions():
        gcd = math.gcd
        bad = 0
        for a in range(1, arith_hi + 1):
            if table.phi(a) != sum(1 for k in range(1, a + 1) if gcd(k, a) == 1):
                bad += 1
            if (table.nu(a) == 1) != oracle_is_prime(a):
                bad += 1
            if (table.phi(a) == a - 1) != (table.nu(a) == 1):
                bad += 1
        return bad == 0, f"[1, {arith_hi}], {bad} mismatches"

    check("certification equivalence", certification_equivalence)
    check("solution count identity", bertrand_identity)
    check("pair forms: sieve / congruence / raw", three_routes)
    check("pair witness sweep", binary_sweep)
    check("pair-count oracle samples", pair_count_oracle)
    check("triple sweep and oracle bijection", ternary_sweep_and_bijection)
    check("triple-with-3 equivalence sweep", proposition_sweep)
    check("worker-count determinism", determinism)
    check("arithmetic functions vs definitions", arithmetic_functions)

    failed = [name for name, ok, _, _ in results if not ok]
    total = sum(dt for _, _, _, dt in results)
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed, {total:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
