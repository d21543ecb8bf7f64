"""count_table against the per-n count functions it replaces in sweeps."""

import numpy as np
import pytest

from phisystems import goldbach
from phisystems.certify import certify_block
from phisystems.goldbach import (
    binary_count,
    count_table,
    fermat_system_solutions,
    peculiar_count,
    ternary_count,
)
from phisystems.sweep import SweepOptions, emit_report, run_sweep

from conftest import child_peak_rss, report_columns, row_columns

BINARY_HI = 20_000
TERNARY_HI = 2001
PECULIAR_HI = 20_000


def test_binary_table_matches_per_n(table):
    counts = count_table("binary", BINARY_HI, table.is_prime_mask)
    assert counts.shape == (BINARY_HI + 1,)
    assert counts[:2].tolist() == [0, 0]
    bad = [n for n in range(2, BINARY_HI + 1) if counts[n] != binary_count(n, table)]
    assert bad == []


def test_binary_table_over_verdicts_matches_fermat_route(table):
    verdicts = certify_block(0, 2 * BINARY_HI - 1, table)
    counts = count_table("binary", BINARY_HI, verdicts)
    bad = [
        n
        for n in range(4, BINARY_HI + 1)
        if counts[n] != len(fermat_system_solutions(n, table, verdicts=verdicts))
    ]
    assert bad == []
    # without verdicts every value is certified afresh, one n at a time
    scalar = [len(fermat_system_solutions(n, table)) for n in range(4, 301)]
    assert counts[4:301].tolist() == scalar


def test_ternary_table_matches_per_n(table):
    counts = count_table("ternary", TERNARY_HI, table.is_prime_mask)
    odd = range(7, TERNARY_HI + 1, 2)
    assert [int(counts[n]) for n in odd] == [ternary_count(n, table) for n in odd]
    others = np.setdiff1d(np.arange(TERNARY_HI + 1), np.array(odd))
    assert not counts[others].any()


def test_peculiar_table_matches_per_n(table):
    counts = count_table("peculiar", PECULIAR_HI, table.is_prime_mask)
    odd = range(7, PECULIAR_HI + 1, 2)
    assert [int(counts[n]) for n in odd] == [peculiar_count(n, table) for n in odd]
    others = np.setdiff1d(np.arange(PECULIAR_HI + 1), np.array(odd))
    assert not counts[others].any()


def test_edges(table):
    # 4 = 2 + 2 and 6 = 3 + 3; 7 = 2 + 3 + 2; 9 = 3 + 3 + 3 = 2 + 5 + 2
    binary = count_table("binary", 3, table.is_prime_mask)
    assert binary.tolist() == [0, 0, 1, 1]
    assert binary_count(2, table) == binary_count(3, table) == 1
    ternary = count_table("ternary", 9, table.is_prime_mask)
    assert ternary[7] == ternary_count(7, table) == 1
    assert ternary[9] == ternary_count(9, table) == 2
    peculiar = count_table("peculiar", 9, table.is_prime_mask)
    assert peculiar[7] == peculiar_count(7, table) == 1
    assert peculiar[9] == peculiar_count(9, table) == 1


@pytest.mark.parametrize("task", ["binary", "ternary", "peculiar"])
def test_tiny_ranges(table, task):
    for hi in range(12):
        counts = count_table(task, hi, table.is_prime_mask)
        assert counts.shape == (hi + 1,)
        wider = count_table(task, 11, table.is_prime_mask)
        assert counts.tolist() == wider[: hi + 1].tolist()


def test_rejects_bad_arguments(table):
    with pytest.raises(ValueError):
        count_table("bertrand", 10, table.is_prime_mask)
    with pytest.raises(ValueError):
        count_table("ternary", -1, table.is_prime_mask)
    with pytest.raises(ValueError):
        count_table("binary", table.limit // 2 + 1, table.is_prime_mask)
    with pytest.raises(ValueError):
        count_table("peculiar", table.limit + 1, table.is_prime_mask)
    # a mask must reach 2 hi - 1 for pairs and hi for triples
    for task, hi, top in [("binary", 10, 19), ("ternary", 11, 11), ("peculiar", 9, 9)]:
        count_table(task, hi, table.is_prime_mask[: top + 1])
        with pytest.raises(ValueError):
            count_table(task, hi, table.is_prime_mask[:top])


def test_memory_budget():
    # what the sweep's budget counts for a count table bounds the RSS it
    # adds beside its mask; hi is just below a power of two for triples
    # and half of one for pairs, where the FFT is shortest beside the
    # arrays sized by hi
    for task, hi in [
        ("binary", 2**19 - 1001),
        ("ternary", 2**20 - 1001),
        ("peculiar", 2**20 - 1001),
    ]:
        mask = f"from phisystems import arith, goldbach; m = arith.build_spf({2 * hi})"
        _, alone, _ = child_peak_rss(["-c", mask + ".is_prime_mask"])
        code = f"{mask}.is_prime_mask; goldbach.count_table({task!r}, {hi}, m)"
        _, peak, _ = child_peak_rss(["-c", code])
        counted, what = goldbach._count_table_bytes(task, hi)
        assert what == "FFT convolution of length 1048576"
        # the convolution alone takes 32-33 bytes per point
        assert 32 * 2**20 <= peak - alone <= counted, (task, peak - alone, counted)


def test_inexact_convolution_raises(table, monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ArithmeticError, match="nearest integer"):
        count_table("binary", 100, table.is_prime_mask)


def test_miscounted_convolution_raises(table, monkeypatch):
    # off by a whole unit at one place: rounding looks exact, the sum does not
    irfft = np.fft.irfft

    def off_by_one(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[10] += 1.0
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_one)
    with pytest.raises(ArithmeticError, match="sum"):
        count_table("peculiar", 100, table.is_prime_mask)


@pytest.mark.parametrize(
    "task,lo,hi", [("binary", 2, 3000), ("ternary", 7, 601), ("peculiar", 7, 3001)]
)
def test_sweep_counts_match_per_n_on_any_worker_count(
    table, reference_rows, pooled, task, lo, hi
):
    started = pooled(2, 64)  # 298 to 2999 n in 5 to 47 chunks
    serial = run_sweep(task, lo, hi, SweepOptions(threads=1), table=table)
    parallel = run_sweep(task, lo, hi, SweepOptions(threads=2), table=table)
    assert started == [2]
    assert emit_report(serial, "json") == emit_report(parallel, "json")
    expected = reference_rows(task, lo, hi, SweepOptions())
    assert report_columns(serial) == row_columns(task, expected)
    assert serial.failures == ()


def test_sweep_count_mode_skips_per_n_counts(table, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-n function called in a count-mode sweep")

    for name in (
        "binary_count",
        "ternary_count",
        "peculiar_count",
        "fermat_system_solutions",
        "first_binary_witness",
    ):
        monkeypatch.setattr(goldbach, name, refuse)
    assert run_sweep("binary", 2, 50, table=table).failures == ()
    assert run_sweep("ternary", 7, 51, table=table).failures == ()
    assert run_sweep("peculiar", 7, 51, table=table).failures == ()
    via_fermat = SweepOptions(via_fermat=True)
    assert run_sweep("binary", 4, 50, via_fermat, table=table).failures == ()
