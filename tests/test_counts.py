"""count_table against the per-n count functions it replaces in sweeps, and
the two count routes of a sweep against each other."""

from dataclasses import replace

import numpy as np
import pytest

from phisystems import goldbach, sweep
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


# (task, via_fermat) of the routes that count narrow ranges one n at a time
PER_N_ROUTES = [("binary", False), ("binary", True), ("peculiar", False)]
# ranges of 1, 2 and 5 n from n = 2, 3, 4, 7 and 9, both parities of each
# end, and a few higher up, where the p = 3 branch of peculiar counts too
NARROW = [(lo, lo + width - 1) for lo in (2, 3, 4, 7, 9) for width in (1, 2, 5)]
NARROW += [(8, 8), (8, 9), (9, 15), (1000, 1000), (1001, 1001), (1000, 1004)]


def _route_reports(task, lo, hi, via_fermat, table, monkeypatch, fft_bytes=None):
    """The report of a count sweep, with its elapsed time zeroed, and whether
    count_table ran; fft_bytes, when given, replaces the cost rule's constant."""
    calls = []
    honest = goldbach.count_table

    def recording(*args):
        calls.append(args)
        return honest(*args)

    with monkeypatch.context() as patch:
        if fft_bytes is not None:
            patch.setattr(sweep, "_FFT_BYTES", fft_bytes)
        patch.setattr(goldbach, "count_table", recording)
        report = run_sweep(task, lo, hi, SweepOptions(via_fermat=via_fermat), table=table)
    return replace(report, elapsed=0.0), bool(calls)


def _rendered(report):
    return [emit_report(report, fmt) for fmt in ("json", "csv", "table", "counts")]


def _assert_routes_agree(task, lo, hi, via_fermat, table, monkeypatch, expected_fft):
    """The sweep's own route is the expected one, and it renders every format
    and the counts file byte for byte as count_table's route does. A range
    without eligible n may take either."""
    own, fft = _route_reports(task, lo, hi, via_fermat, table, monkeypatch)
    assert fft == expected_fft or not own.checked, (task, lo, hi, via_fermat)
    reference, fft = _route_reports(task, lo, hi, via_fermat, table, monkeypatch, 0)
    assert fft
    assert _rendered(own) == _rendered(reference), (task, lo, hi, via_fermat)
    assert own.failures == reference.failures


@pytest.mark.parametrize("task, via_fermat", PER_N_ROUTES)
def test_narrow_count_ranges_match_count_table(table, monkeypatch, task, via_fermat):
    for lo, hi in NARROW:
        _assert_routes_agree(task, lo, hi, via_fermat, table, monkeypatch, False)
    # a wide range counted one n at a time, against the cost rule
    per_n, fft = _route_reports(task, 2, 3000, via_fermat, table, monkeypatch, 10**9)
    reference, _ = _route_reports(task, 2, 3000, via_fermat, table, monkeypatch, 0)
    assert not fft
    assert _rendered(per_n) == _rendered(reference)


def _per_n_rows(task, hi):
    """The most rows ending at hi that the cost rule counts one n at a time."""
    step = 2 if task == "peculiar" else 1
    rows = 1
    while sweep._per_n_count(task, range(hi - rows * step, hi + 1, step), hi):
        rows += 1  # rows + 1 n ending at hi are counted one at a time
    return rows


@pytest.mark.parametrize("task, via_fermat", PER_N_ROUTES)
@pytest.mark.parametrize("hi", [3000, 3001, 20_000, 20_001])
def test_count_routes_agree_across_the_crossover(
    table, monkeypatch, task, via_fermat, hi
):
    if task == "peculiar" and hi % 2 == 0:
        hi -= 1  # peculiar's n are odd: 2999 and 19999 stand in
    step = 2 if task == "peculiar" else 1
    rows = _per_n_rows(task, hi)
    assert 1 < rows < 500
    for k, expected_fft in [(rows - 1, False), (rows, False), (rows + 1, True)]:
        lo = hi - (k - 1) * step
        _assert_routes_agree(task, lo, hi, via_fermat, table, monkeypatch, expected_fft)
