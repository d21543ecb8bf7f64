"""count_table against the per-n count functions it replaces in sweeps."""

import numpy as np
import pytest

from phisystems import goldbach
from phisystems.arith import MemoryBudgetError
from phisystems.goldbach import (
    binary_count,
    count_table,
    first_binary_witness,
    first_peculiar_witness,
    first_ternary_witness,
    peculiar_count,
    ternary_count,
)
from phisystems.sweep import SweepOptions, emit_report, run_sweep

BINARY_HI = 20_000
TERNARY_HI = 2001
PECULIAR_HI = 20_000


def test_binary_table_matches_per_n(table):
    counts = count_table("binary", BINARY_HI, table)
    assert counts.shape == (BINARY_HI + 1,)
    assert counts[:2].tolist() == [0, 0]
    bad = [n for n in range(2, BINARY_HI + 1) if counts[n] != binary_count(n, table)]
    assert bad == []


def test_ternary_table_matches_per_n(table):
    counts = count_table("ternary", TERNARY_HI, table)
    odd = range(7, TERNARY_HI + 1, 2)
    assert [int(counts[n]) for n in odd] == [ternary_count(n, table) for n in odd]
    others = np.setdiff1d(np.arange(TERNARY_HI + 1), np.array(odd))
    assert not counts[others].any()


def test_peculiar_table_matches_per_n(table):
    counts = count_table("peculiar", PECULIAR_HI, table)
    odd = range(7, PECULIAR_HI + 1, 2)
    assert [int(counts[n]) for n in odd] == [peculiar_count(n, table) for n in odd]
    others = np.setdiff1d(np.arange(PECULIAR_HI + 1), np.array(odd))
    assert not counts[others].any()


def test_edges(table):
    # 4 = 2 + 2 and 6 = 3 + 3; 7 = 2 + 3 + 2; 9 = 3 + 3 + 3 = 2 + 5 + 2
    binary = count_table("binary", 3, table)
    assert binary.tolist() == [0, 0, 1, 1]
    assert binary_count(2, table) == binary_count(3, table) == 1
    ternary = count_table("ternary", 9, table)
    assert ternary[7] == ternary_count(7, table) == 1
    assert ternary[9] == ternary_count(9, table) == 2
    peculiar = count_table("peculiar", 9, table)
    assert peculiar[7] == peculiar_count(7, table) == 1
    assert peculiar[9] == peculiar_count(9, table) == 1


@pytest.mark.parametrize("task", ["binary", "ternary", "peculiar"])
def test_tiny_ranges(table, task):
    for hi in range(12):
        counts = count_table(task, hi, table)
        assert counts.shape == (hi + 1,)
        assert counts.tolist() == count_table(task, 11, table)[: hi + 1].tolist()


def test_rejects_bad_arguments(table):
    with pytest.raises(ValueError):
        count_table("bertrand", 10, table)
    with pytest.raises(ValueError):
        count_table("ternary", -1, table)
    with pytest.raises(ValueError):
        count_table("binary", table.limit // 2 + 1, table)
    with pytest.raises(ValueError):
        count_table("peculiar", table.limit + 1, table)


def test_memory_budget(table):
    # a length-2^15 FFT counts 6 * 8 * 2^15 bytes of buffers
    with pytest.raises(MemoryBudgetError):
        count_table("peculiar", 10_000, table, memory_budget=6 * 8 * 2**15 - 1)
    assert count_table("peculiar", 10_000, table, memory_budget=6 * 8 * 2**15).any()


def test_inexact_convolution_raises(table, monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ArithmeticError, match="nearest integer"):
        count_table("binary", 100, table)


def test_miscounted_convolution_raises(table, monkeypatch):
    # off by a whole unit at one place: rounding looks exact, the sum does not
    irfft = np.fft.irfft

    def off_by_one(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[10] += 1.0
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_one)
    with pytest.raises(ArithmeticError, match="sum"):
        count_table("peculiar", 100, table)


def _per_n_rows(task, lo, hi, table):
    if task == "binary":
        rows = []
        for n in range(lo, hi + 1):
            w = first_binary_witness(n, table)
            rows.append((n, binary_count(n, table), w.x if w else None))
        return rows
    count, first = {
        "ternary": (ternary_count, first_ternary_witness),
        "peculiar": (peculiar_count, first_peculiar_witness),
    }[task]
    rows = []
    for n in range(lo, hi + 1, 2):
        w = first(n, table)
        rows.append((n, count(n, table), (w.x, w.y) if w else None))
    return rows


@pytest.mark.parametrize(
    "task,lo,hi", [("binary", 2, 3000), ("ternary", 7, 601), ("peculiar", 7, 3001)]
)
def test_sweep_counts_match_per_n_on_any_worker_count(table, task, lo, hi):
    serial = run_sweep(task, lo, hi, SweepOptions(threads=1), table=table)
    pooled = run_sweep(
        task, lo, hi, SweepOptions(threads=2, chunk_size=97), table=table
    )
    assert emit_report(serial, "json") == emit_report(pooled, "json")
    assert list(serial.per_n) == _per_n_rows(task, lo, hi, table)
    assert serial.failures == ()


def test_sweep_count_mode_skips_per_n_counts(table, monkeypatch):
    def refuse(n, table):
        raise AssertionError("per-n count called in a count-mode sweep")

    for name in ("binary_count", "ternary_count", "peculiar_count"):
        monkeypatch.setattr(goldbach, name, refuse)
    assert run_sweep("binary", 2, 50, table=table).failures == ()
    assert run_sweep("ternary", 7, 51, table=table).failures == ()
    assert run_sweep("peculiar", 7, 51, table=table).failures == ()
