import concurrent.futures
import json
import math
import os
import random
import sys
import tracemalloc
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phisystems import bertrand, goldbach, oracle, sweep
from phisystems.arith import PrimePi, SpfTable, build_spf
from phisystems.certify import certify
from phisystems.sweep import (
    CSV_HEADER,
    TASKS,
    RangeReport,
    SweepOptions,
    emit_report,
    run_sweep,
)

from conftest import report_columns, row_columns

# The per-row renderer that the columnar writer replaced, kept here as the
# independent side of the writer tests: f-strings and json.dumps of tuples.
def _reference_cell(fw) -> str:
    if fw is None:
        return ""
    if isinstance(fw, tuple):
        return f"{fw[0]}:{fw[1]}"
    return str(fw)


def reference_bytes(task, lo, hi, rows, failures, config, fmt, elapsed=0.0) -> bytes:
    """rows, (n, count, first witness) tuples, rendered one row at a time."""
    if fmt == "json":
        obj = {
            "task": task,
            "range": [lo, hi],
            "checked": len(rows),
            "failures": failures,
            "config": config,
            "per_n": rows,  # json writes tuples as arrays
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    if fmt == "counts":
        lines = ["n,witness_count", *(f"{n},{c}" for n, c, _ in rows)]
    elif fmt == "csv":
        lines = [CSV_HEADER, *(f"{n},{c},{_reference_cell(fw)}" for n, c, fw in rows)]
    else:
        lines = [
            f"task: {task}   range: [{lo}, {hi}]   checked: {len(rows)}   "
            f"failures: {len(failures)}   elapsed: {elapsed:.3f}s"
        ]
        if rows:
            wn = max(len(str(n)) for n, _, _ in rows)
            wc = max(len("witnesses"), max(len(str(c)) for _, c, _ in rows))
            lines.append(f"{'n':>{wn}}  {'witnesses':>{wc}}  first")
            lines += [f"{n:>{wn}}  {c:>{wc}}  {_reference_cell(fw)}" for n, c, fw in rows]
        if failures:
            shown = ", ".join(str(n) for n in failures[:50])
            more = "" if len(failures) <= 50 else ", ..."
            lines.append(f"failures: {shown}{more}")
    return "".join(f"{line}\n" for line in lines).encode()


def columns_report(task, lo, hi, ns, cells, failures=(), config=None, elapsed=0.0):
    """A RangeReport whose columns hold the (count, first witness) cells
    of the n of ns."""
    _, count, x, y = row_columns(task, [(n, c, fw) for n, (c, fw) in zip(ns, cells)])
    return RangeReport(
        task,
        lo,
        hi,
        ns,
        np.array(count, dtype=np.int64),
        np.array(x, dtype=np.int64),
        tuple(failures),
        config or {},
        y=None if y is None else np.array(y, dtype=np.int64),
        elapsed=elapsed,
    )


def test_binary_sweep_example(table):
    report = run_sweep("binary", 2, 1000, table=table)
    assert report.failures == ()
    assert report.checked == 999
    assert (report.ns[0], report.count[0], report.x[0]) == (2, 1, 0)


def test_bertrand_single_n_example(table):
    report = run_sweep("bertrand", 4, 4, table=table)
    assert report_columns(report) == ([4], [1], [1], None)
    assert report.failures == ()


def test_ternary_single_n_example(table):
    report = run_sweep("ternary", 7, 7, table=table)
    assert report_columns(report) == ([7], [1], [5], [0])


def test_csv_header_and_row(table):
    report = run_sweep("binary", 2, 10, table=table)
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[4] == "5,2,0"  # n=5: two splits, first at x=0


def test_ternary_csv_pair_cell(table):
    report = run_sweep("ternary", 7, 9, table=table)
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[1] == "7,1,5:0"


def test_json_round_trip(table):
    report = run_sweep("ternary", 7, 99, table=table)
    assert json.loads(emit_report(report, "json")) == {
        "task": "ternary",
        "range": [7, 99],
        "checked": report.checked,
        "failures": list(report.failures),
        "config": report.config,
        "per_n": [[n, c, [x, y]] for n, c, x, y in zip(*report_columns(report))],
    }


def test_json_excludes_timing(table):
    report = run_sweep("binary", 2, 50, table=table)
    assert report.elapsed > 0
    assert b"elapsed" not in emit_report(report, "json")
    assert b"elapsed" not in emit_report(report, "csv")


def test_counts_identical_across_formats(table):
    report = run_sweep("binary", 2, 60, table=table)
    csv_counts = [
        int(line.split(",")[1])
        for line in emit_report(report, "csv").decode().splitlines()[1:]
    ]
    json_counts = [c for _, c, _ in json.loads(emit_report(report, "json"))["per_n"]]
    assert csv_counts == json_counts == report.count.tolist()


BINARY_2_40_TABLE = """\
task: binary   range: [2, 40]   checked: 39   failures: 0   elapsed: 0.000s
 n  witnesses  first
 2          1  0
 3          1  0
 4          1  1
 5          2  0
 6          1  1
 7          2  0
 8          2  3
 9          2  2
10          2  3
11          3  0
12          3  1
13          3  0
14          2  3
15          3  2
16          2  3
17          4  0
18          4  1
19          2  0
20          3  3
21          4  2
22          3  9
23          4  0
24          5  5
25          4  6
26          3  3
27          5  4
28          3  9
29          4  0
30          6  1
31          3  0
32          5  9
33          6  4
34          2  3
35          5  6
36          6  5
37          5  0
38          5  9
39          7  2
40          4  3
"""
TERNARY_7_21_TABLE = """\
task: ternary   range: [7, 21]   checked: 8   failures: 0   elapsed: 0.000s
 n  witnesses  first
 7          1  5:0
 9          2  6:0
11          3  7:1
13          4  8:0
15          5  9:1
17          7  10:0
19          7  11:3
21         10  12:2
"""
CERTIFY_2_12_TABLE = """\
task: certify   range: [2, 12]   checked: 11   failures: 0   elapsed: 0.000s
 n  witnesses  first
 2          1  Prime
 3          1  Prime
 4          1  Composite
 5          1  Prime
 6          1  Composite
 7          1  Prime
 8          1  Composite
 9          1  Composite
10          1  Composite
11          1  Prime
12          1  Composite
"""


@pytest.mark.parametrize(
    "task,lo,hi,expected",
    [
        ("binary", 2, 40, BINARY_2_40_TABLE),
        ("ternary", 7, 21, TERNARY_7_21_TABLE),
        ("certify", 2, 12, CERTIFY_2_12_TABLE),
    ],
)
def test_table_bytes(table, task, lo, hi, expected):
    report = replace(run_sweep(task, lo, hi, table=table), elapsed=0.0)
    assert emit_report(report, "table") == expected.encode()


def test_table_bytes_without_rows_and_with_many_failures():
    empty = columns_report("binary", 10, 9, range(10, 10), [])
    assert emit_report(empty, "table") == (
        b"task: binary   range: [10, 9]   checked: 0   failures: 0   elapsed: 0.000s\n"
    )
    # past fifty failures the list ends in ", ..."
    failed = columns_report(
        "peculiar", 7, 200, range(7, 7), [], failures=tuple(range(7, 200, 2))
    )
    shown = ", ".join(str(n) for n in range(7, 106, 2))
    assert emit_report(failed, "table") == (
        "task: peculiar   range: [7, 200]   checked: 0   failures: 97   "
        f"elapsed: 0.000s\nfailures: {shown}, ...\n"
    ).encode()


# every digit count from 1 to 19 has a value here, with its neighbours
EDGE_VALUES = [0, 1, 9, 10, 99, 100, 2**31 - 1, 2**31, 2**31 + 1, 10**18, 2**63 - 1]
ROW_SLICE = sweep._ROW_SLICE
# the task whose rows carry each kind of first-witness cell
KIND_TASKS = {"int": "binary", "pair": "ternary", "verdict": "certify"}
FORMATS = ("json", "csv", "table", "counts")


def _fw_values(kind):
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**63 - 1))
    if kind == "int":
        return values
    if kind == "pair":
        return st.tuples(values, values)
    return st.sampled_from(sweep._VERDICT_NAMES)


def _assert_writer_matches_reference(task, lo, hi, ns, cells, failures, elapsed):
    config = {"first_witness_only": False}
    report = columns_report(task, lo, hi, ns, cells, failures, config, elapsed)
    rows = [(n, c, fw) for n, (c, fw) in zip(ns, cells)]
    for fmt in FORMATS:
        expected = reference_bytes(task, lo, hi, rows, failures, config, fmt, elapsed)
        assert emit_report(report, fmt) == expected, fmt


@pytest.mark.parametrize("kind", KIND_TASKS)
@pytest.mark.parametrize(
    # four slices: the last one short by a row, full, and a single row
    "rows", [0, 1, 4 * ROW_SLICE - 1, 4 * ROW_SLICE, 4 * ROW_SLICE + 1]
)
def test_writer_matches_per_row_reference(kind, rows):
    rng = random.Random(f"{kind}:{rows}")
    choices = {
        "int": EDGE_VALUES + [None],
        "pair": [(x, y) for x in EDGE_VALUES for y in EDGE_VALUES] + [None],
        "verdict": [*sweep._VERDICT_NAMES, None],
    }[kind]
    cells = [(rng.choice(EDGE_VALUES), rng.choice(choices)) for _ in range(rows)]
    # n crosses the digit counts of [0, ROW_SLICE], or runs past 2^31 by 2s
    start, step = {"int": (0, 1), "pair": (2**31 - 11, 2), "verdict": (95, 1)}[kind]
    ns = range(start, start + step * rows, step)
    failures = tuple(ns[:60:3])
    _assert_writer_matches_reference(KIND_TASKS[kind], 0, 9, ns, cells, failures, 1.5)


@given(st.data())
def test_writer_matches_per_row_reference_on_any_cells(data):
    kind = data.draw(st.sampled_from(sorted(KIND_TASKS)))
    fw = st.one_of(st.none(), _fw_values(kind))
    count = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**63 - 1))
    cells = data.draw(st.lists(st.tuples(count, fw), max_size=30))
    start = data.draw(st.one_of(st.sampled_from(EDGE_VALUES[:-1]), st.integers(0, 2**62)))
    step = data.draw(st.sampled_from([1, 2]))
    ns = range(start, start + step * len(cells), step)
    failures = tuple(data.draw(st.lists(st.integers(0, 2**62), max_size=60)))
    elapsed = data.draw(st.floats(0, 1e6))
    task = KIND_TASKS[kind]
    _assert_writer_matches_reference(task, start, start + 9, ns, cells, failures, elapsed)


U8, I32, I64 = np.uint8, np.int32, np.int64
# the dtypes of (count, x[, y]) of each route below 2^31, in count and in
# first-witness mode: 0/1 flags and verdicts are uint8, witnesses and the
# counts of pairs and of primes int32, triple counts int64
COLUMN_DTYPES = {
    "certify": ((U8, U8), (U8, U8)),
    "bertrand": ((I32, I32), (U8, I32)),
    "binary": ((I32, I32), (U8, I32)),
    "binary --via-fermat": ((I32, I32), (U8, I32)),
    "ternary": ((I64, I32, I32), (U8, I32, I32)),
    "peculiar": ((I64, I32, I32), (U8, I32, I32)),
    "proposition": ((U8, I32, I32), (U8, I32, I32)),
}


def _route_options(route, first_witness_only):
    task = route.split()[0]
    return task, SweepOptions(first_witness_only, via_fermat=route != task)


@pytest.mark.parametrize("first_witness_only", [False, True])
@pytest.mark.parametrize("route", COLUMN_DTYPES)
def test_columns_take_their_dtypes(table, route, first_witness_only):
    task, options = _route_options(route, first_witness_only)
    lo, hi = SMALL_RANGES[task][0], 1500
    report = run_sweep(task, lo, hi, options, table=table)
    columns = [report.count, report.x] + ([] if report.y is None else [report.y])
    want = COLUMN_DTYPES[route][first_witness_only]
    assert [c.dtype for c in columns] == [np.dtype(d) for d in want]
    # n and every column cross 9/10, 99/100 and 999/1000 here; the same
    # values at int64 render the same bytes
    wide = replace(
        report,
        count=report.count.astype(np.int64),
        x=report.x.astype(np.int64),
        y=None if report.y is None else report.y.astype(np.int64),
    )
    for fmt in FORMATS:
        assert emit_report(report, fmt) == emit_report(wide, fmt), fmt


@pytest.mark.parametrize("route", COLUMN_DTYPES)
def test_column_dtypes_widen_at_2_31(route):
    spec = sweep._SPECS[route]
    assert sweep._value_dtype(2**31 - 1) is np.int32
    assert sweep._value_dtype(2**31) is np.int64
    for first_witness_only in (False, True):
        options = _route_options(route, first_witness_only)[1]
        want = COLUMN_DTYPES[route][first_witness_only]
        assert sweep._dtypes(spec, 2**31 - 1, options) == list(want)
        wider = [I64 if d is I32 else d for d in want]
        assert sweep._dtypes(spec, 2**31, options) == wider


# the digit counts' edges a value of an int32 column can take, and -1
NARROW_EDGES = [0, 1, 9, 10, 99, 100, 2**31 - 1]


@pytest.mark.parametrize("first_witness_only", [False, True])
@pytest.mark.parametrize("route", COLUMN_DTYPES)
def test_narrow_columns_match_the_int64_reference(route, first_witness_only):
    # rows at the dtypes a sweep to 2^31 - 1 gives them, with -1 cells,
    # render the per-row reference's bytes, table pads included
    task, options = _route_options(route, first_witness_only)
    dtypes = sweep._dtypes(sweep._SPECS[route], 2**31 - 1, options)
    rng = random.Random(f"{route}:{first_witness_only}")

    def values(dtype, rows):
        edges = [0, 1] if dtype is U8 else NARROW_EDGES
        return [rng.choice(edges) for _ in range(rows)]

    for ns in (range(0, 300), range(2**31 - 599, 2**31, 2)):
        count = values(dtypes[0], len(ns))
        x = values(dtypes[1], len(ns))
        if dtypes[1] is not U8:  # a verdict is always found
            x = [v if rng.random() < 0.8 else -1 for v in x]
        y = values(dtypes[-1], len(ns))
        if task == "certify":
            fws = [sweep._VERDICT_NAMES[v] for v in x]
        elif len(dtypes) == 3:
            fws = [None if a < 0 else (a, b) for a, b in zip(x, y)]
        else:
            fws = [None if a < 0 else a for a in x]
        columns = [np.array(v, d) for v, d in zip((count, x, y), dtypes)]
        report = RangeReport(
            task, ns[0], ns[-1], ns, *columns[:2], (), options.config(), *columns[2:]
        )
        rows = list(zip(ns, count, fws))
        for fmt in FORMATS:
            expected = reference_bytes(
                task, ns[0], ns[-1], rows, (), options.config(), fmt
            )
            assert emit_report(report, fmt) == expected, fmt


def reference_certificate(m, primes, full_checks, fmt) -> bytes:
    """The certificate of m over primes, the primes p <= isqrt(m), rendered
    one check at a time as the renderer the writer replaced did: json.dumps
    of a dict per check, or f-strings. The residues come from pow here."""
    checks = []
    for p in primes:
        checks.append((p, pow(m, p - 1, p)))
        if checks[-1][1] != 1 and not full_checks:
            break
    failing = next((p for p, r in checks if r != 1), None)
    verdict = "Prime" if failing is None else "Composite"
    if fmt == "json":
        obj = {
            "subject": m,
            "verdict": verdict,
            "failing_modulus": failing,
            "checks": [
                {"modulus": p, "base": m, "exponent": p - 1, "residue": r} for p, r in checks
            ],
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        lines = ["modulus,base,exponent,residue", *(f"{p},{m},{p - 1},{r}" for p, r in checks)]
    else:
        lines = [
            f"subject: {m}",
            f"verdict: {verdict}",
            f"congruences over primes p <= isqrt({m}) = {math.isqrt(m)}:",
        ]
        if not checks:
            lines.append("  (empty system)")
        for p, r in checks:
            lines.append(f"  {m}^{p - 1} mod {p} = {r}" + ("" if r == 1 else "   <- fails"))
        if failing is not None:
            lines.append(f"failing modulus: {failing}")
    return "".join(f"{line}\n" for line in lines).encode()


def _assert_certificate_matches_reference(m, table, full_checks):
    cert = certify(m, table, full_checks=full_checks)
    primes = table.prime_list[: bisect_right(table.prime_list, math.isqrt(m))]
    for fmt in ("json", "csv", "table"):
        got = b"".join(sweep._certificate_slices(cert, fmt))
        assert got == reference_certificate(m, primes, full_checks, fmt), fmt


# 2 * 3 * 5 * 7 * 11 * 13 * 17 * 1958887, which 23 divides too: eight
# failing moduli among 78,499 checks, several slices of 2^14 rows, as the
# 78,498 of 10^12 + 39 are
MANY_FAILURES = 510_510 * 1_958_887


@pytest.mark.parametrize(
    "m, full_checks",
    [
        (2, False),
        (49, False),
        (45, True),
        (10**12 + 39, False),
        (MANY_FAILURES, True),
        (MANY_FAILURES, False),
    ],
)
def test_certificate_writer_matches_reference(wide_table, m, full_checks):
    _assert_certificate_matches_reference(m, wide_table, full_checks)


@pytest.mark.parametrize("rows", [1, 7])
def test_certificate_slices_of_any_size(table, monkeypatch, rows):
    monkeypatch.setattr(sweep, "_ROW_SLICE", rows)
    for m, full_checks in [(2, True), (45, True), (1_000_003, False), (30_030 * 997, True)]:
        _assert_certificate_matches_reference(m, table, full_checks)


def test_text_renderers_peak_near_their_output():
    # a renderer holds its output and at most about as much again, never a
    # list of every line besides the text
    report = run_sweep("binary", 2, 200_001, SweepOptions(first_witness_only=True))
    renderers = {
        "csv": lambda: emit_report(report, "csv"),
        "table": lambda: emit_report(report, "table"),
        "counts": lambda: emit_report(report, "counts"),
    }
    ratios = {}
    for name, render in renderers.items():
        tracemalloc.start()
        try:
            data = render()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratios[name] = peak / len(data)
    assert max(ratios.values()) <= 3, ratios


def test_emit_counts(table):
    report = run_sweep("binary", 2, 6, table=table)
    assert emit_report(report, "counts").decode().splitlines() == [
        "n,witness_count",
        "2,1",
        "3,1",
        "4,1",
        "5,2",
        "6,1",
    ]


def test_deterministic_across_worker_counts(table, pooled):
    started = pooled(4, 256)  # 1999 n in 8 chunks
    lo, hi = 2, 2000
    serial = run_sweep("binary", lo, hi, SweepOptions(threads=1), table=table)
    assert started == []
    parallel = run_sweep("binary", lo, hi, SweepOptions(threads=4), table=table)
    assert started == [4]
    assert emit_report(serial, "json") == emit_report(parallel, "json")
    assert emit_report(serial, "csv") == emit_report(parallel, "csv")


def test_domain_filtering(table):
    report = run_sweep("ternary", 2, 11, table=table)
    assert list(report.ns) == [7, 9, 11]
    report = run_sweep("bertrand", 0, 5, table=table)
    assert list(report.ns) == [4, 5]
    # via-fermat needs n > 3
    report = run_sweep("binary", 2, 6, SweepOptions(via_fermat=True), table=table)
    assert list(report.ns) == [4, 5, 6]


def test_via_fermat_matches_sieve_route(table):
    direct = run_sweep("binary", 4, 300, table=table)
    fermat = run_sweep("binary", 4, 300, SweepOptions(via_fermat=True), table=table)
    assert report_columns(fermat) == report_columns(direct)


def test_first_witness_mode(table):
    full = run_sweep("peculiar", 7, 301, table=table)
    quick = run_sweep("peculiar", 7, 301, SweepOptions(first_witness_only=True), table=table)
    assert quick.failures == full.failures == ()
    assert (quick.count == 1).all()
    assert quick.ns == full.ns
    assert report_columns(quick)[2:] == report_columns(full)[2:]  # x and y


@pytest.mark.parametrize(
    "task,lo,hi",
    [
        ("certify", 2, 120),
        ("bertrand", 4, 80),
        ("binary", 2, 80),
        ("ternary", 7, 81),
        ("peculiar", 7, 81),
        ("proposition", 7, 81),
    ],
)
def test_verify_against_oracle_smoke(task, lo, hi):
    options = SweepOptions(verify_against_oracle=True)
    report = run_sweep(task, lo, hi, options)
    assert report.failures == ()
    assert (report.count >= 1).all()


@pytest.mark.parametrize(
    "options,lo,limit",
    [
        # pair splits of 2n read the sieve through 2 hi; the oracle reads none
        (SweepOptions(verify_against_oracle=True), 2, 400),
        # certifying values up to 2 hi - 2 reads the primes up to isqrt(2 hi)
        (SweepOptions(via_fermat=True), 4, 20),
    ],
)
def test_binary_sieves_only_what_its_rows_read(options, lo, limit):
    report = run_sweep("binary", lo, 200, options, table=build_spf(limit))
    assert report.failures == ()
    assert report.checked == 200 - lo + 1


SMALL_RANGES = {
    "certify": (2, 120),
    "bertrand": (4, 80),
    "binary": (2, 80),
    "ternary": (7, 81),
    "peculiar": (7, 81),
    "proposition": (7, 81),
}
MODES = {
    "count": SweepOptions(),
    "first-witness": SweepOptions(first_witness_only=True),
    "oracle": SweepOptions(verify_against_oracle=True),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("route", [*TASKS, "binary --via-fermat"])
def test_reports_match_per_n_functions(table, reference_rows, pooled, route, mode):
    started = pooled(2, 16)  # 38 to 119 n in 3 to 8 chunks
    task = route.split()[0]
    lo, hi = SMALL_RANGES[task]
    options = replace(MODES[mode], via_fermat=route != task)
    rows = reference_rows(task, lo, hi, options)
    for threads in (1, 2):
        report = run_sweep(task, lo, hi, replace(options, threads=threads), table=table)
        for fmt in ("json", "csv"):
            expected = reference_bytes(task, lo, hi, rows, (), options.config(), fmt)
            assert emit_report(report, fmt) == expected
    assert started == [2]


WIDE_RANGES = {
    "certify": (2, 20_000),
    "bertrand": (4, 25_000),
    "binary": (2, 25_000),
    # the reference certifies every value afresh for every n
    "binary --via-fermat": (4, 300),
    # the reference counts triples one n at a time
    "ternary": (7, 1501),
    "peculiar": (7, 25_001),
    "proposition": (7, 25_001),
}


@pytest.mark.parametrize("first_witness_only", [False, True])
@pytest.mark.parametrize("route", WIDE_RANGES)
def test_block_rows_match_per_n_functions_wide(
    table, reference_rows, pooled, route, first_witness_only
):
    started = pooled(2, 64)  # 297 to 24999 n in 5 to 391 chunks
    task = route.split()[0]
    lo, hi = WIDE_RANGES[route]
    options = SweepOptions(
        first_witness_only=first_witness_only, via_fermat=route != task
    )
    expected = reference_rows(task, lo, hi, options)
    for threads in (1, 2):
        report = run_sweep(task, lo, hi, replace(options, threads=threads), table=table)
        assert report_columns(report) == row_columns(task, expected)
        assert report.failures == ()
    assert started == [2]


def test_block_rows_skip_per_n_scans(table, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-n scan called in a sweep")

    for name in (
        "_first_pair_y",
        "first_binary_witness",
        "first_peculiar_witness",
        "two_prime_sum_exists",
    ):
        monkeypatch.setattr(goldbach, name, refuse)
    monkeypatch.setattr(bertrand, "first_bertrand_witness", refuse)
    monkeypatch.setattr(bertrand, "bertrand_count", refuse)
    for route in [*TASKS, "binary --via-fermat"]:
        task = route.split()[0]
        lo, hi = (2, 2000) if task == "binary" else SMALL_RANGES[task]
        for first_witness_only in (False, True):
            options = SweepOptions(
                first_witness_only=first_witness_only, via_fermat=route != task
            )
            report = run_sweep(task, lo, hi, options, table=table)
            assert report.failures == ()


def test_sieve_sweeps_leave_the_prime_list_unbuilt():
    # the pair kernel, the proposition's other side, bertrand's rows and the
    # certify blocks, the via-fermat verdicts among them, take their primes
    # from the mask; the Python prime list is left to the ternary fallback
    # and the arithmetic
    routes = ["binary", "peculiar", "proposition", "bertrand", "certify"]
    for route in [*routes, "binary --via-fermat"]:
        task = route.split()[0]
        lo, hi = (2, 2000) if task in ("binary", "certify") else (7, 2001)
        for first_witness_only in (False, True):
            fresh = build_spf(2 * hi)
            options = SweepOptions(
                first_witness_only=first_witness_only, via_fermat=route != task
            )
            report = run_sweep(task, lo, hi, options, table=fresh)
            assert report.failures == ()
            assert "prime_list" not in fresh.__dict__, (route, first_witness_only)


def test_pair_kernel_misses_take_the_fallback_or_fail(
    table, reference_rows, monkeypatch
):
    # the pair kernel reads a mask with no prime above 200, so most n - 3
    # above 400 have no q = 3 pair in it
    sparse = table.is_prime_mask.copy()
    sparse[201:] = False
    honest = goldbach.first_pair_y_block
    monkeypatch.setattr(
        goldbach, "first_pair_y_block", lambda m, mask: honest(m, sparse)
    )
    lo, hi = 7, 1501
    missed = tuple(
        n
        for n in range(lo, hi + 1, 2)
        if goldbach._first_pair_y(n - 3, sparse.data) is None
    )
    assert 0 < len(missed) < len(range(lo, hi + 1, 2))
    for first_witness_only in (False, True):
        options = SweepOptions(first_witness_only=first_witness_only)
        # ternary takes the scan over larger q, which reads the sieve
        ternary = run_sweep("ternary", lo, hi, options, table=table)
        expected = reference_rows("ternary", lo, hi, options)
        assert report_columns(ternary) == row_columns("ternary", expected)
        assert ternary.failures == ()
        # peculiar has no other q, and proposition's other side reads the sieve
        peculiar = run_sweep("peculiar", lo, hi, options, table=table)
        assert peculiar.failures == missed
        proposition = run_sweep("proposition", lo, hi, options, table=table)
        assert proposition.failures == missed
        at = [proposition.ns.index(n) for n in missed]
        assert not proposition.count[at].any() and (proposition.x[at] == -1).all()


def test_worker_count_capped_at_usable_cpus(usable_cpus, monkeypatch):
    usable_cpus(3)
    threads = [-1, 0, 1, 2, 3, 64]
    assert [sweep._worker_count(t) for t in threads] == [1, 1, 1, 2, 3, 3]
    # without CPU affinity the CPU count caps, and one worker when unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [sweep._worker_count(t) for t in threads] == [1, 1, 1, 2, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep._worker_count(64) == 1


@pytest.mark.parametrize(
    "ns", [range(2, 2001), range(7, 5001, 2), range(7, 10, 2), range(9, 9)]
)
def test_chunks_split_the_range_in_order(ns, monkeypatch):
    for width in (1, 2, 3, 64, 1 << 17):
        monkeypatch.setattr(sweep, "_CHUNK", width)
        chunks = sweep._chunks(ns)
        assert [n for chunk in chunks for n in chunk] == list(ns)
        # width n in every chunk but the last, which may be shorter
        assert len(chunks) == -(-len(ns) // width)
        assert all(len(chunk) == width for chunk in chunks[:-1])


def test_one_worker_runs_its_chunks_in_process(table, usable_cpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep started a pool")

    drawn = []
    usable_cpus(2)
    # run_sweep imports the pool class where it starts one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(sweep, "_progress", lambda done, total: drawn.append(done))
    options = SweepOptions(first_witness_only=True)
    # 999 n fit one chunk, on any worker count
    for threads in (1, 2):
        run_sweep("binary", 2, 1000, replace(options, threads=threads), table=table)
        assert drawn == [1]
        drawn.clear()
    # one worker runs chunks of 400, 400 and 199 n here too
    monkeypatch.setattr(sweep, "_CHUNK", 400)
    run_sweep("binary", 2, 1000, options, table=table)
    assert drawn == [1, 2, 3]


@pytest.fixture
def cold_oracle(monkeypatch):
    """An empty trial-division prime cache, the module's own put back after."""
    monkeypatch.setattr(oracle, "_known_upto", 1)
    monkeypatch.setattr(oracle, "_known_primes", [])
    monkeypatch.setattr(oracle, "_known_set", set())


def test_oracle_sweep_on_threads_from_a_cold_cache(table, pooled, cold_oracle):
    # bertrand's oracle reads the cached prime list, so a list grown by two
    # chunks at once, with repeats or out of order, miscounts
    started = pooled(2, 16)  # 2997 n in 188 chunks
    options = SweepOptions(verify_against_oracle=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the interpreter lock often
    try:
        parallel = run_sweep("bertrand", 4, 3000, replace(options, threads=2), table=table)
    finally:
        sys.setswitchinterval(interval)
    assert started == [2]
    # 2n - 3 at n = 3000 is the largest limit the oracle takes
    assert oracle._known_primes == table.prime_list[: bisect_right(table.prime_list, 5997)]
    serial = run_sweep("bertrand", 4, 3000, options, table=table)
    assert parallel.failures == serial.failures == ()
    assert emit_report(parallel, "csv") == emit_report(serial, "csv")


def test_oracle_cache_is_grown_before_the_chunks(table, pooled, cold_oracle, monkeypatch):
    pooled(2, 64)  # 2997 n in 47 chunks
    entries = []
    honest = sweep._compute_chunk

    def recording(spec, options, rt, ns):
        entries.append(oracle._known_upto)
        return honest(spec, options, rt, ns)

    monkeypatch.setattr(sweep, "_compute_chunk", recording)
    options = SweepOptions(verify_against_oracle=True, threads=2)
    assert run_sweep("bertrand", 4, 3000, options, table=table).failures == ()
    assert entries == [5997] * 47


def test_certify_rows(table):
    report = run_sweep("certify", 2, 12, table=table)
    verdicts = [sweep._VERDICT_NAMES[v] for v in report.x]
    assert verdicts[7 - 2] == "Prime" and verdicts[12 - 2] == "Composite"
    assert report.failures == ()


def test_rejects_bad_arguments(table):
    with pytest.raises(ValueError):
        run_sweep("unknown", 2, 10, table=table)
    with pytest.raises(ValueError):
        run_sweep("binary", 10, 2, table=table)
    with pytest.raises(ValueError):
        run_sweep("binary", -3, 10, table=table)
    with pytest.raises(ValueError):
        run_sweep("binary", 2, table.limit, table=table)  # table too small
    with pytest.raises(ValueError):
        emit_report(run_sweep("binary", 2, 4, table=table), "xml")
    # only binary has a congruence route
    for task in ("certify", "bertrand", "ternary", "peculiar", "proposition"):
        with pytest.raises(ValueError, match="via_fermat"):
            run_sweep(task, 7, 11, SweepOptions(via_fermat=True), table=table)


def test_failure_invariants(table):
    report = run_sweep("binary", 2, 400, table=table)
    assert (report.count >= 1).all()
    assert set(report.failures) <= set(report.ns)


HIGH = (10**6 - 200, 10**6)


def test_certify_sweep_certifies_only_the_swept_n(reference_rows, pooled, monkeypatch):
    started = pooled(2, 64)  # 201 n in 4 chunks, on a pool of 2 threads
    blocks = []
    honest = sweep.certify_block

    def recording_block(lo, hi, table, **kwargs):
        out = honest(lo, hi, table, **kwargs)
        blocks.append((lo, hi, len(out)))
        return out

    lo, hi = HIGH
    for options in (SweepOptions(), SweepOptions(verify_against_oracle=True)):
        rows = reference_rows("certify", lo, hi, options)
        for threads in (1, 2):
            with monkeypatch.context() as m:
                m.setattr(sweep, "certify_block", recording_block)
                report = run_sweep("certify", lo, hi, replace(options, threads=threads))
            for fmt in ("json", "csv"):
                expected = reference_bytes(
                    "certify", lo, hi, rows, (), options.config(), fmt
                )
                assert emit_report(report, fmt) == expected
    assert blocks == [(lo, hi, 201)] * 4
    assert started == [2, 2]  # one pool per sweep on 2 threads, each block built once


def _flip(mask: np.ndarray, i: int) -> np.ndarray:
    """A read-only copy of a primality mask with entry i negated."""
    out = mask.copy()
    out[i] = not out[i]
    out.flags.writeable = False
    return out


def test_certify_sweep_flags_a_wrong_verdict(monkeypatch):
    lo, hi = HIGH
    n = 999_983  # the largest prime below 10^6
    table = build_spf(hi).warm()
    honest = sweep.certify_block

    def wrong_block(lo, hi, t, **kwargs):
        return _flip(honest(lo, hi, t, **kwargs), n - lo)

    monkeypatch.setattr(sweep, "certify_block", wrong_block)
    checked, plain = SweepOptions(verify_against_oracle=True), SweepOptions()
    # the sieve disagrees with the wrong verdict, with or without the oracle
    for options in (plain, checked):
        report = run_sweep("certify", lo, hi, options, table=table)
        assert report.failures == (n,)
        at = report.ns.index(n)
        assert (report.count[at], sweep._VERDICT_NAMES[report.x[at]]) == (0, "Composite")
    # a sieve that agrees with the wrong verdict is caught by the oracle alone
    table.is_prime_mask = _flip(table.is_prime_mask, n)
    assert run_sweep("certify", lo, hi, plain, table=table).failures == ()
    assert run_sweep("certify", lo, hi, checked, table=table).failures == (n,)


@pytest.fixture(scope="module")
def wide_table():
    return build_spf(2 * 10**6).warm()


@pytest.mark.parametrize("lo, hi", [(4, 5000), (990_001, 1_000_000)])
def test_windows_match_the_whole_prefix(wide_table, monkeypatch, lo, hi):
    # each windowed kernel against the same kernel over the whole prefix, on
    # the sieve and on a mask without the 2000 primes from lo up, whose m
    # walk far and whose totals need large primes
    sieve = wide_table.is_prime_mask
    sparse = sieve.copy()
    sparse[lo : lo + 2000] = False
    sparse[:2000] = False
    m = np.arange(lo, hi + 1)
    totals = range((lo | 1) - 3, hi - 2, 2)
    for mask in (sieve, sparse):
        with monkeypatch.context() as patch:
            patch.setattr(goldbach, "_PAIR_MARGIN", 2 * hi)
            patch.setattr(goldbach, "_SUM_BLOCK", hi)
            ys = goldbach.first_pair_y_block(m, mask)
            sums = goldbach._two_prime_sums(totals, mask)
        # margins this small retry most of the top m, some of them many times
        for margin in (1, 3, 100, goldbach._PAIR_MARGIN):
            monkeypatch.setattr(goldbach, "_PAIR_MARGIN", margin)
            assert np.array_equal(goldbach.first_pair_y_block(m, mask), ys)
        for block in (1, 5, goldbach._SUM_BLOCK):
            monkeypatch.setattr(goldbach, "_SUM_BLOCK", block)
            got = goldbach._two_prime_sums(totals, mask)
            assert np.array_equal(got, sums)
    for width in (7, 1000, 1 << 17):  # at 7 most chunks seed far past 2 width
        monkeypatch.setattr(sweep, "_CHUNK", width)
        _assert_bertrand_matches_the_whole_prefix(wide_table, lo, hi)


def _assert_bertrand_matches_the_whole_prefix(table, lo, hi):
    """bertrand's rows on [lo, hi] against every prime below 2 hi - 2
    searched at once, in both modes."""
    m = np.arange(lo, hi + 1)
    primes = np.flatnonzero(table.is_prime_mask[: 2 * hi - 2])
    after = np.searchsorted(primes, m, side="right")
    count = np.searchsorted(primes, 2 * m - 2) - after
    x = np.where(count > 0, primes.take(after, mode="clip") - m, -1)
    for options in (SweepOptions(), SweepOptions(first_witness_only=True)):
        report = run_sweep("bertrand", lo, hi, options, table=table)
        want = count if options == SweepOptions() else (count > 0).astype(np.int64)
        assert np.array_equal(report.count, want)
        assert np.array_equal(report.x, x)
        assert report.failures == ()


# each hi is a prime followed by a gap wider than the first window: 72 after
# 31397, 112 after 370261 and 114 after 492113
@pytest.mark.parametrize("hi", [31_397, 370_261, 492_113])
@pytest.mark.parametrize("window", [1, 3, goldbach._SUM_BLOCK])
def test_bertrand_next_prime_window_doubles(wide_table, monkeypatch, hi, window):
    # chunks of 1000 n end at hi and below it; past 492113 a first window
    # of 1 value grows three times, to 8, 64 and 512 values
    monkeypatch.setattr(sweep, "_CHUNK", 1000)
    monkeypatch.setattr(goldbach, "_SUM_BLOCK", window)
    _assert_bertrand_matches_the_whole_prefix(wide_table, hi - 4999, hi)


# k, whose 2k - 2 a doctored mask marks prime: the first n of a chunk of
# 600 n (its seeding count), and an n inside one (a step of the sum); both
# chunks start more than 2 * 600 past 4
@pytest.mark.parametrize("k", [1804, 2500])
def test_bertrand_identity_fails_where_the_mask_lies(monkeypatch, k):
    # PrimePi from the same mask counts 2k - 2 in pi(2n - 2) - pi(n) from
    # n = k on, the rows' open interval (n, 2n - 2), as bertrand_count does,
    # from n = k + 1 on
    monkeypatch.setattr(sweep, "_CHUNK", 600)  # chunks from 4, 604, 1204, 1804, ...
    hi = 3000
    mask = build_spf(2 * hi - 2).is_prime_mask.copy()
    mask[2 * k - 2] = True
    doctored = SpfTable(2 * hi - 2, mask)
    report = run_sweep("bertrand", 4, hi, table=doctored)
    assert report.failures == (k,)
    assert report.count.tolist() == [bertrand.bertrand_count(n, doctored) for n in report.ns]


def test_bertrand_chunk_peak_within_its_row_bytes():
    # the next prime past a chunk ending at 10^7 is read from windows of a
    # few gaps, not from a copy of the 10^7 values below 2 * 10^7 - 2
    hi = 10**7
    table = build_spf(2 * hi - 2)
    rt = sweep._Runtime(table, table.is_prime_mask, pi=PrimePi.from_spf(table))
    ns = range(hi - sweep._CHUNK + 1, hi + 1)
    counted = sweep._SPECS["bertrand"].row_bytes * len(ns)
    for options in (SweepOptions(first_witness_only=True), SweepOptions()):
        tracemalloc.start()
        try:
            sweep._rows_bertrand(ns, rt, options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < counted, (options, peak, counted)
