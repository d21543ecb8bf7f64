"""Deterministic range sweeps over the verification tasks.

Each task's rules sit in one entry of a task table: the sieve limit and
the shared tables its rows read, its eligible n, its rows, and the count
the trial-division oracle expects. The rows read one primality mask: the
sieve's, the congruence verdicts of ``binary --via-fermat``, or one
``certify.certify_block`` of the swept n. In count mode the pair, triple
and triple-with-3 rows read every count from one ``goldbach.count_table``
over that mask.

A task's rows take a whole chunk of n at once and come from array passes
over it: the first pair witnesses from ``goldbach.first_pair_y_block``
(at m = n for pairs, at m = (n - 3) / 2 for triples, whose first middle
prime is 3), which walks each m over the mask's primes r >= m until
2m - r is prime too, about y / ln m probes for an offset y; bertrand's
next prime and prime count from ``searchsorted`` on the chunk's primes;
and the certify rows from comparing the block with the sieve. Only a
ternary n without a q = 3 witness, and the oracle check of
--verify-against-oracle, are handled one n at a time.

Rows stay int64 columns from the chunk to the report: the witness count,
the first witness x (-1 where none was found), y for triple tasks, and
certify's verdict as 0 or 1. The n of a row is its place in the range.
One writer renders every format from the columns, a slice of rows at a
time: digits come from integer division into a byte matrix, and a keep
mask drops its unused places.

A sweep cuts the eligible n into sixteen contiguous chunks per worker,
runs the chunks in this process on one worker or on forked workers (at
most one per usable CPU), and merges the columns in range order, so the
report is identical for any worker count. For the same reason the JSON
and CSV renderings carry no timing or parallelism information; elapsed
time lives on the report object and in the human table format.
"""

import contextlib
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import goldbach, oracle
from .arith import PrimePi, SpfTable, _sieve_bytes, build_spf
from .certify import _block_bytes, certify_block

__all__ = [
    "CSV_HEADER",
    "DEFAULT_MEMORY_BUDGET",
    "MemoryBudgetError",
    "RangeReport",
    "SweepOptions",
    "TASKS",
    "emit_counts",
    "emit_report",
    "run_sweep",
]

TASKS = ("certify", "bertrand", "binary", "ternary", "peculiar", "proposition")
FORMATS = ("json", "csv", "table")
CSV_HEADER = "n,witness_count,first_witness"
_VERDICT_NAMES = ("Composite", "Prime")  # a certify row's x indexes these
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes


class MemoryBudgetError(Exception):
    """A run would hold more than the configured memory budget."""


def _check_budget(parts: list[tuple[int, str]], budget: int) -> None:
    """Raise MemoryBudgetError, listing the parts, when the parts, (bytes,
    what) pairs held at once, need more than the budget together."""
    needed = sum(nbytes for nbytes, _ in parts)
    if needed > budget:
        *rest, last = [what for _, what in parts]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise MemoryBudgetError(f"{listed} needs {needed} bytes, budget is {budget}")


@dataclass(frozen=True)
class SweepOptions:
    """Flags shaping a sweep. Only the semantic flags are echoed into
    reports; threads and the memory budget cannot change any reported
    value and are excluded to keep output byte-deterministic."""

    first_witness_only: bool = False
    verify_against_oracle: bool = False
    via_fermat: bool = False
    threads: int = 1
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def config(self) -> dict:
        return {
            "first_witness_only": self.first_witness_only,
            "verify_against_oracle": self.verify_against_oracle,
            "via_fermat": self.via_fermat,
        }


@dataclass(eq=False)
class RangeReport:
    """Aggregate result of verifying one task over [lo, hi].

    One row per eligible n, held as int64 columns in the order of ns:
    count is the witness count (in first-witness mode 1 when any witness
    exists) and x the first witness, -1 where none was found. Triple
    tasks add y, their witness being the pair (x, y); a certify row's x
    is its verdict, 0 for Composite and 1 for Prime. failures lists every
    n whose check did not hold (no witness, a failed identity, or an
    oracle mismatch when oracle verification was requested)."""

    task: str
    lo: int
    hi: int
    ns: range
    count: np.ndarray
    x: np.ndarray
    failures: tuple[int, ...]
    config: dict
    y: np.ndarray | None = None
    elapsed: float = 0.0

    @property
    def checked(self) -> int:
        return len(self.ns)

    @property
    def per_n(self) -> tuple[tuple, ...]:
        """The rows as (n, witness_count, first_witness) tuples of Python
        values, built on each access: the first witness is an int, an
        (x, y) pair, a verdict name, or None. No sweep or report reads it."""
        x = self.x.tolist()
        if self.task == "certify":
            cells = [_VERDICT_NAMES[v] for v in x]
        elif self.y is not None:
            cells = list(zip(x, self.y.tolist()))
        else:
            cells = x
        cells = [cell if v >= 0 else None for cell, v in zip(cells, x)]
        return tuple(zip(self.ns, self.count.tolist(), cells))


_TEXT_SLICE = 1 << 14  # lines joined and encoded at a time


def _text_bytes(lines: Iterable[str]) -> bytes:
    """The lines, each ended by a newline, as bytes: the writer of the
    table's header and failures lines and of every certificate. The lines
    are joined and encoded a fixed slice at a time, so a renderer holds the
    bytes and one slice of text, never a list of every line besides them."""
    lines = iter(lines)
    parts = []
    while piece := list(itertools.islice(lines, _TEXT_SLICE)):
        piece.append("")
        parts.append("\n".join(piece).encode())
    return b"".join(parts)


_ROW_SLICE = 1 << 16  # report rows rendered at a time


class _Seg(NamedTuple):
    """One piece of every row of a slice: the literal text, or the digits
    of values, one per row, trimmed or right-aligned in pad places. It is
    written on the rows where rows is set, or on all."""

    text: bytes = b""
    values: np.ndarray | None = None
    rows: np.ndarray | None = None
    pad: int = 0


def _rows_bytes(segments: list[_Seg], rows: int) -> bytes:
    """Lay the segments side by side in one byte matrix, a row of it per
    report row, and read it back through a keep mask that drops the unused
    places: the leading places of a short number, and segments off their
    rows. The matrix is filled transposed, one place of every row at a
    time, so each write is contiguous."""
    widths = [
        len(s.text) if s.values is None else s.pad or len(str(int(s.values.max())))
        for s in segments
    ]
    cells = np.empty((sum(widths), rows), np.uint8)
    keep = np.ones(cells.shape, np.bool_)
    at = 0
    for s, width in zip(segments, widths):
        out, kept = cells[at : at + width], keep[at : at + width]
        at += width
        if s.values is None:
            out[:] = np.frombuffer(s.text, np.uint8)[:, None]
        else:
            q = s.values
            for place in range(width - 1, -1, -1):  # right to left
                higher = q // 10
                out[place] = q - 10 * higher + ord("0")
                if place < width - 1:
                    blank = q == 0  # left of the value's first digit
                    if s.pad:
                        out[place][blank] = ord(" ")
                    else:
                        kept[place] = ~blank
                q = higher
        if s.rows is not None:
            kept &= s.rows
    return cells.T[keep.T].tobytes()


def _segments(report: RangeReport, fmt: str, rows: slice, pads) -> list[_Seg]:
    """The segments of the report rows in the slice rows, in format fmt;
    pads are the widths of the table's n and count columns, else (0, 0)."""
    ns = report.ns[rows]
    n = _Seg(values=np.arange(ns.start, ns.stop, ns.step, dtype=np.int64), pad=pads[0])
    count = _Seg(values=report.count[rows], pad=pads[1])
    if fmt == "counts":
        return [n, _Seg(b","), count, _Seg(b"\n")]
    x = report.x[rows]
    found = x >= 0
    json_ = fmt == "json"
    if report.task == "certify":
        quote = b'"' if json_ else b""
        cell = [
            _Seg(quote + name.encode() + quote, rows=x == v)
            for v, name in enumerate(_VERDICT_NAMES)
        ]
    elif report.y is not None:
        left, mid, right = (b"[", b",", b"]") if json_ else (b"", b":", b"")
        y = report.y[rows]
        pair = [_Seg(left), _Seg(values=x), _Seg(mid), _Seg(values=y), _Seg(right)]
        cell = [s._replace(rows=found) for s in pair]
    else:
        cell = [_Seg(values=x, rows=found)]
    sep = _Seg(b"  " if fmt == "table" else b",")
    if not json_:
        return [n, sep, count, sep, *cell, _Seg(b"\n")]
    between = _Seg(b",", rows=np.arange(rows.start, rows.stop) > 0)
    null = _Seg(b"null", rows=~found)
    return [between, _Seg(b"["), n, sep, count, sep, *cell, null, _Seg(b"]")]


def _report_slices(report: RangeReport, fmt: str) -> Iterator[bytes]:
    """The report in fmt, one of FORMATS or "counts", as consecutive byte
    strings: the head, a slice of _ROW_SLICE rows at a time, and the tail.
    The one renderer of every report format and of the counts CSV."""
    head, tail, pads = b"", b"", (0, 0)
    if fmt == "json":
        header = {
            "task": report.task,
            "range": [report.lo, report.hi],
            "checked": report.checked,
            "failures": report.failures,
            "config": report.config,
        }
        # the rows go in as the last key of the same object
        head = json.dumps(header, separators=(",", ":"))[:-1].encode() + b',"per_n":['
        tail = b"]}\n"
    elif fmt == "csv":
        head = (CSV_HEADER + "\n").encode()
    elif fmt == "counts":
        head = b"n,witness_count\n"
    else:
        lines = [
            f"task: {report.task}   range: [{report.lo}, {report.hi}]   "
            f"checked: {report.checked}   failures: {len(report.failures)}   "
            f"elapsed: {report.elapsed:.3f}s"
        ]
        if report.checked:
            # n ascends, so the last is the widest
            wn = len(str(report.ns[-1]))
            pads = (wn, max(len("witnesses"), len(str(int(report.count.max())))))
            lines.append(f"{'n':>{wn}}  {'witnesses':>{pads[1]}}  first")
        head = _text_bytes(lines)
        if report.failures:
            shown = ", ".join(str(n) for n in report.failures[:50])
            more = "" if len(report.failures) <= 50 else ", ..."
            tail = _text_bytes([f"failures: {shown}{more}"])
    yield head
    for i in range(0, report.checked, _ROW_SLICE):
        rows = slice(i, min(i + _ROW_SLICE, report.checked))
        yield _rows_bytes(_segments(report, fmt, rows, pads), rows.stop - rows.start)
    yield tail


def emit_report(report: RangeReport, fmt: str) -> bytes:
    """Render a report as bytes: json, csv, or human-aligned table.

    json mirrors the report fields minus elapsed; csv is the fixed header
    n,witness_count,first_witness plus one row per n (pairs as "x:y").
    Counts are identical across formats.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return b"".join(_report_slices(report, fmt))


def emit_counts(report: RangeReport) -> bytes:
    """(n, witness_count) rows as CSV, for external plotting."""
    return b"".join(_report_slices(report, "counts"))


class _Runtime(NamedTuple):
    """Read-only tables shared by every worker of one sweep."""

    table: SpfTable
    primes: np.ndarray  # the primality the rows read: primes[n - base] is that of n
    base: int = 0
    pi: PrimePi | None = None
    counts: np.ndarray | None = None


class _Table(NamedTuple):
    """A table the rows read besides the sieve: its byte rule and how it is built."""

    bytes: Callable  # (task, ns, hi, need) -> (bytes, what)
    build: Callable  # (task, rt, ns, hi) -> rt with the table
    counts_only: bool = True  # left unbuilt in first-witness mode


_PRIME_COUNTS = _Table(  # PrimePi keeps a uint32 running sum per value
    lambda task, ns, hi, need: (4 * (need + 1), f"prime counts over [0, {need}]"),
    lambda task, rt, ns, hi: rt._replace(pi=PrimePi.from_spf(rt.table)),
)
_COUNTS = _Table(
    lambda task, ns, hi, need: goldbach._count_table_bytes(task, hi),
    lambda task, rt, ns, hi: rt._replace(
        counts=goldbach.count_table(task, hi, rt.primes)
    ),
)
# the congruence route reads verdicts, never the sieve: a block from 0
# through 2 hi - 1, all that count_table and the pair kernel read
_VERDICTS = _Table(
    lambda task, ns, hi, need: (
        _block_bytes(0, 2 * hi - 1), f"verdict table over [0, {2 * hi - 1}]"
    ),
    lambda task, rt, ns, hi: rt._replace(primes=certify_block(0, 2 * hi - 1, rt.table)),
    counts_only=False,
)
# the swept n only, so a narrow range high up certifies just that range
_BLOCK = _Table(
    lambda task, ns, hi, need: (
        _block_bytes(ns.start, hi), f"certifying the block [{ns.start}, {hi}]"
    ),
    lambda task, rt, ns, hi: rt._replace(
        primes=certify_block(ns.start, hi, rt.table), base=ns.start
    ),
    counts_only=False,
)


# A task's rows take one chunk ns and return whether each n's check held,
# as a bool array, and the chunk's int64 columns in the order of ns: the
# counts, the first witnesses x (-1 where none was found) and, for
# triples, their y, from whole-array passes over the chunk.
def _rows_certify(ns, rt, options):
    verdicts = rt.primes[ns.start - rt.base : ns.stop - rt.base]
    # the sieve stays the other side
    ok = verdicts == rt.table.is_prime_mask[ns.start : ns.stop]
    return ok, (ok.astype(np.int64), verdicts.astype(np.int64))


def _rows_bertrand(ns, rt, options):
    n = np.arange(ns.start, ns.stop)
    # the primes p with ns.start < p < 2 max(ns) - 2, every one a row can read
    primes = np.flatnonzero(rt.primes[ns.start + 1 : 2 * ns[-1] - 2]) + ns.start + 1
    after = np.searchsorted(primes, n, side="right")  # the first prime above n
    below = np.searchsorted(primes, 2 * n - 2)  # the primes below 2n - 2
    found = after < below
    x = np.full_like(n, -1)
    x[found] = primes[after[found]] - n[found]
    if options.first_witness_only:
        return found, (found.astype(np.int64), x)
    count = below - after
    # the identity count_identity_check states, against PrimePi's running sums
    cumulative = rt.pi.cumulative
    ok = (count >= 1) & (count == cumulative[2 * n - 2] - cumulative[n])
    return ok, (count, x)


def _count_rows(ns, found, witnesses, rt, options):
    """Rows of a task whose count is rt.counts[n] outside first-witness mode."""
    if options.first_witness_only:
        return found, (found.astype(np.int64), *witnesses)
    counts = rt.counts[ns.start : ns.stop : ns.step]
    return found & (counts >= 1), (counts, *witnesses)


def _rows_binary(ns, rt, options):
    y = goldbach.first_pair_y_block(np.arange(ns.start, ns.stop), rt.primes)
    return _count_rows(ns, y >= 0, (y,), rt, options)


def _q3_witnesses(ns, rt):
    """The first witnesses with q = 3 of the odd n of ns, from the pair of
    n - 3 about m = (n - 3) / 2; q = 3 gives the smallest x = m + 3."""
    m0 = (ns.start - 3) // 2
    m = np.arange(m0, m0 + len(ns))
    y = goldbach.first_pair_y_block(m, rt.primes)
    found = y >= 0
    return found, (np.where(found, m + 3, -1), y)


def _rows_ternary(ns, rt, options):
    found, (x, y) = _q3_witnesses(ns, rt)
    # an n with no q = 3 witness takes the scan over larger q
    for i in np.flatnonzero(~found).tolist():
        w = goldbach.first_ternary_witness(ns[i], rt.table)
        if w is not None:
            x[i], y[i], found[i] = w.x, w.y, True
    return _count_rows(ns, found, (x, y), rt, options)


def _rows_peculiar(ns, rt, options):
    return _count_rows(ns, *_q3_witnesses(ns, rt), rt, options)


def _rows_proposition(ns, rt, options):
    # the check proposition_check makes: a q = 3 witness exists iff n - 3 is
    # a sum of two primes, the right side by rounds over the mask's primes
    found, witnesses = _q3_witnesses(ns, rt)
    totals = np.arange(ns.start, ns.stop, ns.step) - 3
    ok = found == goldbach._two_prime_sums(totals, rt.table)
    return ok, (ok.astype(np.int64), *witnesses)


# Oracles give the count a row should report, by trial division; certify
# and proposition rows count 1 when their check holds against it.
def _oracle_certify(n, rt):
    return int(oracle.oracle_is_prime(n) == bool(rt.table.is_prime_mask[n]))


def _oracle_bertrand(n, rt):
    return sum(1 for p in oracle.trial_primes_upto(2 * n - 3) if p > n)


def _oracle_binary(n, rt):
    # 2 + (2n - 2) is a split only at n = 2, so every pair counts
    return len(oracle.oracle_pairs(2 * n).pairs)


def _oracle_ternary(n, rt):
    return len(oracle.oracle_triples(n))


def _oracle_peculiar(n, rt):
    return sum(1 for p, q, _ in oracle.oracle_triples(n) if p == 3 or q == 3)


def _oracle_proposition(n, rt):
    return int((_oracle_peculiar(n, rt) > 0) == bool(oracle.oracle_pairs(n - 3).pairs))


class _Task(NamedTuple):
    """One task's rules."""

    sieve: Callable[[int], int]  # hi -> the sieve limit its rows read
    first: int  # eligible n: first, first + step, ... up to hi
    step: int
    rows: Callable  # (ns, rt, options) -> (ok, columns)
    oracle: Callable  # (n, rt) -> the count the row should report
    # n -> the name and value of the largest argument the oracle takes at
    # n, which ORACLE_LIMIT bounds; None when the oracle has no bound
    reach: Callable[[int], tuple[str, int]] | None
    tables: tuple[_Table, ...] = ()  # built in order, each reading the last
    columns: int = 2  # int64 columns per row: count, x and, for triples, y
    # the rows' bytes per n of a chunk (tracemalloc peaks over 10^5 n, with
    # room for RSS), and hi -> the top of the primes they walk, if any
    row_bytes: int = 0
    walk: Callable[[int], int] = lambda hi: 0


def _pairs(n):
    return "total", 2 * n


def _triples(n):
    return "n =", n


_SPECS = {
    "certify": _Task(
        lambda hi: hi, 2, 1, _rows_certify, _oracle_certify, None, (_BLOCK,),
        row_bytes=24,
    ),
    "bertrand": _Task(
        lambda hi: 2 * hi - 2, 4, 1, _rows_bertrand, _oracle_bertrand,
        lambda n: ("limit", 2 * n - 3), (_PRIME_COUNTS,),
        row_bytes=64, walk=lambda hi: 2 * hi,
    ),
    "binary": _Task(
        lambda hi: 2 * hi, 2, 1, _rows_binary, _oracle_binary, _pairs, (_COUNTS,),
        row_bytes=80, walk=lambda hi: 2 * hi,
    ),
    # certifying every value up to 2 hi - 1 needs no prime above isqrt(2 hi)
    "binary --via-fermat": _Task(
        lambda hi: math.isqrt(2 * hi), 4, 1, _rows_binary, _oracle_binary, _pairs,
        (_VERDICTS, _COUNTS), row_bytes=80, walk=lambda hi: 2 * hi,
    ),
    "ternary": _Task(
        lambda hi: hi, 7, 2, _rows_ternary, _oracle_ternary, _triples, (_COUNTS,), 3,
        row_bytes=88, walk=lambda hi: hi,
    ),
    "peculiar": _Task(
        lambda hi: hi, 7, 2, _rows_peculiar, _oracle_peculiar, _triples, (_COUNTS,), 3,
        row_bytes=88, walk=lambda hi: hi,
    ),
    "proposition": _Task(
        lambda hi: hi, 7, 2, _rows_proposition, _oracle_proposition, _triples, (), 3,
        row_bytes=88, walk=lambda hi: hi,
    ),
}


def _tables(spec: _Task, options: SweepOptions) -> list[_Table]:
    return [t for t in spec.tables if not (options.first_witness_only and t.counts_only)]


def _footprint(task, spec, ns, hi, need, rows, workers, options) -> list[tuple[int, str]]:
    """What a sweep holds at its peak, as (bytes, what) parts: the sieve,
    the report rows and the tables the rows read. The rows hold columns, a
    chunk's temporaries in each worker, 24 bytes per walked prime (fewer
    than 1.25506 x / ln x up to x, by Rosser and Schoenfeld; in integers,
    as x may lie past the floats) and the writer's slice: per row, 4 bytes
    per character, of at most 5d + 24 for d digits of hi, and 64 of digit
    passes and masks."""
    held = min(rows, rows // 16 + workers)  # chunks are rows / (16 workers) wide
    walk = spec.walk(hi)
    report = 8 * spec.columns * rows + spec.row_bytes * held
    report += 24 * (walk * 125506 // int(100000 * math.log(walk)) + 1 if walk > 1 else 0)
    report += min(rows, _ROW_SLICE) * (4 * (5 * len(str(hi)) + 24) + 64)
    parts = [(_sieve_bytes(need), f"prime sieve over [2, {need}]")]
    parts.append((report, f"{rows} report rows"))
    return parts + [t.bytes(task, ns, hi, need) for t in _tables(spec, options)]


def _compute_chunk(spec: _Task, options: SweepOptions, rt: _Runtime, ns: range):
    ok, columns = spec.rows(ns, rt, options)
    if options.verify_against_oracle:
        counts = columns[0]
        exists = options.first_witness_only  # rows count 1 when a witness exists
        for i in np.flatnonzero(ok).tolist():
            expected = spec.oracle(ns[i], rt)
            count = int(counts[i])
            ok[i] = (expected > 0) == (count > 0) if exists else expected == count
    failures = [ns[i] for i in np.flatnonzero(~ok).tolist()]
    return columns, failures


# the running sweep's state; forked workers inherit it read-only
_WORKER_STATE: tuple[_Task, SweepOptions, _Runtime] | None = None


def _chunk_entry(ns: range):
    return _compute_chunk(*_WORKER_STATE, ns)


def _worker_count(threads: int) -> int:
    """threads, at least 1 and at most the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus))


def _chunks(ns: range, workers: int) -> list[range]:
    """ns in sixteen contiguous chunks per worker, so a worker whose chunks
    run cheap takes more while others finish, and progress shows on one."""
    width = max(1, -(-len(ns) // (16 * workers)))
    return [ns[i : i + width] for i in range(0, len(ns), width)]


def _progress(done: int, total: int) -> None:
    if sys.stderr.isatty():
        end = "\n" if done == total else ""
        print(f"\rchunks {done}/{total}", end=end, file=sys.stderr, flush=True)


def run_sweep(
    task: str,
    lo: int,
    hi: int,
    options: SweepOptions | None = None,
    *,
    table: SpfTable | None = None,
) -> RangeReport:
    """Verify one task for every eligible n in [lo, hi].

    The report is deterministic: it depends only on (task, lo, hi) and the
    semantic flags, never on thread count or chunking. An empty failures
    tuple means the statement held everywhere on the range.
    """
    if options is None:
        options = SweepOptions()
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    if lo > hi:
        raise ValueError(f"invalid range: lo = {lo} > hi = {hi}")
    if lo < 0:
        raise ValueError(f"range must be non-negative, got lo = {lo}")
    route = f"{task} --via-fermat" if options.via_fermat else task
    if route not in _SPECS:
        raise ValueError(f"via_fermat applies to the binary task only, got {task!r}")
    spec = _SPECS[route]

    started = time.perf_counter()
    start = max(lo, spec.first)
    ns = range(start + (start - spec.first) % spec.step, hi + 1, spec.step)
    if options.verify_against_oracle and ns and spec.reach:
        oracle._refuse_past_limit(*spec.reach(ns[-1]))
    need = max(spec.sieve(hi), 4)
    rows = max(0, (hi - ns.start) // spec.step + 1)  # len(ns) stops at 2^63 - 1
    workers = _worker_count(options.threads)
    parts = _footprint(task, spec, ns, hi, need, rows, workers, options)
    _check_budget(parts, options.memory_budget)
    if table is None:
        table = build_spf(need)
    elif table.limit < need:
        raise ValueError(f"table limit {table.limit} is below the required {need}")
    rt = _Runtime(table.warm(), table.is_prime_mask)
    for t in _tables(spec, options):
        rt = t.build(task, rt, ns, hi)
    chunks = _chunks(ns, workers)
    workers = min(workers, len(chunks))
    columns = [np.empty(rows, np.int64) for _ in range(spec.columns)]
    failures: list[int] = []
    global _WORKER_STATE
    _WORKER_STATE = (spec, options, rt)
    try:
        with contextlib.ExitStack() as stack:
            chunk_map = map  # one worker: the chunks run in this process
            if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
                pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
                chunk_map = stack.enter_context(pool).map
            parts = chunk_map(_chunk_entry, chunks)
            at = 0
            for done, (part, part_failures) in enumerate(parts, start=1):
                for column, values in zip(columns, part):
                    column[at : at + len(values)] = values
                at += len(part[0])
                failures.extend(part_failures)
                _progress(done, len(chunks))
    finally:
        _WORKER_STATE = None
    return RangeReport(
        task=task,
        lo=lo,
        hi=hi,
        ns=ns,
        count=columns[0],
        x=columns[1],
        y=columns[2] if spec.columns == 3 else None,
        failures=tuple(failures),
        config=options.config(),
        elapsed=time.perf_counter() - started,
    )
