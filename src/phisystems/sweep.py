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
--verify-against-oracle, are handled one n at a time. The cells stay
Python ints, tuples of them, and verdict strings.

A sweep cuts the eligible n into sixteen contiguous chunks per worker,
runs the chunks in this process on one worker or on forked workers (at
most one per usable CPU), and merges the results in range order, so the
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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import goldbach, oracle
from .arith import DEFAULT_MEMORY_BUDGET, PrimePi, SpfTable, build_spf
from .certify import VerdictTable, certify_block

__all__ = [
    "CSV_HEADER",
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

# first_witness cell: int for an x, (x, y) pair for triples, a verdict
# string for certify rows, None when nothing was found
FirstWitness = int | tuple[int, int] | str | None


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


@dataclass
class RangeReport:
    """Aggregate result of verifying one task over [lo, hi].

    per_n rows are (n, witness_count, first_witness) for every eligible n;
    in first-witness mode the count is 1 when any witness exists. failures
    lists every n whose check did not hold (no witness, a failed identity,
    or an oracle mismatch when oracle verification was requested)."""

    task: str
    lo: int
    hi: int
    per_n: tuple[tuple, ...]
    failures: tuple[int, ...]
    config: dict
    elapsed: float = field(default=0.0, compare=False)

    @property
    def checked(self) -> int:
        return len(self.per_n)


def _fw_to_csv(fw: FirstWitness) -> str:
    if fw is None:
        return ""
    if isinstance(fw, tuple):
        return f"{fw[0]}:{fw[1]}"
    return str(fw)


_TEXT_SLICE = 1 << 14  # lines joined and encoded at a time


def _text_bytes(lines: Iterable[str]) -> bytes:
    """The lines, each ended by a newline, as bytes: the one writer of every
    text report and certificate. The lines are joined and encoded a fixed
    slice at a time, so a renderer holds the bytes and one slice of text,
    never a list of every line besides them."""
    lines = iter(lines)
    parts = []
    while piece := list(itertools.islice(lines, _TEXT_SLICE)):
        piece.append("")
        parts.append("\n".join(piece).encode())
    return b"".join(parts)


def _table_lines(report: RangeReport) -> Iterator[str]:
    yield (
        f"task: {report.task}   range: [{report.lo}, {report.hi}]   "
        f"checked: {report.checked}   failures: {len(report.failures)}   "
        f"elapsed: {report.elapsed:.3f}s"
    )
    if report.per_n:
        wn = max(len(str(n)) for n, _, _ in report.per_n)
        wc = max(len("witnesses"), max(len(str(c)) for _, c, _ in report.per_n))
        yield f"{'n':>{wn}}  {'witnesses':>{wc}}  first"
        for n, c, fw in report.per_n:
            yield f"{n:>{wn}}  {c:>{wc}}  {_fw_to_csv(fw)}"
    if report.failures:
        shown = ", ".join(str(n) for n in report.failures[:50])
        more = "" if len(report.failures) <= 50 else ", ..."
        yield f"failures: {shown}{more}"


def emit_report(report: RangeReport, fmt: str) -> bytes:
    """Render a report as bytes: json, csv, or human-aligned table.

    json mirrors the report fields minus elapsed; csv is the fixed header
    n,witness_count,first_witness plus one row per n (pairs as "x:y").
    Counts are identical across formats.
    """
    if fmt == "json":
        obj = {
            "task": report.task,
            "range": [report.lo, report.hi],
            "checked": report.checked,
            "failures": report.failures,
            "config": report.config,
            "per_n": report.per_n,  # json writes tuples as arrays
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        rows = (f"{n},{c},{_fw_to_csv(fw)}" for n, c, fw in report.per_n)
        return _text_bytes(itertools.chain([CSV_HEADER], rows))
    if fmt == "table":
        return _text_bytes(_table_lines(report))
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def emit_counts(report: RangeReport) -> bytes:
    """(n, witness_count) rows as CSV, for external plotting."""
    rows = (f"{n},{c}" for n, c, _ in report.per_n)
    return _text_bytes(itertools.chain(["n,witness_count"], rows))


class _Runtime(NamedTuple):
    """Read-only tables shared by every worker of one sweep."""

    table: SpfTable
    primes: np.ndarray  # the primality the rows read: primes[n - base] is that of n
    base: int = 0
    pi: PrimePi | None = None
    counts: np.ndarray | None = None


def _with_pi(task, rt, ns, hi, options):
    if options.first_witness_only:
        return rt
    return rt._replace(pi=PrimePi.from_spf(rt.table))


def _with_counts(task, rt, ns, hi, options):
    if options.first_witness_only:
        return rt
    counts = goldbach.count_table(
        task, hi, rt.primes, memory_budget=options.memory_budget
    )
    return rt._replace(counts=counts)


def _with_verdicts(task, rt, ns, hi, options):
    # the congruence route reads verdicts, never the sieve; they reach
    # 2 hi - 1, all that count_table reads, and a VerdictTable keeps the budget
    verdicts = VerdictTable(rt.table, options.memory_budget)
    rt = rt._replace(primes=verdicts.ensure(2 * hi - 1))
    return _with_counts(task, rt, ns, hi, options)


def _with_block(task, rt, ns, hi, options):
    # the swept n only, so a narrow range high up certifies just that range
    block = certify_block(ns.start, hi, rt.table, memory_budget=options.memory_budget)
    return rt._replace(primes=np.frombuffer(block, np.bool_), base=ns.start)


# A task's rows take one chunk ns and return, in the order of ns, the
# counts and first-witness cells as Python lists and whether each n's
# check held as a bool array, from whole-array passes over the chunk.
def _ints(flags: np.ndarray) -> list[int]:
    """A bool array as Python 0s and 1s."""
    return flags.view(np.uint8).tolist()


def _cells(cells: list, found: np.ndarray) -> list:
    """cells, with None where nothing was found."""
    for i in np.flatnonzero(~found).tolist():
        cells[i] = None
    return cells


def _rows_certify(ns, rt, options):
    verdicts = rt.primes[ns.start - rt.base : ns.stop - rt.base]
    # the sieve stays the other side
    sieve = np.frombuffer(rt.table.is_prime_bytes, np.bool_)
    ok = verdicts == sieve[ns.start : ns.stop]
    names = ("Composite", "Prime")
    return _ints(ok), [names[v] for v in verdicts.tolist()], ok


def _rows_bertrand(ns, rt, options):
    n = np.arange(ns.start, ns.stop)
    # the primes p with ns.start < p < 2 max(ns) - 2, every one a row can read
    primes = np.flatnonzero(rt.primes[ns.start + 1 : 2 * ns[-1] - 2]) + ns.start + 1
    after = np.searchsorted(primes, n, side="right")  # the first prime above n
    below = np.searchsorted(primes, 2 * n - 2)  # the primes below 2n - 2
    found = after < below
    x = np.zeros_like(n)
    x[found] = primes[after[found]] - n[found]
    cells = _cells(x.tolist(), found)
    if options.first_witness_only:
        return _ints(found), cells, found
    count = below - after
    # the identity count_identity_check states, against PrimePi's running sums
    cumulative = rt.pi.cumulative
    ok = (count >= 1) & (count == cumulative[2 * n - 2] - cumulative[n])
    return count.tolist(), cells, ok


def _count_rows(ns, cells, found, rt, options):
    """Rows of a task whose count is rt.counts[n] outside first-witness mode."""
    if options.first_witness_only:
        return _ints(found), cells, found
    counts = rt.counts[ns.start : ns.stop : ns.step]
    return counts.tolist(), cells, found & (counts >= 1)


def _rows_binary(ns, rt, options):
    y = goldbach.first_pair_y_block(np.arange(ns.start, ns.stop), rt.primes)
    found = y >= 0
    return _count_rows(ns, _cells(y.tolist(), found), found, rt, options)


def _q3_witnesses(ns, rt):
    """The first witnesses with q = 3 of the odd n of ns, from the pair of
    n - 3 about m = (n - 3) / 2; q = 3 gives the smallest x = m + 3."""
    m0 = (ns.start - 3) // 2
    y = goldbach.first_pair_y_block(np.arange(m0, m0 + len(ns)), rt.primes)
    found = y >= 0
    x = range(m0 + 3, m0 + 3 + len(ns))
    return _cells(list(zip(x, y.tolist())), found), found


def _rows_ternary(ns, rt, options):
    cells, found = _q3_witnesses(ns, rt)
    # an n with no q = 3 witness takes the scan over larger q
    for i in np.flatnonzero(~found).tolist():
        w = goldbach.first_ternary_witness(ns[i], rt.table)
        if w is not None:
            cells[i], found[i] = (w.x, w.y), True
    return _count_rows(ns, cells, found, rt, options)


def _rows_peculiar(ns, rt, options):
    return _count_rows(ns, *_q3_witnesses(ns, rt), rt, options)


def _rows_proposition(ns, rt, options):
    # the check proposition_check makes: a q = 3 witness exists iff n - 3 is
    # a sum of two primes, the right side by rounds over the mask's primes
    cells, found = _q3_witnesses(ns, rt)
    totals = np.arange(ns.start, ns.stop, ns.step) - 3
    ok = found == goldbach._two_prime_sums(totals, rt.table)
    return _ints(ok), cells, ok


# Oracles give the count a row should report, by trial division; certify
# and proposition rows count 1 when their check holds against it.
def _oracle_certify(n, rt):
    return int(oracle.oracle_is_prime(n) == bool(rt.table.is_prime_bytes[n]))


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
    rows: Callable  # (ns, rt, options) -> (counts, first witnesses, ok)
    oracle: Callable  # (n, rt) -> the count the row should report
    setup: Callable = lambda task, rt, ns, hi, options: rt  # adds the tables rows read


_SPECS = {
    "certify": _Task(lambda hi: hi, 2, 1, _rows_certify, _oracle_certify, _with_block),
    "bertrand": _Task(
        lambda hi: 2 * hi - 2, 4, 1, _rows_bertrand, _oracle_bertrand, _with_pi
    ),
    "binary": _Task(
        lambda hi: 2 * hi, 2, 1, _rows_binary, _oracle_binary, _with_counts
    ),
    # certifying every value up to 2 hi - 1 needs no prime above isqrt(2 hi)
    "binary --via-fermat": _Task(
        lambda hi: math.isqrt(2 * hi),
        4,
        1,
        _rows_binary,
        _oracle_binary,
        _with_verdicts,
    ),
    "ternary": _Task(
        lambda hi: hi, 7, 2, _rows_ternary, _oracle_ternary, _with_counts
    ),
    "peculiar": _Task(
        lambda hi: hi, 7, 2, _rows_peculiar, _oracle_peculiar, _with_counts
    ),
    "proposition": _Task(lambda hi: hi, 7, 2, _rows_proposition, _oracle_proposition),
}


def _compute_chunk(spec: _Task, options: SweepOptions, rt: _Runtime, ns: range):
    counts, witnesses, ok = spec.rows(ns, rt, options)
    if options.verify_against_oracle:
        exists = options.first_witness_only  # rows count 1 when a witness exists
        for i in np.flatnonzero(ok).tolist():
            expected = spec.oracle(ns[i], rt)
            count = counts[i]
            ok[i] = (expected > 0) == (count > 0) if exists else expected == count
    failures = [ns[i] for i in np.flatnonzero(~ok).tolist()]
    return list(zip(ns, counts, witnesses)), failures


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
    need = max(spec.sieve(hi), 4)
    if table is None:
        table = build_spf(need, memory_budget=options.memory_budget)
    elif table.limit < need:
        raise ValueError(f"table limit {table.limit} is below the required {need}")
    start = max(lo, spec.first)
    ns = range(start + (start - spec.first) % spec.step, hi + 1, spec.step)
    rt = spec.setup(task, _Runtime(table.warm(), table.is_prime_mask), ns, hi, options)
    workers = _worker_count(options.threads)
    chunks = _chunks(ns, workers)
    workers = min(workers, len(chunks))
    rows: list[tuple] = []
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
            for done, (chunk_rows, chunk_failures) in enumerate(parts, start=1):
                rows.extend(chunk_rows)
                failures.extend(chunk_failures)
                _progress(done, len(chunks))
    finally:
        _WORKER_STATE = None
    return RangeReport(
        task=task,
        lo=lo,
        hi=hi,
        per_n=tuple(rows),
        failures=tuple(failures),
        config=options.config(),
        elapsed=time.perf_counter() - started,
    )
