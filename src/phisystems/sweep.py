"""Deterministic range sweeps over the verification tasks.

Each task's rules sit in one entry of a task table: the sieve limit and
the shared tables its rows read, its eligible n, its row, and the count
the trial-division oracle expects. The pair and certify rows read one
primality buffer: the sieve's bytes, the congruence verdicts of
``binary --via-fermat``, or one ``certify.certify_block`` of the swept n.
In count mode the pair, triple and triple-with-3 rows read every count
from one ``goldbach.count_table`` over that buffer.
A sweep cuts the eligible n into sixteen contiguous chunks per worker,
evaluates each n independently, in this process on one worker or on
forked workers (at most one per usable CPU), and merges the results in
range order, so the report is identical for any worker count. For the
same reason the JSON and CSV renderings carry no timing or parallelism
information; elapsed time lives on the report object and in the human
table format.
"""

import contextlib
import json
import math
import multiprocessing
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bertrand, goldbach, oracle
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
        lines = [CSV_HEADER]
        lines.extend(f"{n},{c},{_fw_to_csv(fw)}" for n, c, fw in report.per_n)
        return ("\n".join(lines) + "\n").encode()
    if fmt == "table":
        head = (
            f"task: {report.task}   range: [{report.lo}, {report.hi}]   "
            f"checked: {report.checked}   failures: {len(report.failures)}   "
            f"elapsed: {report.elapsed:.3f}s"
        )
        lines = [head]
        if report.per_n:
            cells = [(str(n), str(c), _fw_to_csv(fw)) for n, c, fw in report.per_n]
            wn = max(1, max(len(a) for a, _, _ in cells))
            wc = max(len("witnesses"), max(len(b) for _, b, _ in cells))
            lines.append(f"{'n':>{wn}}  {'witnesses':>{wc}}  first")
            lines.extend(f"{a:>{wn}}  {b:>{wc}}  {c}" for a, b, c in cells)
        if report.failures:
            shown = ", ".join(str(n) for n in report.failures[:50])
            more = "" if len(report.failures) <= 50 else ", ..."
            lines.append(f"failures: {shown}{more}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def emit_counts(report: RangeReport) -> bytes:
    """(n, witness_count) rows as CSV, for external plotting."""
    lines = ["n,witness_count"]
    lines.extend(f"{n},{c}" for n, c, _ in report.per_n)
    return ("\n".join(lines) + "\n").encode()


class _Runtime(NamedTuple):
    """Read-only tables shared by every worker of one sweep."""

    table: SpfTable
    primes: bytes  # the primality the rows read: primes[n - base] is that of n
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
    mask = np.frombuffer(rt.primes, np.bool_)
    counts = goldbach.count_table(task, hi, mask, memory_budget=options.memory_budget)
    return rt._replace(counts=counts)


def _with_verdicts(task, rt, ns, hi, options):
    # the congruence route reads verdicts, never the sieve; they reach
    # 2 hi - 1, all that count_table reads, and a VerdictTable keeps the budget
    verdicts = VerdictTable(rt.table, options.memory_budget)
    verdicts.ensure(2 * hi - 1)
    rt = rt._replace(primes=verdicts.verdict_bytes)
    return _with_counts(task, rt, ns, hi, options)


def _with_block(task, rt, ns, hi, options):
    # the swept n only, so a narrow range high up certifies just that range
    block = certify_block(ns.start, hi, rt.table, memory_budget=options.memory_budget)
    return rt._replace(primes=block, base=ns.start)


def _row_certify(n, rt, options):
    prime_v = rt.primes[n - rt.base]
    ok = prime_v == rt.table.is_prime_bytes[n]  # the sieve stays the other side
    return (1 if ok else 0), ("Prime" if prime_v else "Composite"), ok


def _row_bertrand(n, rt, options):
    w = bertrand.first_bertrand_witness(n, rt.table)
    if options.first_witness_only:
        found = w is not None
        return (1 if found else 0), (w.x if found else None), found
    count = bertrand.bertrand_count(n, rt.table)
    # the identity count_identity_check states, without counting twice
    ok = count >= 1 and count == rt.pi.prime_pi(2 * n - 2) - rt.pi.prime_pi(n)
    return count, (w.x if w else None), ok


def _counted_row(n, fw, rt, options):
    """Row of a task whose count is rt.counts[n] outside first-witness mode."""
    found = fw is not None
    count = int(found) if options.first_witness_only else int(rt.counts[n])
    return count, fw, found and count >= 1


def _row_binary(n, rt, options):
    return _counted_row(n, goldbach._first_pair_y(2 * n, rt.primes), rt, options)


def _row_ternary(n, rt, options):
    w = goldbach.first_ternary_witness(n, rt.table)
    return _counted_row(n, (w.x, w.y) if w else None, rt, options)


def _row_peculiar(n, rt, options):
    w = goldbach.first_peculiar_witness(n, rt.table)
    return _counted_row(n, (w.x, w.y) if w else None, rt, options)


def _row_proposition(n, rt, options):
    # the check proposition_check makes, with the witness computed once
    w = goldbach.first_peculiar_witness(n, rt.table)
    ok = (w is not None) == goldbach.two_prime_sum_exists(n - 3, rt.table)
    return (1 if ok else 0), ((w.x, w.y) if w else None), ok


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
    row: Callable  # (n, rt, options) -> (count, first witness, ok)
    oracle: Callable  # (n, rt) -> the count the row should report
    setup: Callable = lambda task, rt, ns, hi, options: rt  # adds the tables rows read


_SPECS = {
    "certify": _Task(lambda hi: hi, 2, 1, _row_certify, _oracle_certify, _with_block),
    "bertrand": _Task(
        lambda hi: 2 * hi - 2, 4, 1, _row_bertrand, _oracle_bertrand, _with_pi
    ),
    "binary": _Task(lambda hi: 2 * hi, 2, 1, _row_binary, _oracle_binary, _with_counts),
    # certifying every value up to 2 hi - 1 needs no prime above isqrt(2 hi)
    "binary --via-fermat": _Task(
        lambda hi: math.isqrt(2 * hi), 4, 1, _row_binary, _oracle_binary, _with_verdicts
    ),
    "ternary": _Task(lambda hi: hi, 7, 2, _row_ternary, _oracle_ternary, _with_counts),
    "peculiar": _Task(
        lambda hi: hi, 7, 2, _row_peculiar, _oracle_peculiar, _with_counts
    ),
    "proposition": _Task(lambda hi: hi, 7, 2, _row_proposition, _oracle_proposition),
}


def _compute_chunk(spec: _Task, options: SweepOptions, rt: _Runtime, ns: range):
    row_fn = spec.row
    exists = options.first_witness_only  # rows count 1 when a witness exists
    rows = []
    failures = []
    for n in ns:
        count, fw, ok = row_fn(n, rt, options)
        if ok and options.verify_against_oracle:
            expected = spec.oracle(n, rt)
            ok = (expected > 0) == (count > 0) if exists else expected == count
        rows.append((n, count, fw))
        if not ok:
            failures.append(n)
    return rows, failures


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
    rt = spec.setup(task, _Runtime(table.warm(), table.is_prime_bytes), ns, hi, options)
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
