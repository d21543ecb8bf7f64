"""Deterministic range sweeps over the verification tasks.

A sweep partitions [lo, hi] into contiguous chunks, evaluates each n
independently (optionally on a pool of forked workers that share the
read-only tables), and merges chunk results in range order, so the report
is identical for any worker count. In count mode the pair, triple and
triple-with-3 tasks read every count from one ``goldbach.count_table``
built before the workers fork. The JSON and CSV renderings carry no
timing or parallelism information for the same reason; elapsed time lives
on the report object and in the human table format only.
"""

import json
import multiprocessing
import sys
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bertrand, goldbach, oracle
from .arith import DEFAULT_MEMORY_BUDGET, PrimePi, SpfTable, build_spf
from .certify import VerdictTable, certify_verdict

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
    reports; threads, chunking and the memory budget cannot change any
    reported value and are excluded to keep output byte-deterministic."""

    first_witness_only: bool = False
    verify_against_oracle: bool = False
    via_fermat: bool = False
    threads: int = 1
    chunk_size: int = 4096
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
    per_n: tuple[tuple, ...] | None
    failures: tuple[int, ...]
    config: dict
    elapsed: float = field(default=0.0, compare=False)

    @property
    def checked(self) -> int:
        return len(self.per_n or ())

    @classmethod
    def from_json(cls, data: bytes | str) -> "RangeReport":
        obj = json.loads(data)
        lo, hi = obj["range"]
        per_n = tuple(
            (int(n), int(c), _fw_from_json(fw)) for n, c, fw in obj["per_n"]
        )
        return cls(
            task=obj["task"],
            lo=int(lo),
            hi=int(hi),
            per_n=per_n,
            failures=tuple(int(n) for n in obj["failures"]),
            config=dict(obj["config"]),
        )


def _fw_to_json(fw: FirstWitness):
    return list(fw) if isinstance(fw, tuple) else fw


def _fw_from_json(fw) -> FirstWitness:
    return tuple(fw) if isinstance(fw, list) else fw


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
            "failures": list(report.failures),
            "config": report.config,
            "per_n": [[n, c, _fw_to_json(fw)] for n, c, fw in (report.per_n or ())],
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(f"{n},{c},{_fw_to_csv(fw)}" for n, c, fw in (report.per_n or ()))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "table":
        head = (
            f"task: {report.task}   range: [{report.lo}, {report.hi}]   "
            f"checked: {report.checked}   failures: {len(report.failures)}   "
            f"elapsed: {report.elapsed:.3f}s"
        )
        lines = [head]
        rows = report.per_n or ()
        if rows:
            cells = [(str(n), str(c), _fw_to_csv(fw)) for n, c, fw in rows]
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
    lines.extend(f"{n},{c}" for n, c, _ in (report.per_n or ()))
    return ("\n".join(lines) + "\n").encode()


class _Runtime:
    """Read-only tables shared by every worker of one sweep."""

    __slots__ = ("table", "pi", "verdicts", "counts")

    def __init__(
        self,
        table: SpfTable,
        pi: PrimePi | None,
        verdicts: VerdictTable | None,
        counts: np.ndarray | None,
    ):
        self.table = table
        self.pi = pi
        self.verdicts = verdicts
        self.counts = counts


def _sieve_limit(task: str, hi: int, options: SweepOptions) -> int:
    if task == "bertrand":
        need = 2 * hi - 2
    elif task == "binary":
        # the raw-form cross-check under oracle verification factors
        # values up to 2n - 2; size generously per the 4n scan interval
        need = 4 * hi if options.verify_against_oracle else 2 * hi
    else:  # certify, ternary, peculiar, proposition
        need = hi
    return max(need, 4)


def _eligible(task: str, lo: int, hi: int, options: SweepOptions) -> range:
    if task in ("ternary", "peculiar", "proposition"):
        start = max(lo, 7)
        if start % 2 == 0:
            start += 1
        return range(start, hi + 1, 2)
    if task == "bertrand" or (task == "binary" and options.via_fermat):
        return range(max(lo, 4), hi + 1)
    return range(max(lo, 2), hi + 1)  # certify, binary


def _row_certify(n, rt, options):
    prime_v, _failing = certify_verdict(n, rt.table)
    ok = prime_v == bool(rt.table.is_prime_bytes[n])
    return (1 if ok else 0), ("Prime" if prime_v else "Composite"), ok


def _row_bertrand(n, rt, options):
    if options.first_witness_only:
        w = bertrand.first_bertrand_witness(n, rt.table)
        found = w is not None
        return (1 if found else 0), (w.x if found else None), found
    count = bertrand.bertrand_count(n, rt.table)
    fw = bertrand.first_bertrand_witness(n, rt.table)
    # the identity count_identity_check states, without counting twice
    ok = count >= 1 and count == rt.pi(2 * n - 2) - rt.pi(n)
    return count, (fw.x if fw else None), ok


def _row_binary(n, rt, options):
    if options.via_fermat:
        if options.first_witness_only:
            arr = rt.verdicts.ensure(2 * n - 3)
            for x in range(0, n - 2):
                if arr[n - x] and arr[n + x]:
                    return 1, x, True
            return 0, None, False
        xs = goldbach.fermat_system_solutions(n, rt.table, verdicts=rt.verdicts)
        return len(xs), (xs[0] if xs else None), bool(xs)
    if options.first_witness_only:
        w = goldbach.first_binary_witness(n, rt.table)
        found = w is not None
        return (1 if found else 0), (w.x if found else None), found
    count = int(rt.counts[n])
    w = goldbach.first_binary_witness(n, rt.table)
    return count, (w.x if w else None), count >= 1


def _row_ternary(n, rt, options):
    w = goldbach.first_ternary_witness(n, rt.table)
    found = w is not None
    fw = (w.x, w.y) if found else None
    if options.first_witness_only:
        return (1 if found else 0), fw, found
    return int(rt.counts[n]), fw, found


def _row_peculiar(n, rt, options):
    w = goldbach.first_peculiar_witness(n, rt.table)
    found = w is not None
    fw = (w.x, w.y) if found else None
    if options.first_witness_only:
        return (1 if found else 0), fw, found
    return int(rt.counts[n]), fw, found


def _row_proposition(n, rt, options):
    # the check proposition_check makes, with the witness computed once
    w = goldbach.first_peculiar_witness(n, rt.table)
    ok = (w is not None) == goldbach.two_prime_sum_exists(n - 3, rt.table)
    return (1 if ok else 0), ((w.x, w.y) if w else None), ok


_ROW = {
    "certify": _row_certify,
    "bertrand": _row_bertrand,
    "binary": _row_binary,
    "ternary": _row_ternary,
    "peculiar": _row_peculiar,
    "proposition": _row_proposition,
}


def _oracle_agrees(task: str, n: int, count: int, rt, options) -> bool:
    """Slow per-n cross-check against the trial-division oracle."""
    existence = options.first_witness_only
    if task == "certify":
        return oracle.oracle_is_prime(n) == bool(rt.table.is_prime_bytes[n])
    if task == "bertrand":
        ps = oracle.trial_primes_upto(2 * n - 3)
        expected = bisect_right(ps, 2 * n - 3) - bisect_right(ps, n)
        return (expected > 0) == (count > 0) if existence else expected == count
    if task == "binary":
        pairs = oracle.oracle_pairs(2 * n).pairs
        expected = len(pairs) if n == 2 else sum(1 for p, _ in pairs if p != 2)
        return (expected > 0) == (count > 0) if existence else expected == count
    if task == "ternary":
        expected = len(oracle.oracle_triples(n))
        return (expected > 0) == (count > 0) if existence else expected == count
    if task == "peculiar":
        expected = sum(1 for p, q, _ in oracle.oracle_triples(n) if p == 3 or q == 3)
        return (expected > 0) == (count > 0) if existence else expected == count
    if task == "proposition":
        left = any(p == 3 or q == 3 for p, q, _ in oracle.oracle_triples(n))
        right = len(oracle.oracle_pairs(n - 3).pairs) > 0
        return (left == right) == (count == 1)
    raise ValueError(f"unknown task {task!r}")


def _compute_chunk(task: str, lo: int, hi: int, options: SweepOptions, rt: _Runtime):
    row_fn = _ROW[task]
    rows = []
    failures = []
    for n in _eligible(task, lo, hi, options):
        count, fw, ok = row_fn(n, rt, options)
        if ok and options.verify_against_oracle:
            ok = _oracle_agrees(task, n, count, rt, options)
        rows.append((n, count, fw))
        if not ok:
            failures.append(n)
    return rows, failures


# set in the parent right before the pool forks; workers inherit it read-only
_WORKER_RUNTIME: _Runtime | None = None


def _chunk_entry(args):
    task, lo, hi, options = args
    return _compute_chunk(task, lo, hi, options, _WORKER_RUNTIME)


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
    pi: PrimePi | None = None,
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

    started = time.perf_counter()
    need = _sieve_limit(task, hi, options)
    if table is None:
        table = build_spf(need, memory_budget=options.memory_budget)
    elif table.limit < need:
        raise ValueError(f"table limit {table.limit} is below the required {need}")
    if pi is None and task == "bertrand" and not options.first_witness_only:
        pi = PrimePi.from_spf(table)
    verdicts = None
    if task == "binary" and options.via_fermat:
        verdicts = VerdictTable(table)
        verdicts.ensure(max(2 * hi - 3, 2))
    counts = None
    if not options.first_witness_only and (
        task in ("ternary", "peculiar") or (task == "binary" and not options.via_fermat)
    ):
        # count mode off the congruence route: every count from one table
        counts = goldbach.count_table(
            task, hi, table, memory_budget=options.memory_budget
        )
    table.warm(nu=(task == "binary" and options.verify_against_oracle))
    rt = _Runtime(table, pi, verdicts, counts)

    step = max(1, options.chunk_size)
    chunks = [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]
    threads = max(1, options.threads)
    parts = []
    if (
        threads > 1
        and len(chunks) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        global _WORKER_RUNTIME
        _WORKER_RUNTIME = rt
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(threads, len(chunks)), mp_context=ctx
            ) as pool:
                args = [(task, a, b, options) for a, b in chunks]
                for done, part in enumerate(pool.map(_chunk_entry, args), start=1):
                    parts.append(part)
                    _progress(done, len(chunks))
        finally:
            _WORKER_RUNTIME = None
    else:
        for done, (a, b) in enumerate(chunks, start=1):
            parts.append(_compute_chunk(task, a, b, options, rt))
            _progress(done, len(chunks))

    rows: list[tuple] = []
    failures: list[int] = []
    for chunk_rows, chunk_failures in parts:
        rows.extend(chunk_rows)
        failures.extend(chunk_failures)
    return RangeReport(
        task=task,
        lo=lo,
        hi=hi,
        per_n=tuple(rows),
        failures=tuple(failures),
        config=options.config(),
        elapsed=time.perf_counter() - started,
    )
