"""The traced run: per-layer spans recorded from outside the program.

One process, one worker. Every public function of ``arith``, ``certify``,
``bertrand``, ``goldbach`` and ``sweep`` (plus ``cli.main`` and the
table methods ``SpfTable.warm``, ``PrimePi.from_spf`` and
``VerdictTable.ensure``) is replaced by a wrapper that records a span:
name, start, end and the span it was called from. The commands of all
three workloads run traced, in-process through ``cli.main``. Spans stay
in memory and are written to one ``.npz`` file at the end.

Each per-layer metric is read on the workload named with it in
``LAYER_METRICS``, so every metric comes from calls that happen. Each
command of the workload that ``--workload`` names also runs untraced
right before its traced run, and ``trace.overhead_pct`` compares the two
wall times.
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
import traceback
from array import array

import numpy as np

from checks import Primes
from harness import ROOT, WORKLOADS, Ledger, log, workload

MODULES = ("arith", "certify", "bertrand", "goldbach", "sweep")

# (span name, workload it is read on); each gives <name>_s, the total
# time over that workload's calls, and <name>_calls
LAYER_METRICS = (
    ("arith.build_spf", "witness-1e6"),
    ("arith.views", "witness-1e6"),
    ("arith.prime_pi", "counts-2w"),
    ("certify.verdict_table", "fermat-route"),
    ("certify.certify_verdict", "fermat-route"),
    ("goldbach.fermat_system_solutions", "fermat-route"),
    ("goldbach.first_binary_witness", "witness-1e6"),
    ("goldbach.first_ternary_witness", "witness-1e6"),
    ("goldbach.proposition_check", "witness-1e6"),
    ("goldbach.binary_count", "counts-2w"),
    ("goldbach.ternary_count", "counts-2w"),
    ("goldbach.peculiar_count", "counts-2w"),
    ("bertrand.bertrand_count", "counts-2w"),
    ("bertrand.count_identity_check", "counts-2w"),
    ("sweep.run_sweep", "witness-1e6"),
    ("sweep.emit_report", "witness-1e6"),
)
STARTUP_REPEATS = 5


class Tracer:
    """Spans in four flat columns; ``parent`` is a row index or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.stats: dict = {}

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        name_col, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if on_return is not None:
                on_return(out, args)
            return out

        return traced

    def columns(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )


def _table_bytes(table) -> int:
    """Bytes held by a sieve table: every array, byte string and list in it."""
    total = 0
    for v in vars(table).values():
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, bytes):
            total += len(v)
        elif isinstance(v, list):
            total += sys.getsizeof(v) + sum(sys.getsizeof(x) for x in v)
    return total


@contextlib.contextmanager
def installed(tracer: Tracer, pkg):
    """Swap every binding of the traced callables for its wrapper."""
    mods = {m: importlib.import_module(f"phisystems.{m}") for m in (*MODULES, "cli")}
    stats = tracer.stats

    def keep_max(key, value):
        stats[key] = max(stats.get(key, 0), value)

    def after_warm(table, args):
        keep_max("table_bytes", _table_bytes(table))

    def after_sweep(report, args):
        stats["rows"] = stats.get("rows", 0) + report.checked

    def after_emit(data, args):
        keep_max("report_bytes", len(data))

    functions = {}
    for m in MODULES:
        for attr in mods[m].__all__:
            fn = getattr(mods[m], attr)
            if inspect.isfunction(fn) and fn.__module__ == mods[m].__name__:
                hook = {"run_sweep": after_sweep, "emit_report": after_emit}.get(attr)
                functions[fn] = tracer.wrap(f"{m}.{attr}", fn, hook)
    functions[mods["cli"].main] = tracer.wrap("cli.main", mods["cli"].main)

    methods = [
        (mods["arith"].SpfTable, "warm", "arith.views", after_warm),
        (mods["arith"].PrimePi, "from_spf", "arith.prime_pi", None),
        (mods["certify"].VerdictTable, "ensure", "certify.verdict_table", None),
    ]
    saved_methods = []
    for cls, attr, name, hook in methods:
        raw = vars(cls).get(attr)
        if raw is None:
            continue  # a layer the program no longer has reads 0 calls
        saved_methods.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, hook))

    saved = []
    for mod in (pkg, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in functions:
                saved.append((mod, attr, value))
                setattr(mod, attr, functions[value])
    try:
        yield mods["cli"]
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
        for cls, attr, raw in saved_methods:
            setattr(cls, attr, raw)


def _run_command(cli, cmd, runner, ledger, key, tag) -> float:
    """Run one command through ``cli.main``; returns its wall time."""
    out = runner.workdir / f"{tag}.{cmd.fmt}"
    counts = runner.workdir / f"{tag}.counts.csv" if cmd.emit_counts else None
    with open(runner.log_path, "a") as stream, contextlib.redirect_stderr(stream):
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.argv(str(out), counts and str(counts)))
        except Exception:  # a crash fails the command's n, as a nonzero exit would
            traceback.print_exc(file=stream)
            code = -1
        wall = time.perf_counter() - t0
    data = out.read_bytes() if code == 0 else None
    ledger.add(key, cmd, data, counts.read_bytes() if code == 0 and counts else None)
    return wall


def traced_run(name: str, seed: int, runner, spans_path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import phisystems
    from phisystems import cli

    plans = {wl: workload(wl, seed, threads=1) for wl in WORKLOADS}
    primes = Primes(max(c.sieve_limit() for cmds in plans.values() for c in cmds))
    ledger = Ledger(primes, seed)
    tracer = Tracer()
    bounds, stats = {}, {}
    plain = traced = 0.0
    for wl, cmds in plans.items():
        first = len(tracer.start)
        tracer.stats = stats[wl] = {}
        for i, cmd in enumerate(cmds):
            if wl == name:
                # untraced right before traced, so both see the same machine
                plain += _run_command(cli, cmd, runner, ledger, (wl, i), f"{wl}-{i}-plain")
            with installed(tracer, phisystems) as traced_cli:
                wall = _run_command(traced_cli, cmd, runner, ledger, (wl, i), f"{wl}-{i}")
            traced += wall if wl == name else 0.0
        bounds[wl] = (first, len(tracer.start))
        log(f"{wl}: {bounds[wl][1] - first} spans")
    overhead = 100 * (traced - plain) / plain
    log(f"{name}: untraced {plain:.3f} s, traced {traced:.3f} s, tracing overhead {overhead:.1f} %")

    startup = statistics.median(runner.spawn(["--help"]).wall for _ in range(STARTUP_REPEATS))
    ledger.check()
    attempted, failed, defects = ledger.totals()
    for d in defects:
        log(f"  defect: {d}")

    name_col, parent, start, end = tracer.columns()
    dur = (end - start) / 1e9
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    ids = {}
    for i, n in enumerate(tracer.names):
        ids.setdefault(n, []).append(i)

    def select(span, wl):
        lo, hi = bounds[wl]
        return lo + np.flatnonzero(np.isin(name_col[lo:hi], ids.get(span, [])))

    metrics = {"cli.startup_s": (startup, "s")}
    for span, wl in LAYER_METRICS:
        rows = select(span, wl)
        metrics[f"{span}_s"] = (float(dur[rows].sum()), "s")
        metrics[f"{span}_calls"] = (len(rows), "count")
    rows = select("sweep.run_sweep", "witness-1e6")
    metrics["sweep.self_s"] = (float((dur[rows] - child[rows]).sum()), "s")
    witness = stats["witness-1e6"]
    metrics["arith.table_mib"] = (witness.get("table_bytes", 0) / 2**20, "MiB")
    metrics["sweep.report_mib"] = (witness.get("report_bytes", 0) / 2**20, "MiB")
    metrics["sweep.rows"] = (witness.get("rows", 0), "count")
    metrics["trace.overhead_pct"] = (overhead, "%")

    np.savez(
        spans_path,
        names=np.array(tracer.names),
        name=name_col,
        parent=parent,
        start_ns=start,
        end_ns=end,
        workloads=np.array(list(bounds)),
        bounds=np.array(list(bounds.values())),
    )
    log(f"{len(dur)} spans written to {spans_path}; attempted {attempted}, failed {failed}")
    return {"correct": not defects, "attempted": attempted, "failed": failed, "metrics": metrics}
