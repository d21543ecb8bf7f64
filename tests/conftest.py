import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import phisystems
from phisystems import sweep
from phisystems.arith import PrimePi, build_spf
from phisystems.bertrand import bertrand_count, first_bertrand_witness
from phisystems.certify import certify_verdict
from phisystems.goldbach import (
    TernaryWitness,
    binary_count,
    fermat_system_solutions,
    first_binary_witness,
    first_peculiar_witness,
    first_ternary_witness,
    peculiar_count,
    proposition_check,
    ternary_count,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

TABLE_LIMIT = 50_000


def child_peak_rss(args, env=None):
    """The exit code, peak RSS in bytes and stderr of ``python *args``.

    A small parent process runs it and reads RUSAGE_CHILDREN, so that the
    peak is the child's own: Linux carries a process's peak RSS across
    exec, so a child started by the test process would report the test
    process's peak whenever that is higher.
    """
    code = (
        "import resource, subprocess, sys\n"
        f"run = subprocess.run([sys.executable, *{list(args)!r}], stdout=subprocess.DEVNULL)\n"
        "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(phisystems.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    returncode, kib = map(int, proc.stdout.split())
    return returncode, 1024 * kib, proc.stderr  # ru_maxrss is in KiB on Linux


@pytest.fixture(scope="session")
def table():
    return build_spf(TABLE_LIMIT).warm()


@pytest.fixture(scope="session")
def pi(table):
    return PrimePi.from_spf(table)


@pytest.fixture
def usable_cpus(monkeypatch):
    """usable_cpus(k) makes this process appear to run on k CPUs, so that a
    pooled sweep forks as many workers as a test asks for on any machine."""

    def set_count(k):
        cpus = set(range(k))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    return set_count


@pytest.fixture
def pooled(usable_cpus, monkeypatch):
    """pooled(k, width) makes this process appear to run on k CPUs and cuts
    sweeps into chunks of width n, so that a sweep of a few thousand n runs
    on a forked pool; it returns the list to which every pool started from
    then on appends its worker count."""
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # run_sweep imports the pool class where it forks, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)

    def set_up(k, width):
        usable_cpus(k)
        monkeypatch.setattr(sweep, "_CHUNK", width)
        return started

    return set_up


@pytest.fixture(scope="session")
def reference_rows(table):
    """rows(task, lo, hi, options): the (n, count, first witness) rows a
    sweep should report, built one n at a time from the public per-n
    functions."""
    kernels = {
        "bertrand": (bertrand_count, first_bertrand_witness),
        "binary": (binary_count, first_binary_witness),
        "ternary": (ternary_count, first_ternary_witness),
        "peculiar": (peculiar_count, first_peculiar_witness),
    }

    def count_and_witness(task, n, via_fermat):
        if task == "certify":
            v = certify_verdict(n, table)[0]
            return int(v == table.is_prime(n)), "Prime" if v else "Composite"
        if task == "proposition":
            w = first_peculiar_witness(n, table)
            return int(proposition_check(n, table)), (w.x, w.y) if w else None
        if task == "binary" and via_fermat:
            # without verdicts every value is certified afresh
            xs = fermat_system_solutions(n, table)
            return len(xs), xs[0] if xs else None
        count, witness = kernels[task]
        w = witness(n, table)
        if w is None:
            return count(n, table), None
        return count(n, table), (w.x, w.y) if isinstance(w, TernaryWitness) else w.x

    def rows(task, lo, hi, options):
        first = {"certify": 2, "bertrand": 4, "binary": 2}.get(task, 7)
        if task == "binary" and options.via_fermat:
            first = 4
        start = max(lo, first)
        ns = range(start, hi + 1) if first < 7 else range(start | 1, hi + 1, 2)
        out = []
        for n in ns:
            count, fw = count_and_witness(task, n, options.via_fermat)
            if options.first_witness_only and task not in ("certify", "proposition"):
                count = int(fw is not None)
            out.append((n, count, fw))
        return out

    return rows
