"""Workloads, process measurement and operation accounting.

Shared by the end-to-end runs (``run_workload`` here) and the traced run
(``trace_layers.py``).
"""

import hashlib
import os
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from checks import Command, Primes, check_report, compare_rows

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("witness-1e6", "counts-2w", "fermat-route")
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170  # the whole run, set-up and checks included

# The speed of this kind of shared host drifts by a fifth and more over
# minutes, for the program and for any other code alike. A fixed
# pure-Python reference loop is therefore timed after every command, and
# the run's times are scaled to the speed at which the mean of those
# timings is REFERENCE_S (see README.md). The raw times go to stderr.
REFERENCE_LOOPS = 1_500_000
REFERENCE_S = 0.25


def workload(name: str, seed: int, threads: int, scale: float = 1.0) -> list[Command]:
    """The CLI commands of one workload.

    The seed moves each range end down by at most a thousandth of the
    range; ``scale`` shrinks the ranges for the self-test.
    """
    rng = random.Random(f"{name}:{seed}")

    def cut(nominal: int) -> int:
        hi = max(int(nominal * scale), 64)
        return hi - rng.randrange(hi // 1000 + 1)

    if name == "witness-1e6":
        n = cut(500_000)
        return [
            Command("binary", 2, n, "json", first_witness_only=True),
            Command("ternary", 7, n, "csv", first_witness_only=True),
            Command("proposition", 7, n, "csv"),
        ]
    if name == "counts-2w":
        return [
            Command("binary", 2, cut(60_000), "csv", threads=threads, emit_counts=True),
            Command("bertrand", 4, cut(100_000), "json", threads=threads),
            Command("peculiar", 7, cut(100_000), "csv", threads=threads),
            Command("ternary", 7, cut(5_000), "csv", threads=threads),
        ]
    if name == "fermat-route":
        return [
            Command("certify", 2, cut(500_000), "csv"),
            Command("binary", 4, cut(20_000), "json", via_fermat=True),
            Command("binary", 4, cut(100_000), "csv", first_witness_only=True, via_fermat=True),
        ]
    raise ValueError(f"unknown workload {name!r}")


def last_n(cmd: Command) -> Command:
    """The same command on only the last eligible n of its range."""
    n = cmd.eligible()[-1]
    return replace(cmd, lo=n, hi=n)


def sub_range(cmd: Command, rng: random.Random) -> Command:
    """A seeded eighth of the range, on one worker."""
    width = (cmd.hi - cmd.lo) // 8
    lo = rng.randrange(cmd.lo, cmd.hi - width + 1)
    return replace(cmd, lo=lo, hi=lo + width, threads=1, emit_counts=False)


def reference_time() -> float:
    """Wall time of the fixed reference loop, run in this process."""
    table = list(range(1024))
    acc = 0
    t0 = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        v = table[i & 1023]
        if v * i % 7 == 3:
            acc += v
        else:
            acc ^= i
    return time.perf_counter() - t0


def log(*args) -> None:
    """Progress and diagnostics go to stderr; stdout carries the result."""
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mib: float
    code: int


class Deadline(Exception):
    pass


class Runner:
    """Starts CLI processes and reads their rusage when it reaps them.

    ``os.wait4`` reports the CLI process together with the workers it
    forked and reaped, so CPU and peak RSS cover the worker pool too.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.log_path = workdir / "cli.log"
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, args: list[str]) -> Proc:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline("out of time before starting a command")
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(self.log_path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        ]
        argv = [sys.executable, "-m", "phisystems", *args]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions, setsid=True)

        def kill(signum, frame):
            os.killpg(pid, signal.SIGKILL)

        old = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, ru = os.wait4(pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): take the command and its workers down too
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
            raise Deadline(f"killed at the deadline: {' '.join(args)}")
        return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))

    def run(self, cmd: Command, tag: str) -> tuple[Proc, bytes | None, bytes | None]:
        """Run one command; returns its process figures, report and counts."""
        out = self.workdir / f"{tag}.{cmd.fmt}"
        counts = self.workdir / f"{tag}.counts.csv" if cmd.emit_counts else None
        for path in (out, counts):
            if path is not None:
                path.unlink(missing_ok=True)
        proc = self.spawn(cmd.argv(str(out), counts and str(counts)))
        if proc.code != 0:
            return proc, None, None
        return proc, out.read_bytes(), counts and counts.read_bytes()


# ---------------------------------------------------------------- checking


class Ledger:
    """Checks each distinct report once and counts operations.

    Rounds of one command normally write byte-identical reports, so a
    report whose digest was already checked reuses that verdict.
    """

    def __init__(self, primes: Primes, seed: int):
        self.primes = primes
        self.seed = seed
        self.pending: dict = {}
        self.verdicts: dict = {}
        self.seen: list = []

    def add(self, key, cmd: Command, data: bytes | None, counts: bytes | None) -> None:
        digest = None
        if data is not None:
            digest = hashlib.sha256(data + b"\0" + (counts or b"")).hexdigest()
        self.seen.append((key, cmd, digest))
        if (key, digest) not in self.pending and (key, digest) not in self.verdicts:
            self.pending[key, digest] = (cmd, data, counts)

    def check(self) -> None:
        for (key, digest), (cmd, data, counts) in self.pending.items():
            self.verdicts[key, digest] = check_report(cmd, data, self.primes, self.seed, counts_data=counts)
        self.pending.clear()

    def totals(self) -> tuple[int, int, list]:
        attempted = failed = 0
        defects = []
        for key, cmd, digest in self.seen:
            verdict = self.verdicts[key, digest]
            attempted += len(cmd.eligible())
            failed += len(verdict.failed)
            defects += verdict.defects
        return attempted, failed, sorted(set(defects))


def run_workload(name: str, seed: int, seconds: int, runner: "Runner") -> dict:
    """Set-up samples, timed rounds for about ``seconds``, then the checks."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    cmds = workload(name, seed, threads)
    primes = Primes(max(c.sieve_limit() for c in cmds))
    log(f"{name}: seed {seed}, nproc {nproc}, {threads} worker(s) on the 2-worker commands")

    # warm the interpreter, bytecode and page cache once, untimed
    runner.spawn(["--help"])

    refs: list[float] = []
    setup_ledger = Ledger(primes, seed)
    setup_samples = []

    def setup_sample():
        total = 0.0
        for i, cmd in enumerate(cmds):
            one = last_n(cmd)
            proc, data, counts = runner.run(one, f"setup{len(setup_samples)}-{i}")
            refs.append(reference_time())
            total += proc.wall
            setup_ledger.add(i, one, data, counts)
        setup_samples.append(total)

    # set-up samples go before, between and after the rounds, so that both
    # medians are taken over the same stretch of the run; a new round starts
    # while at most half of it would run past ``seconds``
    ledger = Ledger(primes, seed)
    first_reports: dict = {}
    walls, cpus, rsss = [], [], []
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started) * (len(walls) + 0.5) / len(walls) < seconds:
        setup_sample()
        round_procs = []
        for i, cmd in enumerate(cmds):
            proc, data, counts = runner.run(cmd, f"round{len(walls)}-{i}")
            refs.append(reference_time())
            round_procs.append(proc)
            ledger.add(i, cmd, data, counts)
            first_reports.setdefault(i, data)
        walls.append(sum(p.wall for p in round_procs))
        cpus.append(sum(p.cpu for p in round_procs))
        rsss.append(max(p.rss_mib for p in round_procs))
        log(
            f"  round {len(walls)}: wall {walls[-1]:.3f} s, cpu {cpus[-1]:.3f} s, "
            f"peak rss {rsss[-1]:.1f} MiB, "
            + ", ".join(f"{c.task} {p.wall:.2f} s" for c, p in zip(cmds, round_procs))
        )
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_sample()

    # outside the timed region: independent checks, then the 2-worker
    # reports against 1-worker runs of a seeded sub-range
    ledger.check()
    setup_ledger.check()
    rng = random.Random(f"{name}:{seed}:sub")
    for i, cmd in enumerate(cmds):
        if cmd.threads > 1 and first_reports[i] is not None:
            sub = sub_range(cmd, rng)
            _, sub_data, _ = runner.run(sub, f"sub-{i}")
            bad = compare_rows(cmd, first_reports[i], sub, sub_data)
            for (key, _), verdict in ledger.verdicts.items():
                if key == i:
                    verdict.failed |= bad

    attempted, failed, defects = ledger.totals()
    _, setup_failed, setup_defects = setup_ledger.totals()
    if setup_failed:
        defects.append(f"{setup_failed} set-up run(s) on the last n failed their checks")
    defects += setup_defects
    for d in defects:
        log(f"  defect: {d}")
    log(
        f"  {len(walls)} round(s); setup samples "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
        + f" s; attempted {attempted}, failed {failed}"
    )
    speed = REFERENCE_S / statistics.fmean(refs)
    log(
        f"  reference loop {min(refs):.3f}/{statistics.fmean(refs):.3f}/{max(refs):.3f} s "
        f"min/mean/max over {len(refs)}; times below scaled by {speed:.4f}"
    )
    metrics = {
        "wall_s": (statistics.median(walls) * speed, "s"),
        "setup_s": (statistics.median(setup_samples) * speed, "s"),
        "cpu_s": (statistics.median(cpus) * speed, "s"),
        "peak_rss_mib": (statistics.median(rsss), "MiB"),
    }
    return {"correct": not defects, "attempted": attempted, "failed": failed, "metrics": metrics}
