"""Re-measure the baseline figures that ROADMAP.md lists.

    python3 benchmark/baseline.py

Each figure is timed in this process against the sources under ``src``
and printed next to the ROADMAP value; a figure that differs from it by
more than a tenth is flagged. Short figures are the median of three.
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from phisystems import SweepOptions, build_spf, certify_verdict, run_sweep  # noqa: E402
from phisystems.goldbach import binary_count, first_binary_witness  # noqa: E402


def _timed(fn, repeats=1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _nu_values():
    table = build_spf(2_000_000)
    return _timed(lambda: table.nu_values)


def _loop(limit, lo, hi, fn):
    table = build_spf(limit).warm()
    return _timed(lambda: [fn(n, table) for n in range(lo, hi + 1)])


FIGURES = (
    ("build_spf(2e6)", 0.04, lambda: _timed(lambda: build_spf(2_000_000), 3)),
    ("nu_values at 2e6", 0.65, lambda: statistics.median(_nu_values() for _ in range(3))),
    ("certify_verdict over [2, 1e6]", 7.9, lambda: _loop(10**6, 2, 10**6, certify_verdict)),
    ("first_binary_witness over [2, 1e6]", 6.1, lambda: _loop(2 * 10**6, 2, 10**6, first_binary_witness)),
    ("binary_count over [2, 1e5]", 6.5, lambda: _loop(2 * 10**5, 2, 10**5, binary_count)),
    (
        'run_sweep("binary", 2, 1e5), 1 worker',
        8.1,
        lambda: _timed(lambda: run_sweep("binary", 2, 10**5, SweepOptions(threads=1))),
    ),
    (
        'run_sweep("binary", 2, 1e5), 2 workers',
        5.3,
        lambda: _timed(lambda: run_sweep("binary", 2, 10**5, SweepOptions(threads=2))),
    ),
)


def main() -> int:
    print("| figure | ROADMAP (s) | measured (s) | change |\n|---|---:|---:|---:|")
    for name, roadmap, measure in FIGURES:
        value = measure()
        change = value / roadmap - 1
        flag = " **differs**" if abs(change) > 0.1 else ""
        print(f"| {name} | {roadmap:.2f} | {value:.3f} | {change:+.0%}{flag} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
