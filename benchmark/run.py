"""End-to-end benchmark of the phisystems CLI.

    python3 benchmark/run.py --workload witness-1e6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the CLI is started as
``python3 -m phisystems`` with ``src`` on PYTHONPATH, so nothing needs
installing. With ``--trace 0`` each CLI command of the workload runs in
its own process, reports go to files, and the run prints the end-to-end
metrics. With ``--trace 1`` it makes the traced run instead (see
``trace_layers.py``) and prints the per-layer metrics. Every report is
checked by ``checks.py`` outside the timed region. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; exit code 2 means there are no sources to run, 3 that the
run hit its deadline.
"""

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import DEADLINE_S, ROOT, WORKLOADS, Deadline, Runner, run_workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "phisystems" / "__init__.py").is_file():
        print(f"error: no phisystems sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        runner = Runner(workdir, deadline)
        if args.trace:
            from trace_layers import traced_run

            result = traced_run(args.workload, args.seed, runner, base / "trace-spans.npz")
        else:
            result = run_workload(args.workload, args.seed, args.seconds, runner)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}", file=sys.stderr)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
