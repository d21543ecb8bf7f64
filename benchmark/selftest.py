"""Tests of the benchmark's own checks.

    python3 benchmark/selftest.py

Runs every workload through the CLI at a tiny scale and requires the
checks to pass, then alters one row (or one counts line) of each report
and requires the checks to name exactly that n.
"""

import json
import random
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Primes, check_report, compare_rows  # noqa: E402
from harness import ROOT, WORKLOADS, Runner, last_n, sub_range, workload  # noqa: E402

SCALE = 0.002
SEED = 7


def _alter(cmd, data: bytes, rng: random.Random) -> tuple[bytes, int]:
    """Change one seeded row so that it is wrong; returns the bytes and its n."""
    if cmd.fmt == "json":
        obj = json.loads(data)
        row = obj["per_n"][rng.randrange(len(obj["per_n"]))]
        n, count, fw = row
        if cmd.task == "certify":
            row[2] = "Composite" if fw == "Prime" else "Prime"
        elif cmd.first_witness_only or cmd.task == "proposition":
            row[2] = [fw[0], fw[1] + 1] if isinstance(fw, list) else fw + 2
        else:
            row[1] = count + 1
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode(), n
    lines = data.decode().split("\n")
    i = 1 + rng.randrange(len(lines) - 2)
    n, count, fw = lines[i].split(",")
    if cmd.task == "certify":
        fw = "Composite" if fw == "Prime" else "Prime"
    elif cmd.first_witness_only or cmd.task == "proposition":
        fw = f"{fw.split(':')[0]}:{int(fw.split(':')[1]) + 1}" if ":" in fw else str(int(fw) + 2)
    else:
        count = str(int(count) + 1)
    lines[i] = f"{n},{count},{fw}"
    return "\n".join(lines).encode(), int(n)


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
        cls.runner = Runner(cls.tmp, time.monotonic() + 600)
        cls.reports = {}
        for name in WORKLOADS:
            for i, cmd in enumerate(workload(name, SEED, threads=2, scale=SCALE)):
                for kind, c in (("full", cmd), ("last", last_n(cmd))):
                    proc, data, counts = cls.runner.run(c, f"{name}-{i}-{kind}")
                    cls.reports[name, i, kind] = (c, proc, data, counts)
        limit = max(c.sieve_limit() for c, _, _, _ in cls.reports.values())
        cls.primes = Primes(limit)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_every_workload_passes(self):
        for (name, i, _), (cmd, proc, data, counts) in self.reports.items():
            with self.subTest(workload=name, command=cmd):
                self.assertEqual(proc.code, 0)
                verdict = check_report(cmd, data, self.primes, SEED, counts_data=counts)
                self.assertEqual((verdict.failed, verdict.defects), (set(), []))

    def test_one_altered_row_is_caught(self):
        rng = random.Random(SEED)
        for (name, i, kind), (cmd, _, data, counts) in self.reports.items():
            if kind != "full":
                continue
            with self.subTest(workload=name, command=cmd):
                bad, n = _alter(cmd, data, rng)
                failed = check_report(cmd, bad, self.primes, SEED, counts_data=counts).failed
                if cmd.task == "binary" and not cmd.first_witness_only:
                    # a wrong count breaks the range total, which names every n
                    self.assertIn(n, failed)
                else:
                    self.assertEqual(failed, {n})

    def test_counts_file_mismatch_is_caught(self):
        for (name, i, kind), (cmd, _, data, counts) in self.reports.items():
            if counts is None or kind != "full":
                continue
            lines = counts.decode().split("\n")
            n, c = lines[3].split(",")
            lines[3] = f"{n},{int(c) + 1}"
            verdict = check_report(cmd, data, self.primes, SEED, counts_data="\n".join(lines).encode())
            self.assertEqual(verdict.failed, {int(n)})

    def test_missing_row_and_failed_run(self):
        cmd, _, data, _ = self.reports["witness-1e6", 1, "full"]
        lines = data.decode().split("\n")
        n = int(lines[5].split(",")[0])
        del lines[5]
        verdict = check_report(cmd, "\n".join(lines).encode(), self.primes, SEED)
        self.assertEqual(verdict.failed, {n})
        self.assertEqual(check_report(cmd, None, self.primes, SEED).failed, set(cmd.eligible()))
        garbled = check_report(cmd, b"garbage", self.primes, SEED)
        self.assertEqual(garbled.failed, set(cmd.eligible()))
        self.assertTrue(garbled.defects)

    def test_sub_range_comparison(self):
        cmd, _, data, _ = self.reports["counts-2w", 1, "full"]
        sub = sub_range(cmd, random.Random(SEED))
        _, sub_data, _ = self.runner.run(sub, "sub")
        self.assertEqual(compare_rows(cmd, data, sub, sub_data), set())
        altered, n = _alter(sub, sub_data, random.Random(SEED))
        self.assertEqual(compare_rows(cmd, data, sub, altered), {n})


if __name__ == "__main__":
    unittest.main()
