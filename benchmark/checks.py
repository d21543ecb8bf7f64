"""Independent checks of phisystems reports.

Everything here is computed from a plain Eratosthenes sieve written in
this file and from the definitions of the statements, never from
``phisystems`` itself. Each check returns the set of n whose row is
wrong or missing, plus a list of defects that belong to no single n
(a wrong header, a row for an n outside the range); the caller counts
every listed n as a failed operation.

Row conventions, read from the README and the report format: a report
row is ``(n, witness_count, first_witness)``. Pair witnesses are the
offset x of the split (n - x, n + x) with x in [0, n - 3] (n = 2 reports
x = 0 for 4 = 2 + 2). Triple witnesses are (x, y) with components
(n - x - y, 2x - n, n - x + y) under 0 <= y < x < x + y + 2 < n + 1 < 2x,
ordered lexicographically. In first-witness mode the count is 1 when a
witness exists.
"""

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np


def prime_mask(limit: int) -> np.ndarray:
    """Boolean primality of 0..limit by the sieve of Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


class Primes:
    """Sieve views the checks share: mask, bytes for scalar scans, pi."""

    def __init__(self, limit: int):
        self.mask = prime_mask(limit)
        self.bytes = self.mask.tobytes()
        self.pi = np.cumsum(self.mask, dtype=np.int64)
        self.list = np.flatnonzero(self.mask)


# ---------------------------------------------------------------- parsing


@dataclass
class Rows:
    """A parsed report: rows in file order, plus the JSON-only fields."""

    ns: list
    counts: list
    witnesses: list
    failures: list | None = None
    header: dict = field(default_factory=dict)


def _csv_witness(cell: str):
    if cell == "":
        return None
    if ":" in cell:
        x, y = cell.split(":")
        return (int(x), int(y))
    if cell.isdigit():
        return int(cell)
    return cell


def parse_report(data: bytes, fmt: str) -> Rows:
    """Parse a JSON or CSV report; raises ValueError on a malformed one."""
    if fmt == "json":
        obj = json.loads(data)
        rows = obj["per_n"]
        witnesses = [tuple(fw) if isinstance(fw, list) else fw for _, _, fw in rows]
        header = {k: obj[k] for k in ("task", "range", "checked", "config")}
        return Rows(
            [int(r[0]) for r in rows],
            [int(r[1]) for r in rows],
            witnesses,
            [int(n) for n in obj["failures"]],
            header,
        )
    lines = data.decode().split("\n")
    if lines[0] != "n,witness_count,first_witness" or lines[-1] != "":
        raise ValueError("not a phisystems CSV report")
    ns, counts, witnesses = [], [], []
    for line in lines[1:-1]:
        n, c, fw = line.split(",")
        ns.append(int(n))
        counts.append(int(c))
        witnesses.append(_csv_witness(fw))
    return Rows(ns, counts, witnesses)


def parse_counts(data: bytes) -> list[tuple[int, int]]:
    """Parse an --emit-counts file into (n, count) pairs."""
    lines = data.decode().split("\n")
    if lines[0] != "n,witness_count" or lines[-1] != "":
        raise ValueError("not a phisystems counts file")
    return [tuple(int(v) for v in line.split(",")) for line in lines[1:-1]]


# ------------------------------------------------------ definitions, per n


def pair_count(n: int, mask: np.ndarray) -> int:
    """Number of x in [0, n-3] with n - x and n + x prime; 1 for n = 2."""
    if n == 2:
        return 1
    # n + x for x = 0..n-3 against n - x for the same x
    return int(np.count_nonzero(mask[n : 2 * n - 2] & mask[3 : n + 1][::-1]))


def first_pair(n: int, b: bytes) -> int | None:
    """Lowest x in [0, n-3] with n - x and n + x prime; 0 for n = 2."""
    for x in range(0, max(n - 3, 0) + 1):
        if b[n - x] and b[n + x]:
            return x
    return None


def first_triple(n: int, b: bytes, with3: bool = False) -> tuple[int, int] | None:
    """Lexicographically first chain pair (x, y) with all components prime.

    With ``with3`` only triples whose first or second component is 3 count.
    """
    for x in range((n + 1) // 2 + 1, n):
        q = 2 * x - n
        if not b[q]:
            continue
        ys = range(0, min(x, n - 1 - x))
        if with3 and q != 3:
            ys = [n - x - 3] if n - x - 3 in ys else []
        for y in ys:
            if b[n - x - y] and b[n - x + y]:
                return (x, y)
    return None


def triple_count(n: int, mask: np.ndarray) -> int:
    """Number of chain pairs (x, y) with all three components prime."""
    total = 0
    for x in range((n + 1) // 2 + 1, n):
        if mask[2 * x - n]:
            ys = np.arange(0, min(x, n - 1 - x))
            total += int(np.count_nonzero(mask[n - x - ys] & mask[n - x + ys]))
    return total


def with3_count(n: int, mask: np.ndarray) -> int:
    """Number of chain pairs whose first (p) or second (q) component is 3."""
    found = set()
    # q = 3: x is fixed, every admissible y with p and r prime
    x = (n + 3) // 2
    ys = np.arange(0, min(x, n - 1 - x))
    ok = mask[n - x - ys] & mask[n - x + ys]
    found.update((x, int(y)) for y in ys[ok])
    # p = 3: y = n - x - 3 for each admissible x, with q and r prime
    xs = np.arange((n + 1) // 2 + 1, n)
    ys = n - xs - 3
    ok = (ys >= 0) & (ys < xs) & (ys < n - 1 - xs)
    xs, ys = xs[ok], ys[ok]
    ok = mask[2 * xs - n] & mask[n - xs + ys]
    found.update((int(a), int(c)) for a, c in zip(xs[ok], ys[ok]))
    return len(found)


# ------------------------------------------------------ vectorized validity


def _pair_ok(ns: np.ndarray, xs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    ok = (xs >= 0) & (xs <= np.maximum(ns - 3, 0))
    xs = np.where(ok, xs, 0)
    return ok & mask[ns - xs] & mask[ns + xs]


def _triple_ok(ns, xs, ys, mask, with3=False) -> np.ndarray:
    p, q, r = ns - xs - ys, 2 * xs - ns, ns - xs + ys
    ok = (0 <= ys) & (ys < xs) & (xs + ys + 2 < ns + 1) & (ns + 1 < 2 * xs)
    ok &= (p + q + r == ns) & (p >= 0) & (q >= 0) & (r >= 0) & (r <= len(mask) - 1)
    p, q, r = (np.where(ok, v, 0) for v in (p, q, r))
    ok &= mask[p] & mask[q] & mask[r]
    if with3:
        ok &= (p == 3) | (q == 3)
    return ok


# ---------------------------------------------------------------- commands


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    task: str
    lo: int
    hi: int
    fmt: str = "csv"
    first_witness_only: bool = False
    via_fermat: bool = False
    threads: int = 1
    emit_counts: bool = False

    def eligible(self) -> range:
        """The n the CLI checks on [lo, hi], by the documented domains."""
        if self.task in ("ternary", "peculiar", "proposition"):
            start = max(self.lo, 7)
            return range(start + (start % 2 == 0), self.hi + 1, 2)
        if self.task == "bertrand" or self.via_fermat:
            return range(max(self.lo, 4), self.hi + 1)
        return range(max(self.lo, 2), self.hi + 1)

    def argv(self, out: str, counts_out: str | None = None) -> list[str]:
        args = [self.task, "--from", str(self.lo), "--to", str(self.hi)]
        args += ["--format", self.fmt, "--out", out, "--threads", str(self.threads)]
        if self.first_witness_only:
            args.append("--first-witness-only")
        if self.via_fermat:
            args.append("--via-fermat")
        if counts_out:
            args += ["--emit-counts", counts_out]
        return args

    def sieve_limit(self) -> int:
        return 2 * self.hi + 2

    def config(self) -> dict:
        return {
            "first_witness_only": self.first_witness_only,
            "verify_against_oracle": False,
            "via_fermat": self.via_fermat,
        }


@dataclass
class CheckResult:
    failed: set
    defects: list


def check_report(
    cmd: Command,
    data: bytes | None,
    primes: Primes,
    seed: int,
    sample: int = 100,
    counts_data: bytes | None = None,
) -> CheckResult:
    """Check one report of ``cmd``; ``data`` is None when the run failed."""
    eligible = cmd.eligible()
    if data is None:
        return CheckResult(set(eligible), [])
    try:
        rows = parse_report(data, cmd.fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return CheckResult(set(eligible), [f"unreadable report: {exc}"])

    defects = []
    failed = set(rows.failures or ()) & set(eligible)
    if rows.header:
        expect = {
            "task": cmd.task,
            "range": [cmd.lo, cmd.hi],
            "checked": len(eligible),
            "config": cmd.config(),
        }
        defects += [f"{k} is {rows.header[k]!r}" for k in expect if rows.header[k] != expect[k]]
    if rows.ns != list(eligible):
        present = set(rows.ns)
        failed |= set(eligible) - present
        extra = present - set(eligible)
        if extra or len(present) != len(rows.ns):
            defects.append("rows outside the range or repeated")
        if extra or not rows.ns:
            return CheckResult(failed | set(eligible), defects)
        # keep the rows that are there, in eligible order, for the checks
        keep = {n: i for i, n in enumerate(rows.ns)}
        order = [keep[n] for n in eligible if n in keep]
        rows = Rows(
            [rows.ns[i] for i in order],
            [rows.counts[i] for i in order],
            [rows.witnesses[i] for i in order],
        )

    ns = np.array(rows.ns, dtype=np.int64)
    cs = np.array(rows.counts, dtype=np.int64)
    bad = _check_rows(cmd, ns, cs, rows.witnesses, primes)
    failed.update(ns[bad].tolist())

    # every row of a short report, else both ends and a seeded sample
    picks = range(len(ns))
    if len(ns) > sample:
        rng = random.Random(f"{seed}:{cmd.task}:{cmd.lo}:{cmd.hi}")
        picks = sorted({0, len(ns) - 1, *rng.sample(picks, sample)})
    for i in picks:
        n = int(ns[i])
        if not _exact_row(cmd, n, int(cs[i]), rows.witnesses[i], primes):
            failed.add(n)

    if cmd.task == "binary" and not cmd.first_witness_only:
        # the counts must add up to an independent count of prime pairs
        if int(cs.sum()) != _pairs_total(cmd, primes):
            failed.update(ns.tolist())
    if counts_data is not None:
        try:
            pairs = parse_counts(counts_data)
        except ValueError as exc:
            return CheckResult(failed | set(eligible), defects + [f"counts file: {exc}"])
        expected = list(zip(ns.tolist(), cs.tolist()))
        if pairs != expected:
            emitted = dict(pairs)
            failed.update(n for n, c in expected if emitted.get(n) != c)
            if len(pairs) != len(expected):
                defects.append("counts file rows differ from the report's")
    return CheckResult(failed, defects)


def _witness_arrays(witnesses, width):
    """Witness cells as int arrays, -1 where a cell is absent or malformed."""
    out = np.full((len(witnesses), width), -1, dtype=np.int64)
    for i, fw in enumerate(witnesses):
        if width == 1 and isinstance(fw, int):
            out[i, 0] = fw
        elif width == 2 and isinstance(fw, tuple) and len(fw) == 2:
            out[i] = fw
    return out


def _check_rows(cmd, ns, cs, witnesses, primes) -> np.ndarray:
    """Vectorized per-row check; returns the mask of bad rows."""
    mask = primes.mask
    task = cmd.task
    if task == "certify":
        verdict = np.array([fw == "Prime" for fw in witnesses])
        known = np.array([fw in ("Prime", "Composite") for fw in witnesses])
        return ~known | (cs != 1) | (verdict != mask[ns])
    if task == "bertrand":
        nxt = primes.list[np.searchsorted(primes.list, ns, side="right")]
        xs = _witness_arrays(witnesses, 1)[:, 0]
        expected = primes.pi[2 * ns - 3] - primes.pi[ns]
        if cmd.first_witness_only:
            expected = np.minimum(expected, 1)
        return (cs != expected) | (xs != nxt - ns) | (xs >= ns - 2)
    if task == "binary":
        xs = _witness_arrays(witnesses, 1)[:, 0]
        bad = ~_pair_ok(ns, xs, mask)
        return bad | (cs != 1) if cmd.first_witness_only else bad | (cs < 1)
    xy = _witness_arrays(witnesses, 2)
    bad = ~_triple_ok(ns, xy[:, 0], xy[:, 1], mask, with3=task != "ternary")
    if cmd.first_witness_only or task == "proposition":
        # a valid triple with a 3 also splits n - 3 into two primes, so both
        # sides of the proposition hold and its row must read 1
        return bad | (cs != 1)
    return bad | (cs < 1)


def _exact_row(cmd, n, count, fw, primes) -> bool:
    """Definition-level recomputation of one row."""
    b = primes.bytes
    task = cmd.task
    if task in ("certify", "bertrand"):
        return True  # already exact for every row
    if task == "binary":
        if fw != first_pair(n, b):
            return False
        return cmd.first_witness_only or count == pair_count(n, primes.mask)
    first = first_triple(n, b, with3=task != "ternary")
    if fw != first:
        return False
    if cmd.first_witness_only or task == "proposition":
        return True
    if task == "ternary":
        return count == triple_count(n, primes.mask)
    return count == with3_count(n, primes.mask)


def _pairs_total(cmd, primes) -> int:
    """Sum of pair counts over the eligible n: unordered prime pairs
    3 <= p <= q with 2*lo' <= p + q <= 2*hi, plus the lone 2 + 2."""
    ns = cmd.eligible()
    lo, hi = ns[0], ns[-1]
    ps = primes.list[(primes.list >= 3) & (primes.list <= hi)]
    # q runs over primes in [max(p, 2*lo - p), 2*hi - p]
    low = np.maximum(ps, 2 * lo - ps)
    total = primes.pi[2 * hi - ps] - primes.pi[low - 1]
    return int(np.clip(total, 0, None).sum()) + (1 if lo <= 2 else 0)


def compare_rows(cmd: Command, data: bytes, sub: Command, sub_data: bytes | None) -> set:
    """n of ``sub``'s range whose rows differ between the two reports."""
    if sub_data is None:
        return set(sub.eligible())
    try:
        mine = parse_report(data, cmd.fmt)
        theirs = parse_report(sub_data, sub.fmt)
    except (ValueError, KeyError, TypeError, IndexError):
        return set(sub.eligible())
    want = dict(zip(theirs.ns, zip(theirs.counts, theirs.witnesses)))
    have = {n: r for n, r in zip(mine.ns, zip(mine.counts, mine.witnesses)) if n in want}
    return {n for n in sub.eligible() if want.get(n) is None or have.get(n) != want[n]}
