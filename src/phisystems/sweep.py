"""Deterministic range sweeps over the verification tasks.

Each task's rules sit in one entry of a task table: the sieve limit and
the shared tables its rows read, its eligible n, its rows, and the count
the trial-division oracle expects. The rows read one primality mask: the
sieve's, the congruence verdicts of ``binary --via-fermat``, or one
``certify.certify_block`` of the swept n. In count mode the pair, triple
and triple-with-3 rows read every count from one ``goldbach.count_table``
over that mask, except where a pair or triple-with-3 range is so narrow
that counting each of its n by byte passes over the mask reads fewer
bytes than a measured constant times the FFT's points and bits: then the
swept n alone are counted, and no FFT runs.

A task's rows take a whole chunk of n at once and come from array passes
over it: the first pair witnesses from ``goldbach.first_pair_y_block``
(at m = n for pairs, at m = (n - 3) / 2 for triples, whose first middle
prime is 3), which tries each offset y on the chunk's consecutive m of
one parity at once, as three byte passes over two contiguous slices of
the mask's odd values, then walks the few m left open over the mask's
primes r >= m + y until 2m - r is prime too, reading a window a margin
past the chunk; bertrand's next prime and prime count
from ``searchsorted`` on the chunk's primes and a window below 2n - 2;
and the certify rows from comparing the block with the sieve. Only a
ternary n without a q = 3 witness, and the oracle check of
--verify-against-oracle, are handled one n at a time.

Rows are columns from the chunk to the report, each of the narrowest
dtype its values' bound allows: the witness count (uint8 where it is 0 or
1, int64 for triple counts), the first witness x (-1 where none was
found) and y for triple tasks, int32 while hi < 2^31, and certify's
verdict as a uint8 0 or 1. The n of a row is its place in the range. One
writer renders every format, of reports from these columns and of single
certificates from their moduli and residues, 2^14 rows at a time: two
digits a pass, from the remainder by 100, into a byte matrix whose unused
places hold 0 and are dropped.

A sweep cuts the eligible n into contiguous chunks of a fixed width, 2^17
n, runs the chunks in line on one worker or on a pool of threads (at most
one per usable CPU and one per chunk, so a sweep of one chunk starts no
pool), which read the tables built before the chunks start and release
the interpreter lock in their numpy passes, and merges the columns in
range order, so the report is identical for any worker count. For the
same reason the JSON and CSV renderings carry no timing or parallelism
information; elapsed time lives on the report object and in the human
table format.
"""

import contextlib
import math
import os
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import goldbach
from .arith import PrimePi, SpfTable, _sieve_bytes, build_spf
from .certify import Certificate, Verdict, _block_bytes, certify_block

__all__ = [
    "CSV_HEADER",
    "DEFAULT_MEMORY_BUDGET",
    "MemoryBudgetError",
    "RangeReport",
    "SweepOptions",
    "TASKS",
    "emit_report",
    "run_sweep",
]

TASKS = ("certify", "bertrand", "binary", "ternary", "peculiar", "proposition")
FORMATS = ("json", "csv", "table")
CSV_HEADER = "n,witness_count,first_witness"
# a certify row's x indexes these
_VERDICT_NAMES = (Verdict.COMPOSITE.value, Verdict.PRIME.value)
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes


class MemoryBudgetError(Exception):
    """A run would hold more than the configured memory budget."""


def _check_budget(parts: list[tuple[int, str]], budget: int) -> None:
    """Raise MemoryBudgetError, listing the parts, when the parts, (bytes,
    what) pairs held at once, need more than the budget together."""
    needed = sum(nbytes for nbytes, _ in parts)
    if needed > budget:
        *rest, last = [what for _, what in parts]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise MemoryBudgetError(f"{listed} needs {needed} bytes, budget is {budget}")


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


@dataclass(eq=False)
class RangeReport:
    """Aggregate result of verifying one task over [lo, hi].

    One row per eligible n, held as columns in the order of ns: count is
    the witness count (in first-witness mode 1 when any witness exists)
    and x the first witness, -1 where none was found. Triple tasks add y,
    their witness being the pair (x, y); a certify row's x is its verdict,
    0 for Composite and 1 for Prime. Each column takes the narrowest dtype
    its bound allows: uint8 for a count that is 0 or 1 and for verdicts,
    int64 for triple counts, and int32 for the other counts and the
    witnesses while hi < 2^31. failures lists every n whose check did not
    hold (no witness, a failed identity, or an oracle mismatch when oracle
    verification was requested)."""

    task: str
    lo: int
    hi: int
    ns: range
    count: np.ndarray
    x: np.ndarray
    failures: tuple[int, ...]
    config: dict
    y: np.ndarray | None = None
    elapsed: float = 0.0

    @property
    def checked(self) -> int:
        return len(self.ns)


_ROW_SLICE = 1 << 14  # report rows rendered at a time, so their passes stay in cache


def _slice_bytes(rows: int, chars: int) -> int:
    """What the writer holds for its one slice of a text of rows rows, each
    of at most chars characters: per row, up to _ROW_SLICE of them, 4 bytes
    per character (the byte matrix, its bytes, and them without their 0s)
    and 64 of digit passes and row masks."""
    return min(rows, _ROW_SLICE) * (4 * chars + 64)


class _Seg(NamedTuple):
    """One piece of every row of a slice: the literal text, one of the
    words picked per row by values, or the digits of values, one per row,
    trimmed or right-aligned in pad places. It is written on the rows where
    rows is set, or on all."""

    text: bytes = b""
    values: np.ndarray | None = None
    rows: np.ndarray | None = None
    pad: int = 0
    words: tuple[bytes, ...] = ()


def _width(s: _Seg) -> int:
    if s.words:
        return max(map(len, s.words))
    if s.values is None:
        return len(s.text)
    return s.pad or len(str(int(s.values.max())))


def _digits(q: np.ndarray, out: np.ndarray, pad: int) -> None:
    """Write the decimal digits of q right-aligned into the places of out,
    a row per place, two places a pass from the remainder by 100. A place
    left of a value's first digit is a space when pad is set, else 0, which
    the row drops; the last place always holds a digit."""
    blank = ord(" ") if pad else 0
    last = len(out) - 1
    for ones in range(last, -1, -2):
        higher = q // 100
        # garbage where q is -1, on a row that does not write it
        pair = (q - 100 * higher).astype(np.uint8)
        tens = pair // 10
        pair -= 10 * tens
        out[ones] = _blanked(pair, q != 0 if ones < last else True, blank)
        if ones:
            out[ones - 1] = _blanked(tens, q >= 10, blank)
        q = higher


def _blanked(digit: np.ndarray, shown, blank: int) -> np.ndarray:
    """The ASCII digits where shown is set, else blank, in place of digit;
    by arithmetic, not a masked write, so that it takes no branch per row."""
    digit += ord("0") - blank
    digit *= shown
    digit += blank
    return digit


def _rows_bytes(segments: list[_Seg], rows: int) -> bytes:
    """Lay the segments in one byte matrix, a row of it per place and a
    column per report row, so that each write is contiguous, and read it
    back a report row at a time without the places that hold 0: the
    leading places of a short number, the end of a short word, and
    segments off their rows. No report text holds a 0 byte. A segment that
    no row writes takes no place."""
    segments = [s for s in segments if s.rows is None or s.rows.any()]
    widths = [_width(s) for s in segments]
    cells = np.empty((sum(widths), rows), np.uint8)
    at = 0
    for s, width in zip(segments, widths):
        out = cells[at : at + width]
        at += width
        if s.words:  # left-aligned, ended by 0s
            words = np.zeros((width, len(s.words)), np.uint8)
            for i, word in enumerate(s.words):
                words[: len(word), i] = np.frombuffer(word, np.uint8)
            # mode="wrap" takes -1, a row not written, as the last word
            np.take(words, s.values, axis=1, out=out, mode="wrap")
        elif s.values is None:
            out[:] = np.frombuffer(s.text, np.uint8)[:, None]
        else:
            _digits(s.values, out, s.pad)
        if s.rows is not None:
            out *= s.rows
    return cells.T.tobytes().translate(None, b"\0")


def _segments(report: RangeReport, fmt: str, rows: slice, pads) -> list[_Seg]:
    """The segments of the report rows in the slice rows, in format fmt;
    pads are the widths of the table's n and count columns, else (0, 0)."""
    ns = report.ns[rows]
    n = np.arange(ns.start, ns.stop, ns.step, dtype=_value_dtype(ns[-1]))
    n = _Seg(values=n, pad=pads[0])
    count = _Seg(values=report.count[rows], pad=pads[1])
    if fmt == "counts":
        return [n, _Seg(b","), count, _Seg(b"\n")]
    x = report.x[rows]
    found = x >= 0
    json_ = fmt == "json"
    if report.task == "certify":
        quote = b'"' if json_ else b""
        words = tuple(quote + v.encode() + quote for v in _VERDICT_NAMES)
        cell = [_Seg(values=x, rows=found, words=words)]
    elif report.y is not None:
        left, mid, right = (b"[", b",", b"]") if json_ else (b"", b":", b"")
        y = report.y[rows]
        pair = [_Seg(left), _Seg(values=x), _Seg(mid), _Seg(values=y), _Seg(right)]
        cell = [s._replace(rows=found) for s in pair]
    else:
        cell = [_Seg(values=x, rows=found)]
    sep = _Seg(b"  " if fmt == "table" else b",")
    if not json_:
        return [n, sep, count, sep, *cell, _Seg(b"\n")]
    between = _Seg(b",", rows=np.arange(rows.start, rows.stop) > 0)
    null = _Seg(b"null", rows=~found)
    return [between, _Seg(b"["), n, sep, count, sep, *cell, null, _Seg(b"]")]


def _json_head(header: dict, key: str) -> bytes:
    """The compact JSON of header, left open with key as its last key and
    the opening of its list of rows: the rows go in that same object."""
    import json  # loaded by a JSON head alone

    opened = json.dumps(header, separators=(",", ":"))[:-1]
    return f'{opened},"{key}":['.encode()


def _report_slices(report: RangeReport, fmt: str) -> Iterator[bytes]:
    """The report in fmt, one of FORMATS or "counts", as consecutive byte
    strings: the head, a slice of _ROW_SLICE rows at a time, and the tail.
    The one renderer of every report format and of the counts CSV."""
    head, tail, pads = b"", b"", (0, 0)
    if fmt == "json":
        header = {
            "task": report.task,
            "range": [report.lo, report.hi],
            "checked": report.checked,
            "failures": report.failures,
            "config": report.config,
        }
        head, tail = _json_head(header, "per_n"), b"]}\n"
    elif fmt == "csv":
        head = (CSV_HEADER + "\n").encode()
    elif fmt == "counts":
        head = b"n,witness_count\n"
    else:
        lines = [
            f"task: {report.task}   range: [{report.lo}, {report.hi}]   "
            f"checked: {report.checked}   failures: {len(report.failures)}   "
            f"elapsed: {report.elapsed:.3f}s"
        ]
        if report.checked:
            # n ascends, so the last is the widest
            wn = len(str(report.ns[-1]))
            pads = (wn, max(len("witnesses"), len(str(int(report.count.max())))))
            lines.append(f"{'n':>{wn}}  {'witnesses':>{pads[1]}}  first")
        head = "".join(f"{line}\n" for line in lines).encode()
        if report.failures:
            shown = ", ".join(str(n) for n in report.failures[:50])
            more = "" if len(report.failures) <= 50 else ", ..."
            tail = f"failures: {shown}{more}\n".encode()
    yield head
    for i in range(0, report.checked, _ROW_SLICE):
        rows = slice(i, min(i + _ROW_SLICE, report.checked))
        yield _rows_bytes(_segments(report, fmt, rows, pads), rows.stop - rows.start)
    yield tail


def _certificate_slices(cert: Certificate, fmt: str) -> Iterator[bytes]:
    """The certificate in fmt, one of FORMATS, as consecutive byte strings
    by the reports' writer: the head, a slice of _ROW_SLICE checks at a
    time, and the tail. A check's row holds its modulus p, the subject as
    literal text, so that an m of any size renders, p - 1 and the residue."""
    m, failing, checks = cert.subject, cert.failing_modulus, len(cert.moduli)
    base, tail = str(m).encode(), b""
    if fmt == "json":
        header = {"subject": m, "verdict": cert.verdict.value, "failing_modulus": failing}
        head, tail = _json_head(header, "checks"), b"]}\n"
    elif fmt == "csv":
        head = b"modulus,base,exponent,residue\n"
    else:
        root = f"congruences over primes p <= isqrt({m}) = {math.isqrt(m)}:"
        lines = [f"subject: {m}", f"verdict: {cert.verdict.value}", root]
        if not checks:
            lines.append("  (empty system)")
        head = "".join(f"{line}\n" for line in lines).encode()
        if failing is not None:
            tail = f"failing modulus: {failing}\n".encode()
    yield head
    for i in range(0, checks, _ROW_SLICE):
        rows = slice(i, min(i + _ROW_SLICE, checks))
        moduli, residues = cert.moduli[rows], cert.residues[rows]
        p, e, r = _Seg(values=moduli), _Seg(values=moduli - 1), _Seg(values=residues)
        if fmt == "json":
            between = _Seg(b",", rows=np.arange(rows.start, rows.stop) > 0)
            segments = [between, _Seg(b'{"modulus":'), p, _Seg(b',"base":' + base)]
            segments += [_Seg(b',"exponent":'), e, _Seg(b',"residue":'), r, _Seg(b"}")]
        elif fmt == "csv":
            segments = [p, _Seg(b"," + base + b","), e, _Seg(b","), r, _Seg(b"\n")]
        else:
            fails = _Seg(b"   <- fails", rows=residues != 1)
            segments = [_Seg(b"  " + base + b"^"), e, _Seg(b" mod "), p, _Seg(b" = ")]
            segments += [r, fails, _Seg(b"\n")]
        yield _rows_bytes(segments, rows.stop - rows.start)
    yield tail


def emit_report(report: RangeReport, fmt: str) -> bytes:
    """Render a report as bytes: json, csv, human-aligned table, or counts.

    json mirrors the report fields minus elapsed; csv is the fixed header
    n,witness_count,first_witness plus one row per n (pairs as "x:y");
    counts is the (n, witness_count) CSV of --emit-counts, for external
    plotting. Counts are identical across formats.
    """
    formats = (*FORMATS, "counts")
    if fmt not in formats:
        raise ValueError(f"unknown format {fmt!r}; expected one of {formats}")
    return b"".join(_report_slices(report, fmt))


class _Runtime(NamedTuple):
    """Read-only tables shared by every worker of one sweep."""

    table: SpfTable
    primes: np.ndarray  # the primality the rows read: primes[n - base] is that of n
    base: int = 0
    pi: PrimePi | None = None
    counts: np.ndarray | None = None  # counts[n - counts_base] is the count of n
    counts_base: int = 0


class _Table(NamedTuple):
    """A table the rows read besides the sieve: its byte rule and how it is built."""

    bytes: Callable  # (task, ns, hi, need) -> (bytes, what)
    build: Callable  # (task, rt, ns, hi) -> rt with the table
    counts_only: bool = True  # left unbuilt in first-witness mode


_PRIME_COUNTS = _Table(  # PrimePi keeps a uint32 running sum per value
    lambda task, ns, hi, need: (4 * (need + 1), f"prime counts over [0, {need}]"),
    lambda task, rt, ns, hi: rt._replace(pi=PrimePi.from_spf(rt.table)),
)


# The per-n count of one n from the mask, for the tasks that have one, and
# the bytes it reads per unit of n: the two slices of n values of the pairs
# of 2n; the two of (n - 3) / 2 values of peculiar's q = 3 branch and the
# two of n - 10 of its p = 3 branch. A ternary count of one n takes about
# pi(n) n / 2, so ternary always takes count_table.
_PER_N_COUNTS = {
    "binary": (lambda n, mask: goldbach._pair_count(2 * n, mask), 2),
    "peculiar": (goldbach._peculiar_count, 3),
}
# What count_table costs per point of its FFT length L and bit of L, in
# bytes read by the per-n counts: it takes 1.3-2.1 ns a point and bit for L
# from 2^14 to 2^20 (3.6 ns at 2^23), where the per-n counts take 0.40-0.45
# ns a byte for n from 10^4 to 4 * 10^6 (2-vCPU guest, numpy 2.4, medians
# of 7 to 30 runs).
_FFT_BYTES = 4


def _per_n_count(task: str, ns: range, hi: int) -> Callable | None:
    """The per-n count of task, where its passes over the swept n read fewer
    bytes than _FFT_BYTES per point and bit of count_table's FFT; None where
    count_table costs less."""
    if task not in _PER_N_COUNTS:
        return None
    count, reads = _PER_N_COUNTS[task]
    rows = max(0, (hi - ns.start) // ns.step + 1)
    last = ns.start + (rows - 1) * ns.step
    length = goldbach._count_table_length(task, hi)
    fft = _FFT_BYTES * length * (length.bit_length() - 1)
    return count if reads * rows * (ns.start + last) // 2 < fft else None


def _counts_bytes(task, ns, hi, need):
    """The per-n counts hold an int64 per n from the first swept n to hi and
    one pass's bytes, fewer than hi; count_table holds what it counts."""
    if _per_n_count(task, ns, hi) is None:
        return goldbach._count_table_bytes(task, hi)
    return 8 * max(0, hi - ns.start + 1) + hi, f"per-n counts over [{ns.start}, {hi}]"


def _build_counts(task, rt, ns, hi):
    count = _per_n_count(task, ns, hi)
    if count is None:
        return rt._replace(counts=goldbach.count_table(task, hi, rt.primes))
    counts = np.zeros(max(0, hi - ns.start + 1), dtype=np.int64)
    for n in ns:
        counts[n - ns.start] = count(n, rt.primes)
    return rt._replace(counts=counts, counts_base=ns.start)


_COUNTS = _Table(_counts_bytes, _build_counts)
# the congruence route reads verdicts, never the sieve: a block from 0
# through 2 hi - 1, all that count_table and the pair kernel read
_VERDICTS = _Table(
    lambda task, ns, hi, need: (
        _block_bytes(0, 2 * hi - 1), f"verdict table over [0, {2 * hi - 1}]"
    ),
    lambda task, rt, ns, hi: rt._replace(primes=certify_block(0, 2 * hi - 1, rt.table)),
    counts_only=False,
)
# the swept n only, so a narrow range high up certifies just that range
_BLOCK = _Table(
    lambda task, ns, hi, need: (
        _block_bytes(ns.start, hi), f"certifying the block [{ns.start}, {hi}]"
    ),
    lambda task, rt, ns, hi: rt._replace(
        primes=certify_block(ns.start, hi, rt.table), base=ns.start
    ),
    counts_only=False,
)


# A task's rows take one chunk ns and return whether each n's check held,
# as a bool array, and the chunk's columns in the order of ns: the counts,
# the first witnesses x (-1 where none was found) and, for triples, their
# y, from whole-array passes over the chunk. The merge casts each column
# to the dtype of its report column.
def _rows_certify(ns, rt, options):
    verdicts = rt.primes[ns.start - rt.base : ns.stop - rt.base]
    # the sieve stays the other side
    ok = verdicts == rt.table.is_prime_mask[ns.start : ns.stop]
    return ok, (ok.astype(np.uint8), verdicts.astype(np.uint8))


def _rows_bertrand(ns, rt, options):
    a, b = ns.start, ns[-1]
    n = np.arange(a, b + 1)
    mask, top = rt.primes, 2 * b - 2
    # the next prime above b, or top when none lies below it (b >= 4)
    beyond = next(goldbach._primes_from(mask, b + 1, top), top)
    # the primes p with a < p <= b, then the next one
    primes = np.append(np.flatnonzero(mask[a + 1 : b + 1]) + a + 1, beyond)
    after = np.searchsorted(primes, n, side="right")  # the first prime above n
    x = primes[after] - n
    found = x < n - 2  # that prime lies below 2n - 2
    x[~found] = -1
    if options.first_witness_only:
        return found, (found.astype(np.uint8), x)
    # the primes in (n, 2n - 2) in three parts: the chunk's, those between
    # the chunk and c = max(b + 1, 2a - 2), and those of a window [c, top);
    # 2n - 2 lies in (b + 1, c) for no n of the chunk
    c = max(b + 1, 2 * a - 2)
    count = np.searchsorted(primes[:-1], 2 * n - 2) - after
    del primes
    count[2 * n - 2 > b + 1] += np.count_nonzero(mask[b + 1 : c])
    count += np.searchsorted(np.flatnonzero(mask[c:top]) + c, 2 * n - 2)
    # the identity count_identity_check states, against PrimePi's running sums
    cumulative = rt.pi.cumulative
    ok = (count >= 1) & (count == cumulative[2 * n - 2] - cumulative[n])
    return ok, (count, x)


def _count_rows(ns, found, witnesses, rt, options):
    """Rows of a task whose count is rt.counts[n] outside first-witness mode."""
    if options.first_witness_only:
        return found, (found.astype(np.uint8), *witnesses)
    base = rt.counts_base
    counts = rt.counts[ns.start - base : ns.stop - base : ns.step]
    return found & (counts >= 1), (counts, *witnesses)


def _rows_binary(ns, rt, options):
    y = goldbach.first_pair_y_block(np.arange(ns.start, ns.stop), rt.primes)
    return _count_rows(ns, y >= 0, (y,), rt, options)


def _q3_witnesses(ns, rt):
    """The first witnesses with q = 3 of the odd n of ns, from the pair of
    n - 3 about m = (n - 3) / 2; q = 3 gives the smallest x = m + 3."""
    m0 = (ns.start - 3) // 2
    m = np.arange(m0, m0 + len(ns))
    y = goldbach.first_pair_y_block(m, rt.primes)
    found = y >= 0
    return found, (np.where(found, m + 3, -1), y)


def _rows_ternary(ns, rt, options):
    found, (x, y) = _q3_witnesses(ns, rt)
    # an n with no q = 3 witness takes the scan over larger q
    for i in np.flatnonzero(~found).tolist():
        w = goldbach.first_ternary_witness(ns[i], rt.table)
        if w is not None:
            x[i], y[i], found[i] = w.x, w.y, True
    return _count_rows(ns, found, (x, y), rt, options)


def _rows_peculiar(ns, rt, options):
    return _count_rows(ns, *_q3_witnesses(ns, rt), rt, options)


def _rows_proposition(ns, rt, options):
    # the check proposition_check makes: a q = 3 witness exists iff n - 3 is
    # a sum of two primes, the right side by rounds over the mask's primes
    found, witnesses = _q3_witnesses(ns, rt)
    totals = range(ns.start - 3, ns.stop - 3, ns.step)
    ok = found == goldbach._two_prime_sums(totals, rt.table)
    return ok, (ok.astype(np.uint8), *witnesses)


# Oracles give the count a row should report, by trial division; certify
# and proposition rows count 1 when their check holds against it. They take
# the oracle module, which only --verify-against-oracle loads.
def _oracle_certify(oracle, n, rt):
    return int(oracle.oracle_is_prime(n) == bool(rt.table.is_prime_mask[n]))


def _oracle_bertrand(oracle, n, rt):
    return oracle._trial_prime_count(2 * n - 3) - oracle._trial_prime_count(n)


def _oracle_binary(oracle, n, rt):
    # 2 + (2n - 2) is a split only at n = 2, so every pair counts
    return len(oracle.oracle_pairs(2 * n).pairs)


def _oracle_ternary(oracle, n, rt):
    return len(oracle.oracle_triples(n))


def _oracle_peculiar(oracle, n, rt):
    return sum(1 for p, q, _ in oracle.oracle_triples(n) if p == 3 or q == 3)


def _oracle_proposition(oracle, n, rt):
    peculiar = _oracle_peculiar(oracle, n, rt) > 0
    return int(peculiar == bool(oracle.oracle_pairs(n - 3).pairs))


def _value_dtype(hi: int) -> type:
    """The dtype of a column of values in [-1, hi]: int32 while hi < 2^31."""
    return np.int32 if hi < 2**31 else np.int64


# A report column's dtype from hi and whether the rows count only whether
# a witness exists, each sized to the bound of its values.
def _flag(hi, first_witness_only):  # 0 or 1: a check held, or a verdict
    return np.uint8


def _value(hi, first_witness_only):  # a first witness x or y, at most n
    return _value_dtype(hi)


def _count(hi, first_witness_only):  # at most n pairs, or n primes
    return np.uint8 if first_witness_only else _value_dtype(hi)


def _triple_count(hi, first_witness_only):  # 18,671,596,757 at n < 10^7
    return np.uint8 if first_witness_only else np.int64


class _Task(NamedTuple):
    """One task's rules."""

    sieve: Callable[[int], int]  # hi -> the sieve limit its rows read
    first: int  # eligible n: first, first + step, ... up to hi
    step: int
    rows: Callable  # (ns, rt, options) -> (ok, columns)
    oracle: Callable  # (oracle module, n, rt) -> the count the row should report
    # n -> the name and value of the largest argument the oracle takes at
    # n, which ORACLE_LIMIT bounds; None when the oracle has no bound
    reach: Callable[[int], tuple[str, int]] | None
    tables: tuple[_Table, ...] = ()  # built in order, each reading the last
    # the dtype rules of its columns: count, x and, for triples, y
    columns: tuple[Callable[[int, bool], type], ...] = (_count, _value)
    # the rows' bytes per n of a chunk (tracemalloc peaks over chunks of
    # 2^17 n up to 10^7: 34 for pairs, triples and proposition, with room
    # for RSS), and (n of a chunk, hi) -> the values spanned by the
    # widest window of primes the chunk's rows walk, if any
    row_bytes: int = 0
    walk: Callable[[int, int], int] = lambda width, hi: 0


def _pairs(n):
    return "total", 2 * n


def _pair_window(scale):
    """The walk of first_pair_y_block over a chunk's width consecutive m:
    its first window, a margin past them, in a prefix of scale * hi values
    (the m of n up to hi lie below hi / scale, and their walks below
    2 max(m) - 2). A retried m walks again after that window is freed, over
    a wider margin that is not counted; below 10^7 no m is retried."""
    return lambda width, hi: min(width + goldbach._PAIR_MARGIN, scale * hi)


def _triples(n):
    return "n =", n


_SPECS = {
    "certify": _Task(
        lambda hi: hi, 2, 1, _rows_certify, _oracle_certify, None, (_BLOCK,),
        (_flag, _flag), row_bytes=24,
    ),
    # the walk: the chunk's primes, then, not held with them, the primes of a
    # window [c, 2 max(n) - 2) of at most 2 width values
    "bertrand": _Task(
        lambda hi: 2 * hi - 2, 4, 1, _rows_bertrand, _oracle_bertrand,
        lambda n: ("limit", 2 * n - 3), (_PRIME_COUNTS,),
        row_bytes=64, walk=lambda width, hi: min(2 * width, 2 * hi),
    ),
    "binary": _Task(
        lambda hi: 2 * hi, 2, 1, _rows_binary, _oracle_binary, _pairs, (_COUNTS,),
        row_bytes=48, walk=_pair_window(2),
    ),
    # certifying every value up to 2 hi - 1 needs no prime above isqrt(2 hi)
    "binary --via-fermat": _Task(
        lambda hi: math.isqrt(2 * hi), 4, 1, _rows_binary, _oracle_binary, _pairs,
        (_VERDICTS, _COUNTS), row_bytes=48, walk=_pair_window(2),
    ),
    "ternary": _Task(
        lambda hi: hi, 7, 2, _rows_ternary, _oracle_ternary, _triples, (_COUNTS,),
        (_triple_count, _value, _value),
        row_bytes=48, walk=_pair_window(1),
    ),
    "peculiar": _Task(
        lambda hi: hi, 7, 2, _rows_peculiar, _oracle_peculiar, _triples, (_COUNTS,),
        (_triple_count, _value, _value),
        row_bytes=48, walk=_pair_window(1),
    ),
    "proposition": _Task(
        lambda hi: hi, 7, 2, _rows_proposition, _oracle_proposition, _triples, (),
        (_flag, _value, _value),
        row_bytes=48, walk=_pair_window(1),
    ),
}


def _tables(spec: _Task, options: SweepOptions) -> list[_Table]:
    return [t for t in spec.tables if not (options.first_witness_only and t.counts_only)]


def _dtypes(spec: _Task, hi: int, options: SweepOptions) -> list[type]:
    return [column(hi, options.first_witness_only) for column in spec.columns]


def _footprint(task, spec, ns, hi, need, rows, workers, options) -> list[tuple[int, str]]:
    """What a sweep holds at its peak, as (bytes, what) parts: the sieve,
    the report rows and the tables the rows read. The rows hold columns,
    each at its dtype's width, a chunk's temporaries and one window of
    walked primes in each worker, 24 bytes per walked prime (fewer than
    2w / ln w, plus the walk's end, in a window of w values, by Montgomery
    and Vaughan's Brun-Titchmarsh bound),
    and the writer's slice, of rows of at most 5d + 24 characters for d
    digits of hi."""
    row = sum(np.dtype(dtype).itemsize for dtype in _dtypes(spec, hi, options))
    report = row * rows + spec.row_bytes * min(rows, _CHUNK * workers)
    walk = spec.walk(min(rows, _CHUNK), hi)
    if walk > 1:
        report += 24 * workers * (int(2 * walk / math.log(walk)) + 1)
    report += _slice_bytes(rows, 5 * len(str(hi)) + 24)
    parts = [(_sieve_bytes(need), f"prime sieve over [2, {need}]")]
    parts.append((report, f"{rows} report rows"))
    return parts + [t.bytes(task, ns, hi, need) for t in _tables(spec, options)]


def _compute_chunk(spec: _Task, options: SweepOptions, rt: _Runtime, ns: range):
    ok, columns = spec.rows(ns, rt, options)
    if options.verify_against_oracle:
        from . import oracle

        counts = columns[0]
        exists = options.first_witness_only  # rows count 1 when a witness exists
        for i in np.flatnonzero(ok).tolist():
            expected = spec.oracle(oracle, ns[i], rt)
            count = int(counts[i])
            ok[i] = (expected > 0) == (count > 0) if exists else expected == count
    failures = [ns[i] for i in np.flatnonzero(~ok).tolist()]
    return columns, failures


def _worker_count(threads: int) -> int:
    """threads, at least 1 and at most the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus))


# A sweep cuts its n into contiguous chunks of _CHUNK n, the last perhaps
# shorter, and runs on at most one worker per chunk. The width bounds what
# the workers hold: a chunk's temporaries and walked primes stay fixed as
# ranges grow. The pool's cost does not set it: on a 2-vCPU guest, importing
# the thread pool takes 7-11 ms in a fresh process and starting, mapping and
# joining one 0.3-0.5 ms (9 runs), while a chunk of 2^17 n near 10^6 costs
# 3-10 ms of bertrand, pair and triple rows, counted or first witness only,
# 12 ms of proposition rows with their two-prime sums and 0.03 ms of
# certify's (best of 7).
_CHUNK = 1 << 17


def _chunks(ns: range) -> list[range]:
    """ns in contiguous chunks of _CHUNK n, in order."""
    return [ns[i : i + _CHUNK] for i in range(0, len(ns), _CHUNK)]


def _progress(done: int, total: int) -> None:
    if sys.stderr is not None and sys.stderr.isatty():  # None: fd 2 closed
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
    start = max(lo, spec.first)
    ns = range(start + (start - spec.first) % spec.step, hi + 1, spec.step)
    reach = None
    if options.verify_against_oracle and ns and spec.reach:
        from . import oracle

        reach = spec.reach(ns[-1])
        oracle._refuse_past_limit(*reach)
    need = max(spec.sieve(hi), 4)
    rows = max(0, (hi - ns.start) // spec.step + 1)  # len(ns) stops at 2^63 - 1
    workers = min(_worker_count(options.threads), -(-rows // _CHUNK))  # one per chunk
    parts = _footprint(task, spec, ns, hi, need, rows, workers, options)
    _check_budget(parts, options.memory_budget)
    if reach:
        # the oracle's prime cache grows without a lock: grown once here,
        # the chunks only read it
        oracle._ensure_primes(reach[1])
    if table is None:
        table = build_spf(need)
    elif table.limit < need:
        raise ValueError(f"table limit {table.limit} is below the required {need}")
    rt = _Runtime(table.warm(), table.is_prime_mask)
    for t in _tables(spec, options):
        rt = t.build(task, rt, ns, hi)
    chunks = _chunks(ns)
    columns = [np.empty(rows, dtype) for dtype in _dtypes(spec, hi, options)]
    failures: list[int] = []
    with contextlib.ExitStack() as stack:
        chunk_map = map  # one worker: the chunks run in line
        if workers > 1:  # imported here, so a sweep on one worker skips it
            from concurrent.futures import ThreadPoolExecutor

            chunk_map = stack.enter_context(ThreadPoolExecutor(workers)).map
        parts = chunk_map(lambda chunk: _compute_chunk(spec, options, rt, chunk), chunks)
        at = 0
        for done, (part, part_failures) in enumerate(parts, start=1):
            for column, values in zip(columns, part):
                column[at : at + len(values)] = values
            at += len(part[0])
            failures.extend(part_failures)
            _progress(done, len(chunks))
    return RangeReport(
        task=task,
        lo=lo,
        hi=hi,
        ns=ns,
        count=columns[0],
        x=columns[1],
        y=columns[2] if len(columns) == 3 else None,
        failures=tuple(failures),
        config=options.config(),
        elapsed=time.perf_counter() - started,
    )
