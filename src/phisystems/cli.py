"""Command-line range verifier and report emitter.

Subcommands mirror the verification tasks; each sweeps [--from, --to] and
writes exactly one report to stdout (or --out), with progress and summary
lines on stderr only; ``certify m`` writes one certificate instead. The
sweep's one writer renders both, and each is written a slice at a time.
Exit codes: 0 when the statement held, 1 when a failure was found, 2 on
usage errors (an unwritable --out or --emit-counts path, the two naming
one file, or a closed stdout, among them), 3 when a sweep's footprint, or
the sieve or the checks of a single certificate, would exceed the memory
budget (override with PHISYSTEMS_MEMORY_BUDGET, e.g. "512M"), and 141
(128 + SIGPIPE), with no message, when the reader of the output closes it
early, as ``| head`` does. A closed stderr loses its lines; the run keeps
its status.
"""

import argparse
import gc
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .arith import _sieve_bytes, build_spf
from .certify import certify
from .sweep import DEFAULT_MEMORY_BUDGET, FORMATS, TASKS, MemoryBudgetError, SweepOptions
from .sweep import _certificate_slices, _check_budget, _report_slices, _slice_bytes, run_sweep

__all__ = ["entry", "main"]

BUDGET_ENV = "PHISYSTEMS_MEMORY_BUDGET"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process that SIGPIPE ends


_INT_DIGITS = 4300  # int() reads at most this many digits from a string


def _int_arg(text: str) -> int:
    """Integer CLI argument, read exactly; tolerates underscores and 1e6-style
    notation. The exponent is checked first, so 1e999999999 fails at once.
    Plain integers skip decimal, which only the notation needs."""
    try:
        return int(text)
    except ValueError:
        pass
    import decimal

    try:
        value = decimal.Decimal(text.replace("_", ""))
        exact = value.is_finite() and value.adjusted() < _INT_DIGITS
        exact = exact and value == value.to_integral_value()
    except decimal.InvalidOperation:
        exact = False
    if not exact:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _parse_budget(text: str) -> int:
    t = text.strip().upper()
    scale = 1
    if t and t[-1] in "KMG":
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[t[-1]]
        t = t[:-1]
    try:
        value = int(t)
    except ValueError:
        raise ValueError(f"cannot parse memory budget {text!r}") from None
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value * scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phisystems",
        description="Verify prime-split statements over a range and report witnesses.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    descriptions = {
        "certify": "Fermat-congruence primality certification",
        "bertrand": "a prime strictly between n and 2n-2, with its count identity",
        "binary": "even 2n as a sum of two primes (n-x, n+x)",
        "ternary": "odd n as a sum of three primes (n-x-y, 2x-n, n-x+y)",
        "peculiar": "triple splits whose first two components include the prime 3",
        "proposition": "triple-with-3 exists iff n-3 is a sum of two primes",
    }
    # the flags every task takes, declared once and shared by each subparser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--from", dest="lo", type=_int_arg, help="range start")
    common.add_argument("--to", dest="hi", type=_int_arg, help="range end (inclusive)")
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument(
        "--first-witness-only",
        action="store_true",
        help="stop at the first witness per n; counts report found/not-found",
    )
    common.add_argument(
        "--verify-against-oracle",
        action="store_true",
        help="cross-check every n against the trial-division oracle (slow)",
    )
    common.add_argument("--threads", type=int, default=1, help="worker threads")
    common.add_argument(
        "--emit-counts",
        metavar="PATH",
        help="additionally write n,witness_count rows to PATH",
    )
    for task in TASKS:
        sp = sub.add_parser(task, help=descriptions[task], parents=[common])
        if task == "certify":
            sp.add_argument(
                "m",
                nargs="?",
                type=_int_arg,
                help="certify a single value (omit to sweep --from/--to)",
            )
        if task == "binary":
            sp.add_argument(
                "--via-fermat",
                action="store_true",
                help="enumerate through paired congruence certifications (needs n > 3)",
            )
    return parser


def _write(parts: Iterable[bytes], path: str | None, what: str) -> None:
    """Write the parts to path, or to stdout without one, each as it comes."""
    if not path:
        if sys.stdout is None:  # fd 1 was closed when the program started
            raise OSError("stdout is closed")
        try:
            for part in parts:
                sys.stdout.buffer.write(part)
            sys.stdout.buffer.flush()
        except OSError:  # what is left must not fail the exit's flush too
            _discard(sys.stdout)
            raise
        return
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
    _say(f"{what} written to {path}")


# What one congruence check of a single certificate holds at certify's
# peak: its prime-list entry, its modulus and residue, and the lists they
# are built from. tracemalloc, the sieve apart, puts it at 72.7-72.9 bytes
# for m from 10^10 + 19 to 10^15 + 37 (9592 to 1951957 checks) and at 63.5
# for m = 10^6 + 3 (168). While the writer renders them, the checks hold 56
# bytes each and its slice at most 305 bytes a row, which _slice_bytes
# over-counts.
_CHECK_BYTES = 73


def _single_certificate(args, budget: int) -> Iterator[bytes]:
    m = args.m
    # m < 2 still gets a table, so certify reports its own domain error
    limit = math.isqrt(max(m, 4))
    _check_budget([(_sieve_bytes(limit), f"prime sieve over [2, {limit}]")], budget)
    table = build_spf(limit)
    # certify keeps one check per prime p <= isqrt(m), all held at once
    checks = int(np.count_nonzero(table.is_prime_mask[: math.isqrt(max(m, 0)) + 1]))
    what = f"the certificate of {m} with {checks} congruence checks"
    # the writer's slice holds JSON rows, the widest: m, and a modulus, p - 1
    # and a residue of at most the digits of limit each, in 44 characters
    # of keys and marks
    chars = len(str(m)) + 3 * len(str(limit)) + 44
    needed = _sieve_bytes(limit) + _CHECK_BYTES * checks + _slice_bytes(checks, chars)
    _check_budget([(needed, what)], budget)
    return _certificate_slices(certify(m, table, full_checks=True), args.format)


def _say(line: str) -> None:
    """Print line on stderr, best effort: a closed stderr loses it. A reader
    that has gone still raises BrokenPipeError, for the caller's status."""
    if sys.stderr is None:  # fd 2 was closed when the program started
        return
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        raise
    except OSError:  # fd 2 open for reading only, as a closed stderr can be
        _discard(sys.stderr)


def _discard(*streams) -> None:
    """Send what is left of streams to /dev/null once their reader is gone
    or they cannot be written: the interpreter flushes them once more as it
    exits, and that flush must not fail too."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in streams:
        if stream is not None:
            os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(exc: Exception, status: int) -> int:
    """Print the error line of exc on stderr and return status; with
    stderr closed or its reader gone the line is lost, the status is not."""
    try:
        _say(f"error: {exc}")
    except BrokenPipeError:
        _discard(sys.stdout, sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    single = args.task == "certify" and args.m is not None
    sweep_only = {
        "--from": args.lo is not None,
        "--to": args.hi is not None,
        "--emit-counts": args.emit_counts is not None,
        "--first-witness-only": args.first_witness_only,
        "--verify-against-oracle": args.verify_against_oracle,
    }
    if single and any(sweep_only.values()):
        given = ", ".join(flag for flag, on in sweep_only.items() if on)
        parser.error(f"a single m takes no {given}")
    out, counts = (os.path.realpath(p) if p else None for p in (args.out, args.emit_counts))
    if out and out == counts:  # the counts would overwrite the report
        parser.error(f"--out and --emit-counts name the same file: {args.out}")

    budget = DEFAULT_MEMORY_BUDGET
    try:
        if os.environ.get(BUDGET_ENV):
            budget = _parse_budget(os.environ[BUDGET_ENV])
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)

    report = None
    try:
        if single:
            parts = _single_certificate(args, budget)
        else:
            if args.lo is None or args.hi is None:
                parser.error("--from and --to are required for a range sweep")
            options = SweepOptions(
                first_witness_only=args.first_witness_only,
                verify_against_oracle=args.verify_against_oracle,
                via_fermat=getattr(args, "via_fermat", False),
                threads=args.threads,
                memory_budget=budget,
            )
            report = run_sweep(args.task, args.lo, args.hi, options)
            # rendered a slice at a time while it is written
            parts = _report_slices(report, args.format)
    except MemoryBudgetError as exc:
        return _error(exc, EXIT_RESOURCE)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)

    try:
        _write(parts, args.out, "report")
        if report is None:
            return EXIT_OK
        if args.emit_counts:
            _write(_report_slices(report, "counts"), args.emit_counts, "counts")
        _say(
            f"{report.task} [{report.lo}, {report.hi}]: checked {report.checked}, "
            f"failures {len(report.failures)}, {report.elapsed:.2f}s"
        )
        for n in report.failures[:10]:
            _say(f"FAIL: check did not hold at n={n}")
        if len(report.failures) > 10:
            _say(f"... and {len(report.failures) - 10} more")
    except BrokenPipeError:
        _discard(sys.stdout, sys.stderr)
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # an unwritable output path, or a closed stdout
        return _error(exc, EXIT_USAGE)
    return EXIT_FAILURE if report.failures else EXIT_OK


def entry() -> None:
    """The program, as ``python -m phisystems`` and the ``phisystems``
    script run it: main, then exit with its status.

    The heap is frozen first, so the interpreter's collections at shutdown
    skip every object the run made, numpy's import among them; streams
    still flush and atexit handlers still run. In-process callers of main
    keep a collectable heap.
    """
    status = main()
    gc.freeze()
    sys.exit(status)
