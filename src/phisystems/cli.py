"""Command-line range verifier and report emitter.

Subcommands mirror the verification tasks; each sweeps [--from, --to] and
writes exactly one report to stdout (or --out), with progress and summary
lines on stderr only. Exit codes: 0 when the statement held, 1 when a
failure was found, 2 on usage errors (an unwritable --out or
--emit-counts path among them), 3 when a sweep's footprint, or the sieve
or the checks of a single certificate, would exceed the memory budget
(override with PHISYSTEMS_MEMORY_BUDGET, e.g. "512M"), and 141 (128 +
SIGPIPE), with no message, when the reader of the output closes it early,
as ``| head`` does.
"""

import argparse
import dataclasses
import decimal
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable

import numpy as np

from .arith import _sieve_bytes, build_spf
from .certify import certify
from .sweep import DEFAULT_MEMORY_BUDGET, FORMATS, TASKS, MemoryBudgetError
from .sweep import SweepOptions, _check_budget, _report_slices, _text_bytes, run_sweep

__all__ = ["main"]

BUDGET_ENV = "PHISYSTEMS_MEMORY_BUDGET"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process that SIGPIPE ends


_INT_DIGITS = 4300  # int() reads at most this many digits from a string


def _int_arg(text: str) -> int:
    """Integer CLI argument, read exactly; tolerates underscores and 1e6-style
    notation. The exponent is checked first, so 1e999999999 fails at once."""
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
    for task in TASKS:
        sp = sub.add_parser(task, help=descriptions[task])
        if task == "certify":
            sp.add_argument(
                "m",
                nargs="?",
                type=_int_arg,
                help="certify a single value (omit to sweep --from/--to)",
            )
        sp.add_argument("--from", dest="lo", type=_int_arg, help="range start")
        sp.add_argument("--to", dest="hi", type=_int_arg, help="range end (inclusive)")
        sp.add_argument("--format", choices=FORMATS, default="table")
        sp.add_argument("--out", help="write the report to this file instead of stdout")
        sp.add_argument(
            "--first-witness-only",
            action="store_true",
            help="stop at the first witness per n; counts report found/not-found",
        )
        sp.add_argument(
            "--verify-against-oracle",
            action="store_true",
            help="cross-check every n against the trial-division oracle (slow)",
        )
        if task == "binary":
            sp.add_argument(
                "--via-fermat",
                action="store_true",
                help="enumerate through paired congruence certifications (needs n > 3)",
            )
        sp.add_argument("--threads", type=int, default=1, help="worker processes")
        sp.add_argument(
            "--emit-counts",
            metavar="PATH",
            help="additionally write n,witness_count rows to PATH",
        )
    return parser


def _write(parts: Iterable[bytes], path: str | None, what: str) -> None:
    """Write the parts to path, or to stdout without one, each as it comes."""
    if not path:
        for part in parts:
            sys.stdout.buffer.write(part)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
    print(f"{what} written to {path}", file=sys.stderr)


def _certificate_table(cert):
    yield f"subject: {cert.subject}"
    yield f"verdict: {cert.verdict.value}"
    root = math.isqrt(cert.subject)
    yield f"congruences over primes p <= isqrt({cert.subject}) = {root}:"
    if not cert.checks:
        yield "  (empty system)"
    for c in cert.checks:
        mark = "" if c.residue == 1 else "   <- fails"
        yield f"  {c.base}^{c.exponent} mod {c.modulus} = {c.residue}{mark}"
    if cert.failing_modulus is not None:
        yield f"failing modulus: {cert.failing_modulus}"


def _certificate_bytes(cert, fmt: str) -> bytes:
    if fmt == "json":
        obj = {
            "subject": cert.subject,
            "verdict": cert.verdict.value,
            "failing_modulus": cert.failing_modulus,
            "checks": [dataclasses.asdict(c) for c in cert.checks],
        }
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        rows = (f"{c.modulus},{c.base},{c.exponent},{c.residue}" for c in cert.checks)
        return _text_bytes(itertools.chain(["modulus,base,exponent,residue"], rows))
    return _text_bytes(_certificate_table(cert))


# The most one congruence check of a single certificate holds while it is
# rendered: the check, its prime-list entry and its share of the output.
# tracemalloc puts it at 480-490 bytes in JSON (a dict per check), 200-210
# in CSV and 220-230 in the table, for m = 10^12 and 10^14 (78498 and
# 664579 checks).
_CHECK_BYTES = 512


def _single_certificate(args, budget: int) -> bytes:
    m = args.m
    # m < 2 still gets a table, so certify reports its own domain error
    limit = math.isqrt(max(m, 4))
    _check_budget([(_sieve_bytes(limit), f"prime sieve over [2, {limit}]")], budget)
    table = build_spf(limit)
    # certify keeps one check per prime p <= isqrt(m), all held at once
    checks = int(np.count_nonzero(table.is_prime_mask[: math.isqrt(max(m, 0)) + 1]))
    what = f"the certificate of {m} with {checks} congruence checks"
    _check_budget([(_sieve_bytes(limit) + _CHECK_BYTES * checks, what)], budget)
    return _certificate_bytes(certify(m, table, full_checks=True), args.format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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

    budget = DEFAULT_MEMORY_BUDGET
    try:
        if os.environ.get(BUDGET_ENV):
            budget = _parse_budget(os.environ[BUDGET_ENV])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = None
    try:
        if single:
            parts = [_single_certificate(args, budget)]
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _write(parts, args.out, "report")
        if report is not None and args.emit_counts:
            _write(_report_slices(report, "counts"), args.emit_counts, "counts")
    except BrokenPipeError:
        # the interpreter flushes stdout once more as it exits; send what is
        # left to /dev/null, so that flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report is None:
        return EXIT_OK
    print(
        f"{report.task} [{report.lo}, {report.hi}]: checked {report.checked}, "
        f"failures {len(report.failures)}, {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    if report.failures:
        for n in report.failures[:10]:
            print(f"FAIL: check did not hold at n={n}", file=sys.stderr)
        if len(report.failures) > 10:
            print(f"... and {len(report.failures) - 10} more", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK
