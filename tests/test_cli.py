import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phisystems
from phisystems import cli, goldbach, sweep

from conftest import child_peak_rss


# the package's source directory, so that a checkout runs without an install
SRC = str(Path(phisystems.__file__).parents[1])


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "phisystems", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
    )
    return proc


def call_main(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


def test_single_certify_prime():
    proc = run_cli("certify", "29")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "verdict: Prime" in out
    assert "29^4 mod 5 = 1" in out


def test_single_certify_composite_json():
    proc = run_cli("certify", "25", "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["verdict"] == "Composite"
    assert obj["failing_modulus"] == 5
    assert obj["checks"][-1] == {"modulus": 5, "base": 25, "exponent": 4, "residue": 0}


CERTIFICATE_BYTES = {
    # a composite with two failing moduli
    ("45", "csv"): "modulus,base,exponent,residue\n2,45,1,1\n3,45,2,0\n5,45,4,0\n",
    ("45", "table"): (
        "subject: 45\n"
        "verdict: Composite\n"
        "congruences over primes p <= isqrt(45) = 6:\n"
        "  45^1 mod 2 = 1\n"
        "  45^2 mod 3 = 0   <- fails\n"
        "  45^4 mod 5 = 0   <- fails\n"
        "failing modulus: 3\n"
    ),
    # an empty system
    ("2", "csv"): "modulus,base,exponent,residue\n",
    ("2", "table"): (
        "subject: 2\n"
        "verdict: Prime\n"
        "congruences over primes p <= isqrt(2) = 1:\n"
        "  (empty system)\n"
    ),
}


@pytest.mark.parametrize("m,fmt", CERTIFICATE_BYTES)
def test_single_certificate_bytes(capsysbinary, m, fmt):
    assert call_main(["certify", m, "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == CERTIFICATE_BYTES[m, fmt].encode()


@pytest.mark.parametrize(
    "flags",
    [
        ("--from", "0"),
        ("--to", "9"),
        ("--emit-counts", "x.csv"),
        ("--first-witness-only",),
        ("--verify-against-oracle",),
    ],
)
def test_single_certify_rejects_sweep_flags(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    assert call_main(["certify", "29", *flags]) == 2
    assert f"a single m takes no {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_single_certificate_over_budget_exit_3(monkeypatch, capsys):
    # 10^10 + 19 takes the 9592 primes up to 10^5: the sieve's 100 KB fit
    # in 1 MiB, the checks at 73 bytes each and the writer's slice of 9592
    # rows of 11 + 3 * 6 + 44 characters do not, and none is made
    def refuse(*args, **kwargs):
        raise AssertionError("certify ran past the budget")

    monkeypatch.setattr(cli, "certify", refuse)
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", "1M")
    assert call_main(["certify", "10000000019", "--format", "csv"]) == 3
    needed = (10**5 + 1) + 73 * 9592 + 9592 * (4 * (11 + 3 * 6 + 44) + 64)
    assert capsys.readouterr().err == (
        "error: the certificate of 10000000019 with 9592 congruence checks "
        f"needs {needed} bytes, budget is {1 << 20}\n"
    )
    # within the budget the same certificate is written in full
    args = ("certify", "10000000019", "--format", "csv")
    proc = run_cli(*args, env={"PHISYSTEMS_MEMORY_BUDGET": "8M"})
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1 + 9592


def test_single_certify_rejects_one():
    for m in ("1", "0", "-5"):
        proc = run_cli("certify", m)
        assert proc.returncode == 2
        assert proc.stderr == f"error: certification is defined for m >= 2, got {m}\n".encode()


def test_report_on_stdout_only():
    proc = run_cli("binary", "--from", "2", "--to", "50", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "n,witness_count,first_witness"
    assert len(lines) == 1 + 49
    assert b"checked" in proc.stderr  # summary goes to stderr


def test_json_format_parses():
    proc = run_cli("ternary", "--from", "7", "--to", "15", "--format", "json")
    obj = json.loads(proc.stdout)
    assert obj["task"] == "ternary"
    assert obj["range"] == [7, 15]
    assert obj["failures"] == []
    assert obj["per_n"][0] == [7, 1, [5, 0]]


def test_usage_errors_exit_2():
    assert run_cli("binary", "--from", "10", "--to", "2").returncode == 2
    assert run_cli("binary", "--from", "2").returncode == 2
    assert run_cli("binary", "--from", "2", "--to", "x").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("ternary", "--from", "7", "--to", "9", "--format", "yaml").returncode == 2


@pytest.mark.parametrize("lines", [0, 1])
def test_closed_stdout_exits_141_quietly(lines):
    # the reader goes before the first write, or after one line as `| head -1`
    # does, while 2*10^5 rows still fill the pipe; stdout buffered, as it is
    # by default, so the interpreter flushes it once more at exit
    argv = ["binary", "--from", "2", "--to", "200000", "--first-witness-only", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "phisystems", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines):
        assert proc.stdout.readline() == b"n,witness_count,first_witness\n"
    proc.stdout.close()
    stderr = proc.stderr.read()  # neither an error line nor "Exception ignored"
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


@pytest.mark.parametrize("out", [False, True])
def test_closed_stderr_exits_141(tmp_path, out):
    # stderr's reader is gone before the run starts, as with
    # `2>&1 >/dev/null | head -0`: the report is written whole, the summary
    # line after it breaks the pipe, and no traceback or failed flush at
    # exit turns that into 1 or 120
    path = tmp_path / "report.csv"
    argv = ["binary", "--from", "2", "--to", "20", "--first-witness-only", "--format", "csv"]
    argv += ["--out", str(path)] if out else []
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "phisystems", *argv],
            stdout=subprocess.PIPE,
            stderr=write,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    report = path.read_bytes() if out else proc.stdout
    assert report.startswith(b"n,witness_count,first_witness\n2,1,0\n")
    assert report.endswith(b"\n20,1,3\n")


# the csv report of binary on [2, 10]
BINARY_2_10 = (
    b"n,witness_count,first_witness\n2,1,0\n3,1,0\n4,1,1\n5,2,0\n6,1,1\n"
    b"7,2,0\n8,2,3\n9,2,2\n10,2,3\n"
)


def run_redirected(argv, redirect, **kwargs):
    """Run the program with argv from a shell that applies redirect, such as
    2>&-, to the program's own file descriptors first."""
    command = [sys.executable, "-m", "phisystems", *argv]
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *command], **kwargs)


@pytest.mark.parametrize(
    "args, env, status",
    [
        ("binary --from 2 --to 10 --out {missing}", {}, 2),
        ("binary --from 2 --to 10 --emit-counts {missing}", {}, 2),
        ("binary --from 10 --to 2", {}, 2),
        ("certify 29", {"PHISYSTEMS_MEMORY_BUDGET": "lots"}, 2),
        ("certify --from 2 --to 1e19", {}, 3),
        # stderr closed before the program starts (sys.stderr is None), or
        # open for reading only, as a launcher script can leave a closed fd 2
        ("binary --from 2 --to 10 --format csv 2>&-", {}, 0),
        ("binary --from 2 --to 10 --format csv 2</dev/null", {}, 0),
        ("binary --from 2 --to 10 --format csv 2>&-", {"PHISYSTEMS_MEMORY_BUDGET": "1"}, 3),
        ("binary --from 2 --to 10 --format csv 2</dev/null", {"PHISYSTEMS_MEMORY_BUDGET": "1"}, 3),
        ("binary --from 2 --to 10 --out {missing} 2>&-", {}, 2),
        # stdout closed: an unwritable output
        ("binary --from 2 --to 10 --format csv >&-", {}, 2),
    ],
)
def test_closed_stderr_keeps_the_error_status(tmp_path, args, env, status):
    # `2>&1 >/dev/null | head -0`: the error line finds no reader, and the
    # run still exits with the status of its error, not 1, a found failure;
    # a closed stderr loses its lines the same way
    argv = args.format(missing=tmp_path / "missing" / "x.csv").split()
    redirect = argv.pop() if re.fullmatch(r"[12]?[<>]\S*", argv[-1]) else ""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_redirected(
            argv,
            redirect,
            stdout=subprocess.PIPE,
            stderr=write,
            env={**os.environ, "PYTHONPATH": SRC, **env},
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == status
    if status == 0:
        assert proc.stdout == BINARY_2_10  # the report whole
    assert b"error" not in proc.stdout  # nothing meant for stderr


@pytest.mark.parametrize("redirect", [">&-", "1</dev/null"])
def test_closed_stdout_exits_2_with_an_error_line(redirect):
    # stdout closed, or open for reading only, is an unwritable output: an
    # error line, not a traceback (exit 1) or a failed flush at exit (120)
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    argv = ["binary", "--from", "2", "--to", "10", "--format", "csv"]
    proc = run_redirected(argv, redirect, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert re.fullmatch(rb"error: [^\n]+\n", proc.stderr)


@pytest.mark.parametrize("out", [False, True])
def test_stderr_lines(monkeypatch, capsys, tmp_path, out):
    # a pair kernel that finds nothing fails every n of [2, 20]: stderr gets
    # the paths written, the summary, ten FAIL lines and a count of the
    # rest; stdout gets the report alone, or nothing with --out
    monkeypatch.setattr(goldbach, "first_pair_y_block", lambda m, mask: np.full(len(m), -1))
    report, counts = tmp_path / "report.csv", tmp_path / "counts.csv"
    argv = ["binary", "--from", "2", "--to", "20", "--first-witness-only", "--format", "csv"]
    argv += ["--out", str(report), "--emit-counts", str(counts)] if out else []
    assert call_main(argv) == 1
    rows = "n,witness_count,first_witness\n" + "".join(f"{n},0,\n" for n in range(2, 21))
    captured = capsys.readouterr()
    assert captured.out == ("" if out else rows)
    err = captured.err.splitlines()
    if out:
        assert report.read_text() == rows
        assert err[:2] == [f"report written to {report}", f"counts written to {counts}"]
        err = err[2:]
    assert re.fullmatch(r"binary \[2, 20\]: checked 19, failures 19, \d+\.\d\ds", err[0])
    fails = [f"FAIL: check did not hold at n={n}" for n in range(2, 12)]
    assert err[1:] == [*fails, "... and 9 more"]


@pytest.mark.parametrize("flag", ["--out", "--emit-counts"])
def test_unwritable_output_path_exits_2(tmp_path, flag):
    path = tmp_path / "missing" / "x.csv"
    proc = run_cli("binary", "--from", "2", "--to", "10", "--format", "csv", flag, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and str(path).encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_memory_budget_exit_3():
    proc = run_cli(
        "binary",
        "--from",
        "2",
        "--to",
        "1000000",
        env={"PHISYSTEMS_MEMORY_BUDGET": "1000"},
    )
    assert proc.returncode == 3
    assert b"budget" in proc.stderr


def test_sieve_budget_exit_3_to_the_byte(monkeypatch, capsys):
    # the sieve over [2, 1998], one byte per value in [0, 1998], and 997
    # report rows are all this sweep counts: a uint8 count and an int32 x
    # column, 64 bytes for each n of its one chunk, 24 for each of the at most
    # int(2 w / ln w) + 1 = 525 primes in its window of w = 1994 values, and
    # the writer's 240 bytes per row of 4-digit n
    args = ["bertrand", "--from", "4", "--to", "1000", "--first-witness-only"]
    args += ["--format", "csv"]
    assert call_main(args) == 0
    default = capsys.readouterr().out
    needed = 1999 + 5 * 997 + 64 * 997 + 24 * 525 + 240 * 997
    assert needed == 322672
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", str(needed))
    assert call_main(args) == 0
    assert capsys.readouterr().out == default
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", str(needed - 1))
    assert call_main(args) == 3
    assert capsys.readouterr().err == (
        "error: prime sieve over [2, 1998] and 997 report rows needs 322672 bytes, "
        "budget is 322671\n"
    )


def test_report_columns_count_against_the_budget(monkeypatch, capsys):
    # a first-witness triple row holds a uint8 count and int32 x and y: 998
    # rows of odd n in [7, 2001] count 9 * 998 bytes of columns, 48 * 998
    # of chunk temporaries, 24 * 527 of walked primes (a window of the 2001
    # values the sieve holds) and 240 * 998 of the writer's slice, and the
    # sieve over [2, 2001] 2002 more
    args = ["ternary", "--from", "7", "--to", "2001", "--first-witness-only"]
    args += ["--format", "json"]
    assert call_main(args) == 0
    default = capsys.readouterr().out
    needed = 2002 + 9 * 998 + 48 * 998 + 24 * 527 + 240 * 998
    assert needed == 311056
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", str(needed))
    assert call_main(args) == 0
    assert capsys.readouterr().out == default
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", str(needed - 1))
    assert call_main(args) == 3
    assert "998 report rows needs 311056 bytes" in capsys.readouterr().err
    # the 20 MB sieve fits 64 MiB, but not with the 50 MB of columns of
    # 10^7 rows, 5 bytes each, which are refused before the sieve is built;
    # a chunk of 2^17 n at 48 bytes, the 22883 primes bounding a window of
    # 2^17 + 4096 values and a writer's slice of 2^14 rows of 8-digit n at
    # 320 bytes come on top
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", "64M")
    args = ["binary", "--from", "2", "--to", "1e7", "--first-witness-only"]
    assert call_main([*args, "--format", "csv"]) == 3
    needed = 20_000_001 + 5 * 9_999_999 + 48 * 2**17 + 24 * 22_883 + 320 * 2**14
    assert f"9999999 report rows needs {needed} bytes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, lo, hi, sieve",
    [("certify", 2, 10**19, 10**19), ("bertrand", 4, 2**63 + 4, 2**64 + 6)],
)
def test_sweep_of_2_63_rows_or_more_exit_3(monkeypatch, capsys, task, lo, hi, sieve):
    # len() of such a range overflows; the rows are counted from its ends
    monkeypatch.delenv("PHISYSTEMS_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    assert call_main([task, "--from", str(lo), "--to", str(hi)]) == 3
    rows = hi - lo + 1
    assert rows >= 2**63
    # the rows: two columns, uint8 for certify and int64 for bertrand past
    # 2^31, the temporaries of one chunk of 2^17 n, for bertrand the primes
    # of a window of 2^18 values, at most int(2 w / ln w) + 1 = 42022, and
    # the writer's slice of 2^14 rows; certify's block holds a byte per m,
    # three int64 columns over at most r // 2 + 1 primes p <= r and one
    # pass of 2^16 residues at 49 bytes each
    chunk = 2**17
    writer = 2**14 * (4 * (5 * len(str(hi)) + 24) + 64)
    if task == "certify":
        report = 2 * rows + 24 * chunk + writer
        r = math.isqrt(hi)
        block = rows + 24 * (r // 2 + 1) + 49 * 2**16
        table = block, f"certifying the block [{lo}, {hi}]"
    else:
        report = 16 * rows + 64 * chunk + 24 * 42_022 + writer
        table = 4 * (sieve + 1), f"prime counts over [0, {sieve}]"
    needed = sieve + 1 + report + table[0]
    assert capsys.readouterr().err == (
        f"error: prime sieve over [2, {sieve}], {rows} report rows and {table[1]} "
        f"needs {needed} bytes, budget is {2 << 30}\n"
    )


def test_sweep_past_the_floats_exit_3(monkeypatch, capsys):
    # the footprint of a range ending near 10^400 is counted in integers
    monkeypatch.delenv("PHISYSTEMS_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    for argv in (["bertrand", "--from", "4"], ["ternary", "--from", "7"]):
        assert call_main([*argv, "--to", "1e400"]) == 3
        assert capsys.readouterr().err.endswith(f" bytes, budget is {2 << 30}\n")


def test_streamed_report_peak_rss(tmp_path):
    # a small parent process, so that the child's peak RSS is its own;
    # the rows are written a slice at a time, never as a whole report
    out = tmp_path / "binary.csv"
    argv = ["binary", "--from", "2", "--to", "2e6", "--first-witness-only"]
    argv += ["--format", "csv", "--out", str(out)]
    code = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-m', 'phisystems', *{argv!r}], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, env=env)
    peak_mib = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert out.stat().st_size > 2 * 10**7
    assert peak_mib < 150, peak_mib


@pytest.mark.parametrize(
    "args, lo, hi",
    [
        (["bertrand"], "4", "2e6"),
        (["certify"], "2", "2e6"),
        (["ternary"], "7", "2e6"),
        (["binary", "--via-fermat"], "4", "1e6"),
        (["binary", "--first-witness-only"], "2", "2e6"),
    ],
    ids=["bertrand", "certify", "ternary", "via-fermat", "first-witness"],
)
def test_exit_3_means_the_budget(args, lo, hi):
    # the footprint a sweep reports is what it may add to the peak RSS of
    # the same command on its first n alone; one byte less is refused
    def run(budget, lo, hi):
        argv = ["-m", "phisystems", *args, "--from", lo, "--to", hi, "--format", "csv"]
        return child_peak_rss(argv, {"PHISYSTEMS_MEMORY_BUDGET": str(budget)})

    code, _, err = run(1, lo, hi)
    assert code == 3
    needed = int(re.fullmatch(r"error: .* needs (\d+) bytes, budget is 1\n", err)[1])
    _, alone, _ = run(1 << 40, lo, lo)
    code, peak, _ = run(needed, lo, hi)
    assert code == 0
    assert peak <= alone + needed, (peak - alone, needed)
    assert run(needed - 1, lo, hi)[0] == 3


@pytest.mark.parametrize(
    "budget, argv",
    [
        ("181M", ["bertrand", "--from", "4", "--to", "1e7"]),
        ("291700285", ["certify", "--from", "2", "--to", "7e7"]),
    ],
)
def test_former_overruns_exit_3(monkeypatch, capsys, budget, argv):
    # each of these ran to a peak RSS well past its budget while it counted
    # only the sieve and the columns; now they are refused before the sieve.
    # certify to 7 * 10^7 counts 291700286 bytes, one more than its budget
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", budget)
    assert call_main([*argv, "--format", "csv"]) == 3
    assert "report rows and" in capsys.readouterr().err


def test_count_table_over_budget_exit_3():
    # the sieve and the first-witness rows of [2, 2000] take 612868 bytes,
    # with counts 618865; the count table packs the 2000 odd values below
    # 4000 into a length-4096 FFT and adds 197464 bytes (see test_package),
    # past a 700 KiB budget
    args = ("binary", "--from", "2", "--to", "2000", "--format", "csv")
    proc = run_cli(*args, env={"PHISYSTEMS_MEMORY_BUDGET": "700K"})
    assert proc.returncode == 3
    assert b"FFT" in proc.stderr and b"budget" in proc.stderr
    proc = run_cli(*args, "--first-witness-only", env={"PHISYSTEMS_MEMORY_BUDGET": "700K"})
    assert proc.returncode == 0


def test_via_fermat_verdict_table_over_budget_exit_3():
    # the route sieves only to isqrt(4 * 10^6), but its verdict table
    # holds a byte for every value up to 2 hi - 1; eleven rows keep the
    # report's columns far inside the budget
    proc = run_cli(
        "binary",
        "--via-fermat",
        "--first-witness-only",
        "--from",
        "1999990",
        "--to",
        "2000000",
        env={"PHISYSTEMS_MEMORY_BUDGET": "1M"},
    )
    assert proc.returncode == 3
    assert b"verdict table" in proc.stderr and b"budget" in proc.stderr


def test_budget_suffix_parsing():
    assert cli._parse_budget("512M") == 512 << 20
    assert cli._parse_budget("2G") == 2 << 30
    assert cli._parse_budget("123456") == 123456
    with pytest.raises(ValueError):
        cli._parse_budget("lots")


def test_int_arg_notation():
    assert cli._int_arg("10_000") == 10_000
    assert cli._int_arg("1e4") == 10_000
    assert cli._int_arg("1_000") == 1000
    # exact: through a float these two lose their last digits
    assert cli._int_arg("9.007199254740993e15") == 9_007_199_254_740_993
    assert cli._int_arg("1e23") == 10**23
    for text in ("1.5", "1e-3", "nan", "inf", "1e999999999"):
        started = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
            cli._int_arg(text)
        assert time.perf_counter() - started < 0.5


def test_threads_do_not_change_bytes():
    # 399999 n: three chunks of 2^17 n and one of 6783, so 5 threads start a pool
    base = ("binary", "--from", "2", "--to", "400000", "--format", "json")
    one = run_cli(*base, "--threads", "1")
    many = run_cli(*base, "--threads", "5")
    assert one.returncode == many.returncode == 0
    assert one.stdout == many.stdout


def test_out_and_emit_counts(tmp_path):
    report_path = tmp_path / "report.json"
    counts_path = tmp_path / "counts.csv"
    code = call_main(
        [
            "binary",
            "--from",
            "2",
            "--to",
            "20",
            "--format",
            "json",
            "--out",
            str(report_path),
            "--emit-counts",
            str(counts_path),
        ]
    )
    assert code == 0
    obj = json.loads(report_path.read_bytes())
    assert obj["checked"] == 19
    counts = counts_path.read_text().splitlines()
    assert counts[0] == "n,witness_count"
    assert counts[1] == "2,1"
    assert len(counts) == 1 + 19  # the header and one line per n


def test_emit_report_counts_matches_emit_counts(tmp_path):
    # ternary rows carry a pair cell and triple counts past 9; --emit-counts
    # writes what emit_report renders as "counts"
    counts_path = tmp_path / "counts.csv"
    argv = ["ternary", "--from", "7", "--to", "301", "--emit-counts", str(counts_path)]
    assert call_main([*argv, "--out", str(tmp_path / "report.txt")]) == 0
    report = sweep.run_sweep("ternary", 7, 301)
    assert sweep.emit_report(report, "counts") == counts_path.read_bytes()
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        sweep.emit_report(report, "xml")


def test_conjecture_failure_exits_1_and_prints_n(monkeypatch, capfd):
    # no real counterexample exists at desk scale; fake a pair kernel that
    # finds nothing to exercise the failure path end to end
    monkeypatch.setattr(
        goldbach, "first_pair_y_block", lambda m, mask: np.full(len(m), -1)
    )
    code = call_main(
        ["binary", "--from", "2", "--to", "6", "--first-witness-only", "--format", "csv"]
    )
    assert code == 1
    err = capfd.readouterr().err
    assert "n=2" in err


def test_via_fermat_flag_matches_default():
    direct = run_cli("binary", "--from", "4", "--to", "60", "--format", "csv")
    fermat = run_cli("binary", "--from", "4", "--to", "60", "--format", "csv", "--via-fermat")
    assert direct.stdout == fermat.stdout


def test_verify_against_oracle_flag():
    proc = run_cli("bertrand", "--from", "4", "--to", "30", "--verify-against-oracle")
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "task, n, message",
    [
        ("bertrand", "6e6", "limit 11999997 exceeds the oracle limit 10000000"),
        ("binary", "6e6", "total 12000000 exceeds the oracle limit 10000000"),
        ("ternary", "12000001", "n = 12000001 exceeds the oracle limit 10000000"),
    ],
)
def test_oracle_past_its_limit_exit_2(capsys, task, n, message):
    args = [task, "--from", n, "--to", n, "--first-witness-only", "--verify-against-oracle"]
    assert call_main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _refuse(*args, **kwargs):
    raise AssertionError("a table was built")


@pytest.mark.parametrize("task, n", [("binary", "6e6"), ("ternary", "12000001")])
def test_oracle_past_its_limit_refused_before_any_table(monkeypatch, capsys, task, n):
    # in count mode too, the sweep is refused before its sieve or count table
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    monkeypatch.setattr(goldbach, "count_table", _refuse)
    args = [task, "--from", "7", "--to", n, "--verify-against-oracle"]
    assert call_main(args) == 2
    assert capsys.readouterr().err.endswith(" exceeds the oracle limit 10000000\n")
