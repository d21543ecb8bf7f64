import argparse
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from phisystems import cli, goldbach, sweep

from conftest import child_peak_rss


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "phisystems", *args],
        capture_output=True,
        env={**os.environ, **(env or {})},
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
    # in 1 MiB, the checks at 512 bytes each do not, and none is made
    def refuse(*args, **kwargs):
        raise AssertionError("certify ran past the budget")

    monkeypatch.setattr(cli, "certify", refuse)
    monkeypatch.setenv("PHISYSTEMS_MEMORY_BUDGET", "1M")
    assert call_main(["certify", "10000000019", "--format", "csv"]) == 3
    needed = (10**5 + 1) + 512 * 9592
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
    proc = subprocess.Popen(
        [sys.executable, "-m", "phisystems", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    for _ in range(lines):
        assert proc.stdout.readline() == b"n,witness_count,first_witness\n"
    proc.stdout.close()
    stderr = proc.stderr.read()  # neither an error line nor "Exception ignored"
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


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
    # the writer's slice of 2^14 rows
    chunk = 2**17
    writer = 2**14 * (4 * (5 * len(str(hi)) + 24) + 64)
    if task == "certify":
        report = 2 * rows + 24 * chunk + writer
        table = 2 * rows + 8 * math.isqrt(hi), f"certifying the block [{lo}, {hi}]"
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
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
        ("340000000", ["certify", "--from", "2", "--to", "7e7"]),
    ],
)
def test_former_overruns_exit_3(monkeypatch, capsys, budget, argv):
    # each of these ran to a peak RSS well past its budget while it counted
    # only the sieve and the columns; now they are refused before the sieve.
    # certify to 2 * 10^7, which then overran 340000000 bytes, now counts
    # 108424381 and runs; to 7 * 10^7 it counts 358455533
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
    # holds a byte for every value up to 2 hi - 1, and a tiling temporary
    # as long while it is built; eleven rows keep the report's columns far
    # inside the budget
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
    # 399999 n: three chunks of 2^17 n and one of 6783, so 5 threads fork a pool
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
