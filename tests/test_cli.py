import json
import os
import subprocess
import sys

import pytest

from phisystems import cli, goldbach


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


def test_single_certify_rejects_one():
    proc = run_cli("certify", "1")
    assert proc.returncode == 2


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


def test_count_table_over_budget_exit_3():
    # the spf table through 2000 takes 8 KB; the count table's length-4096
    # FFT counts 192 KiB of buffers
    args = ("binary", "--from", "2", "--to", "1000", "--format", "csv")
    proc = run_cli(*args, env={"PHISYSTEMS_MEMORY_BUDGET": "100K"})
    assert proc.returncode == 3
    assert b"FFT" in proc.stderr and b"budget" in proc.stderr
    proc = run_cli(*args, "--first-witness-only", env={"PHISYSTEMS_MEMORY_BUDGET": "100K"})
    assert proc.returncode == 0


def test_budget_suffix_parsing():
    assert cli._parse_budget("512M") == 512 << 20
    assert cli._parse_budget("2G") == 2 << 30
    assert cli._parse_budget("123456") == 123456
    with pytest.raises(ValueError):
        cli._parse_budget("lots")


def test_int_arg_notation():
    assert cli._int_arg("10_000") == 10_000
    assert cli._int_arg("1e4") == 10_000
    with pytest.raises(Exception):
        cli._int_arg("1.5")


def test_threads_do_not_change_bytes():
    base = ("binary", "--from", "2", "--to", "3000", "--format", "json")
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


def test_conjecture_failure_exits_1_and_prints_n(monkeypatch, capfd):
    # no real counterexample exists at desk scale; fake an empty witness
    # search to exercise the failure path end to end
    monkeypatch.setattr(goldbach, "first_binary_witness", lambda n, table: None)
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
