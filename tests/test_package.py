"""The package surface and the memory-budget footprint of each route."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phisystems
from phisystems import arith, bertrand, cli, goldbach, oracle, sweep

certify_module = importlib.import_module("phisystems.certify")
MODULES = (arith, bertrand, certify_module, goldbach, oracle, sweep)


def test_package_exports_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 49
    assert phisystems.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(phisystems, name) is getattr(module, name)
    assert phisystems.certify is certify_module.certify


def test_package_attributes():
    # a fresh interpreter, so that submodules other tests import (cli) do
    # not show up as package attributes
    code = "import phisystems; print(*(n for n in dir(phisystems) if n[0] != '_'))"
    env = {**os.environ, "PYTHONPATH": str(Path(phisystems.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    modules = ["arith", "bertrand", "goldbach", "oracle", "sweep"]
    assert sorted(proc.stdout.split()) == sorted(phisystems.__all__ + modules)


# Each route's footprint, counted before anything is built. A report row
# of d-digit n holds its int64 columns, the temporaries of the one chunk
# of ceil(rows / 16) n held at a time, at the task's row bytes, and the
# writer's slice at 4 (5d + 24) + 64 bytes; the walked primes below a top
# t take 24 bytes each, for int(1.25506 t / ln t) + 1 of them.
ROUTES = {
    # 9999 rows: 16 * 9999 + 24 * 625 + 260 * 9999; the block: 2 * 9999
    # and 8 * isqrt(10^4)
    "certify": (
        ["certify", "--from", "2", "--to", "10000"],
        "prime sieve over [2, 10000], 9999 report rows and certifying the block "
        "[2, 10000] needs 2805523 bytes",
    ),
    # 997 rows: 16 * 997 + 64 * 63 + 24 * 331 + 240 * 997 (primes to 2000);
    # PrimePi: 4 bytes for each of 0..1998
    "bertrand": (
        ["bertrand", "--from", "4", "--to", "1000"],
        "prime sieve over [2, 1998], 997 report rows and prime counts over [0, 1998] "
        "needs 277203 bytes",
    ),
    # 1999 rows: 16 * 1999 + 80 * 125 + 24 * 606 + 240 * 1999 (primes to
    # 4000); the count table: 8 * 2001 + 17 * 2000 odd values + 36 * 4096
    "binary": (
        ["binary", "--from", "2", "--to", "2000"],
        "prime sieve over [2, 4000], 1999 report rows and FFT convolution of length "
        "4096 needs 737753 bytes",
    ),
    # 998 rows: 24 * 998 + 88 * 63 + 24 * 331 + 240 * 998 (primes to
    # 2001); the count table: 8 * 2002 + 17 * 1001 odd values + 36 * 2048
    "ternary": (
        ["ternary", "--from", "7", "--to", "2001"],
        "prime sieve over [2, 2001], 998 report rows and FFT convolution of length "
        "2048 needs 385723 bytes",
    ),
    "peculiar": (
        ["peculiar", "--from", "7", "--to", "2001"],
        "prime sieve over [2, 2001], 998 report rows and FFT convolution of length "
        "2048 needs 385723 bytes",
    ),
    # the verdicts: 2 * 4000 + 8 * isqrt(3999) bytes, then the binary count
    # table over them; 1997 rows from n = 4
    "via-fermat": (
        ["binary", "--via-fermat", "--from", "4", "--to", "2000"],
        "prime sieve over [2, 63], 1997 report rows, verdict table over [0, 3999] "
        "and FFT convolution of length 4096 needs 741808 bytes",
    ),
    # no count table
    "first-witness": (
        ["binary", "--from", "2", "--to", "2000", "--first-witness-only"],
        "prime sieve over [2, 4000] and 1999 report rows needs 540289 bytes",
    ),
}


def _refuse(*args, **kwargs):
    raise AssertionError("a table was built past the budget")


@pytest.mark.parametrize("route", ROUTES)
def test_memory_budget_messages(monkeypatch, capsys, route):
    argv, message = ROUTES[route]
    argv = [*argv, "--format", "csv"]
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    footprint = int(message.split(" needs ")[1].split()[0])
    monkeypatch.setenv(cli.BUDGET_ENV, str(footprint))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == default
    monkeypatch.setenv(cli.BUDGET_ENV, str(footprint - 1))
    monkeypatch.setattr(sweep, "build_spf", _refuse)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}, budget is {footprint - 1}\n"
