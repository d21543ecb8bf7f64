"""The package surface and the memory-budget guard, each stated once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phisystems
from phisystems import arith, bertrand, goldbach, oracle, sweep
from phisystems.arith import MemoryBudgetError, build_spf
from phisystems.certify import VerdictTable, certify_block
from phisystems.goldbach import count_table

certify_module = importlib.import_module("phisystems.certify")
MODULES = (arith, bertrand, certify_module, goldbach, oracle, sweep)


def test_package_exports_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 50
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


@pytest.mark.parametrize(
    "guard, message",
    [
        (
            lambda t: build_spf(1000, memory_budget=1000),
            "prime sieve over [2, 1000] needs 2002 bytes, budget is 1000",
        ),
        (
            # 2000 packed odd values self-convolve in a length-4096 FFT
            lambda t: count_table("binary", 2000, t.is_prime_mask, memory_budget=1000),
            "FFT convolution of length 4096 needs 196608 bytes, budget is 1000",
        ),
        (
            # 3 bytes per m and 2 isqrt(hi) of tiling
            lambda t: certify_block(2, 10_000, t, memory_budget=1000),
            "certifying the block [2, 10000] needs 30197 bytes, budget is 1000",
        ),
        (
            # the 2 old bytes, the 10001 grown ones and the block's 30197
            lambda t: VerdictTable(t, 1000).ensure(10_000),
            "verdict table over [0, 10000] needs 40200 bytes, budget is 1000",
        ),
    ],
    ids=["build_spf", "count_table", "certify_block", "VerdictTable.ensure"],
)
def test_memory_budget_messages(table, guard, message):
    with pytest.raises(MemoryBudgetError) as exc:
        guard(table)
    assert str(exc.value) == message
