"""The package surface, what importing it and running one command leave
behind, and the memory-budget footprint of each route."""

import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phisystems
from phisystems import arith, bertrand, cli, goldbach, oracle, sweep

certify_module = importlib.import_module("phisystems.certify")
MODULES = (arith, bertrand, certify_module, goldbach, oracle, sweep)


def test_package_exports_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 47
    assert phisystems.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(phisystems, name) is getattr(module, name)
    assert phisystems.certify is certify_module.certify


def fresh_python(code: str, **env: str | None) -> str:
    """The stdout of ``python -c code`` in a new interpreter that imports
    this phisystems, with env laid over this process's environment; a value
    of None removes that variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(phisystems.__file__).parents[1]), **env}
    env = {name: value for name, value in env.items() if value is not None}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_package_attributes():
    # a fresh interpreter, so that submodules other tests import (cli) do
    # not show up as package attributes
    out = fresh_python("import phisystems; print(*(n for n in dir(phisystems) if n[0] != '_'))")
    modules = ["arith", "bertrand", "goldbach", "oracle", "sweep"]
    assert sorted(out.split()) == sorted(phisystems.__all__ + modules)


def test_a_name_read_under_a_patch_is_the_module_function_after_it():
    # the package binds each name as it loads, so a patch of the module
    # made and undone later never reaches the package's name
    code = (
        "import phisystems\n"
        "from phisystems import bertrand\n"
        "real = bertrand.bertrand_count\n"
        "bertrand.bertrand_count = None\n"
        "phisystems.bertrand_count\n"
        "bertrand.bertrand_count = real\n"
        "print(phisystems.bertrand_count is real)"
    )
    assert fresh_python(code).split() == ["True"]


def test_one_program_entry():
    # python -m phisystems and the console script run the same function
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"\[project\.scripts\]\n(.*)\n", pyproject)[1]
    assert scripts == 'phisystems = "phisystems.cli:entry"'
    assert importlib.import_module("phisystems.__main__").entry is cli.entry


@pytest.mark.parametrize("budget, status", [(None, 0), ("1", 3)])
def test_the_program_exits_with_a_frozen_heap(budget, status):
    # frozen objects are skipped by the collections at shutdown
    argv = ["phisystems", "certify", "--from", "2", "--to", "99", "--out", os.devnull]
    code = (
        "import gc, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('phisystems', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    assert fresh_python(code, PHISYSTEMS_MEMORY_BUDGET=budget).split() == [str(status), "True"]


# the modules a run loads only when it needs them
ON_DEMAND = ["decimal", "json", "numpy.fft"]


def _loaded_on_demand(argv: list[str]) -> list[str]:
    """The modules of ON_DEMAND that running the program with argv loads, in
    a fresh interpreter, as python -m phisystems runs it."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['phisystems', *{argv!r}, '--out', {os.devnull!r}]\n"
        "try:\n"
        "    runpy.run_module('phisystems', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(*sorted(set({ON_DEMAND!r}) & set(sys.modules)))"
    )
    return fresh_python(code).split()


@pytest.mark.parametrize(
    "args, loaded",
    [
        ("binary --from 59950 --to 59950 --format csv", ""),
        ("peculiar --from 99899 --to 99899 --format csv", ""),
        ("certify --from 2 --to 99", ""),
        ("binary --from 99 --to 99 --verify-against-oracle", ""),
        ("bertrand --from 4 --to 99 --format json", "json"),
        ("certify 97 --format json", "json"),
        # a wide count range takes the FFT, and 1e4 the decimal notation
        ("binary --from 2 --to 1e4 --format csv", "decimal numpy.fft"),
        ("peculiar --from 7 --to 10000 --format csv", "numpy.fft"),
    ],
)
def test_a_run_loads_what_it_uses(args, loaded):
    assert _loaded_on_demand(args.split()) == loaded.split()


def test_main_leaves_the_heap_collectable(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["certify", "29"]) == 0
    assert "verdict: Prime" in capsys.readouterr().out
    assert gc.get_freeze_count() == 0


def test_one_worker_sweep_imports_no_pool_modules():
    code = (
        "import sys\n"
        "from phisystems import cli\n"
        f"argv = ['binary', '--from', '2', '--to', '3000', '--out', {os.devnull!r}]\n"
        "assert cli.main([*argv, '--threads', '1']) == 0\n"
        "print(*sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert fresh_python(code).split() == []


def test_sweep_of_one_chunk_on_two_threads_starts_no_worker():
    # 2^17 - 1 rows on two usable CPUs are one chunk, run in this process:
    # no pool module is imported, and no child process has ever ended
    code = (
        "import os, resource, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from phisystems import cli, sweep\n"
        "assert sweep._worker_count(2) == 2\n"
        f"argv = ['binary', '--from', '2', '--to', '131072', '--out', {os.devnull!r}]\n"
        "assert cli.main([*argv, '--threads', '2', '--first-witness-only']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(*sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert fresh_python(code).split() == ["0"]


# the modules a pool of either kind imports
POOL_MODULES = {"multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"}


def test_certify_sweep_on_two_threads_never_forks():
    # 2^17 + 1 n on two usable CPUs are two chunks, run on a pool of two
    # threads: no child process has ever ended
    code = (
        "import os, resource, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from phisystems import cli, sweep\n"
        "assert sweep._worker_count(2) == 2\n"
        f"argv = ['certify', '--from', '2', '--to', '131074', '--out', {os.devnull!r}]\n"
        "assert cli.main([*argv, '--threads', '2']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        f"print(*sorted({POOL_MODULES!r} & set(sys.modules)))"
    )
    assert fresh_python(code).split() == ["0", "concurrent.futures.thread"]


POOLED_ROUTES = [
    ["certify", "--from", "2", "--to", "1000"],
    ["bertrand", "--from", "4", "--to", "1000"],
    ["binary", "--from", "2", "--to", "1000"],
    ["binary", "--from", "4", "--to", "1000", "--via-fermat"],
    ["ternary", "--from", "7", "--to", "1001"],
    ["peculiar", "--from", "7", "--to", "1001"],
    ["proposition", "--from", "7", "--to", "1001"],
]


def test_pooled_sweeps_start_no_child_process():
    # every route over chunks of 64 n on a pool of two threads: no child
    # process has ever ended, and no process pool module is imported
    code = (
        "import os, resource, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from phisystems import cli, sweep\n"
        "sweep._CHUNK = 64\n"
        f"for argv in {POOLED_ROUTES!r}:\n"
        f"    assert cli.main([*argv, '--threads', '2', '--out', {os.devnull!r}]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        f"print(*sorted({POOL_MODULES!r} & set(sys.modules)))"
    )
    assert fresh_python(code).split() == ["0", "concurrent.futures.thread"]


# Each case: what the caller set, and the threads OpenBLAS then runs on 2 CPUs
BLAS_CALLERS = [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)]
NO_BLAS_SETTING = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("caller", [caller for caller, _ in BLAS_CALLERS])
def test_import_leaves_the_environment_as_found(caller):
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import phisystems\n"
        "print(dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    out = fresh_python(code, **{**NO_BLAS_SETTING, **caller})
    assert out.split() == ["True", caller.get("OPENBLAS_NUM_THREADS", "None")]


def _openblas_numpy() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(
    sys.platform != "linux" or not _openblas_numpy() or len(os.sched_getaffinity(0)) < 2,
    reason="counts OpenBLAS threads in /proc, with an OpenBLAS numpy on 2 or more CPUs",
)
@pytest.mark.parametrize(("caller", "threads"), BLAS_CALLERS)
def test_import_runs_openblas_on_one_thread(caller, threads):
    code = "import os, {}; print(len(os.listdir('/proc/self/task')))"
    env = {**NO_BLAS_SETTING, **caller}
    # numpy alone starts a helper thread, so the count shows the package's effect
    assert int(fresh_python(code.format("numpy"), **env)) >= 2
    assert int(fresh_python(code.format("phisystems"), **env)) == threads


# Each route's footprint, counted before anything is built. A report row
# of d-digit n holds its columns (a uint8 count in first-witness mode and
# for certify and proposition, int32 counts and witnesses below 2^31, int64
# triple counts, a uint8 verdict), the temporaries of its chunk (one
# chunk here, every row), at the task's row bytes, and the writer's slice
# at 4 (5d + 24) + 64 bytes; the primes walked in a window of w values
# take 24 bytes each, for int(2 w / ln w) + 1 of them.
ROUTES = {
    # 9999 rows: 2 * 9999 + 24 * 9999 + 260 * 9999, no walk; the block:
    # 9999, the columns 24 * 51 and the residues 49 * 51 * 100 (r = 100)
    "certify": (
        ["certify", "--from", "2", "--to", "10000"],
        "prime sieve over [2, 10000], 9999 report rows and certifying the block "
        "[2, 10000] needs 3130838 bytes",
    ),
    # 997 rows: 8 * 997 + 64 * 997 + 24 * 525 + 240 * 997 (w = 1994);
    # PrimePi: 4 bytes for each of 0..1998
    "bertrand": (
        ["bertrand", "--from", "4", "--to", "1000"],
        "prime sieve over [2, 1998], 997 report rows and prime counts over [0, 1998] "
        "needs 333659 bytes",
    ),
    # 1999 rows: 8 * 1999 + 48 * 1999 + 24 * 965 + 240 * 1999 (w = 4000,
    # the sieve); the count table: 8 * 2001 + 17 * 2000 odd values + 36 * 4096
    "binary": (
        ["binary", "--from", "2", "--to", "2000"],
        "prime sieve over [2, 4000], 1999 report rows and FFT convolution of length "
        "4096 needs 816329 bytes",
    ),
    # 998 rows: 16 * 998 + 48 * 998 + 24 * 527 + 240 * 998 (w = 2001); the
    # count table: 8 * 2002 + 17 * 1001 odd values + 36 * 2048
    "ternary": (
        ["ternary", "--from", "7", "--to", "2001"],
        "prime sieve over [2, 2001], 998 report rows and FFT convolution of length "
        "2048 needs 424803 bytes",
    ),
    "peculiar": (
        ["peculiar", "--from", "7", "--to", "2001"],
        "prime sieve over [2, 2001], 998 report rows and FFT convolution of length "
        "2048 needs 424803 bytes",
    ),
    # the verdicts: 4000 + 24 * 32 + 49 * 32 * 63 bytes (r = 63), then the
    # binary count table over them; 1997 rows from n = 4
    "via-fermat": (
        ["binary", "--via-fermat", "--from", "4", "--to", "2000"],
        "prime sieve over [2, 63], 1997 report rows, verdict table over [0, 3999] "
        "and FFT convolution of length 4096 needs 915352 bytes",
    ),
    # one n, counted alone: 2000 + 1 sieve bytes; 4 + 4 + 48 + 24 * 965 + 240
    # for the row (w = 4000, the sieve); 8 bytes of counts and 2000 of a pass
    "one-n": (
        ["binary", "--from", "2000", "--to", "2000"],
        "prime sieve over [2, 4000], 1 report rows and per-n counts over [2000, 2000] "
        "needs 29465 bytes",
    ),
    # no count table
    "first-witness": (
        ["binary", "--from", "2", "--to", "2000", "--first-witness-only"],
        "prime sieve over [2, 4000] and 1999 report rows needs 612868 bytes",
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
