"""The package surface, what importing it and running one command leave
behind, and the memory-budget footprint of each route."""

import importlib
import os
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
    assert len(names) == len(set(names)) == 49
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


def test_certify_sweep_on_two_threads_never_forks():
    # 2^17 + 1 n on two usable CPUs are two chunks, but certify rows cost
    # less than shipping them back from a worker: no pool module is imported
    code = (
        "import os, resource, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from phisystems import cli, sweep\n"
        "assert sweep._worker_count(2) == 2\n"
        f"argv = ['certify', '--from', '2', '--to', '131074', '--out', {os.devnull!r}]\n"
        "assert cli.main([*argv, '--threads', '2']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(*sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert fresh_python(code).split() == ["0"]


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
    # 2 * 9999 and 8 * isqrt(10^4)
    "certify": (
        ["certify", "--from", "2", "--to", "10000"],
        "prime sieve over [2, 10000], 9999 report rows and certifying the block "
        "[2, 10000] needs 2890513 bytes",
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
    # the verdicts: 2 * 4000 + 8 * isqrt(3999) bytes, then the binary count
    # table over them; 1997 rows from n = 4
    "via-fermat": (
        ["binary", "--via-fermat", "--from", "4", "--to", "2000"],
        "prime sieve over [2, 63], 1997 report rows, verdict table over [0, 3999] "
        "and FFT convolution of length 4096 needs 820304 bytes",
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
