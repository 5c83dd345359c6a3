"""What importing the package and its CLI does to the process.

Each check runs in a fresh interpreter whose environment has no
OPENBLAS_NUM_THREADS, so no import made by the test session is seen.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LIBRARY = ["arrays", "construct", "cyclotomic", "errors", "fileio", "groups", "rings", "sums", "verify"]


def python(code: str, **env: str) -> list[str]:
    """Whitespace-split stdout of `python -c code` run without OPENBLAS_NUM_THREADS unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_runs_numpy_with_one_blas_thread():
    value, threads = python(
        "import os, butson.cli\n"
        "import numpy  # the CLI's handlers load numpy; the variable must be set before\n"
        "task = '/proc/self/task'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(task)) if os.path.isdir(task) else '-')"
    )
    assert value == "1"
    if not sys.platform.startswith("linux"):
        pytest.skip("threads are counted from /proc/self/task")
    assert threads == "1"


def test_cli_keeps_the_callers_blas_thread_count():
    assert python("import os, butson.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                  OPENBLAS_NUM_THREADS="2") == ["2"]


def test_library_imports_leave_the_environment_alone():
    out = python(
        "import os, sys, butson\n"
        "print('numpy' in sys.modules)\n"
        f"for name in {LIBRARY!r}: __import__('butson.' + name)\n"
        "import numpy\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"
    )
    assert out == ["False", "unset"]


def test_every_exported_name_resolves():
    out = python(
        "import butson\n"
        "from butson import *\n"
        "names = butson.__all__\n"
        "print(all(getattr(butson, n) is globals()[n] for n in names), set(names) <= set(dir(butson)))\n"
        "try:\n"
        "    butson.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')"
    )
    assert out == ["True", "True", "AttributeError"]


# butson modules each command loads beyond cli and errors, whether it loads json,
# and whether it loads numpy: only commands that build or reduce arrays do
_COMMON = {"cli", "errors"}
_MATRIX = _COMMON | {"fileio", "groups", "verify", "cyclotomic"}
_COMMANDS = {
    "ring-info": (["ring-info", "--family", "galois", "--p", "2", "--d", "1", "--n", "1"],
                  _COMMON | {"rings", "cyclotomic"}, False, False),
    "solve-sum": (["solve-sum", "--length", "3", "--order", "3"], _COMMON | {"sums", "cyclotomic"}, False, False),
    "verify": (["verify", "{bh}"], _MATRIX, False, True),
    "verify-json": (["verify", "{bh}", "--format", "json"], _MATRIX, True, True),
    "construct-group": (["construct", "group", "--order", "4", "--h", "4", "--out", "{tmp}/g.bh"],
                        _MATRIX | {"construct"}, False, True),
    "construct-local-partition": (
        ["construct", "local-partition", "--family", "galois", "--p", "2", "--d", "1", "--n", "2",
         "--t", "1", "--h", "2", "--out", "{tmp}/p.bh"],
        _MATRIX | {"construct", "rings", "sums"}, False, True),
    "export-array": (["export-array", "{bh}", "--out", "{tmp}/x.arr"], _MATRIX | {"arrays"}, False, True),
    "verify-array": (["verify-array", "{arr}"], _MATRIX | {"arrays"}, False, True),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    code = (
        "from butson.cli import main\n"
        f"assert main(['construct', 'group', '--order', '4', '--h', '4', '--out', {str(tmp / 'c4.bh')!r}]) == 0\n"
        f"assert main(['export-array', {str(tmp / 'c4.bh')!r}, '--out', {str(tmp / 'c4.arr')!r}]) == 0"
    )
    python(code)
    return {"tmp": str(tmp), "bh": str(tmp / "c4.bh"), "arr": str(tmp / "c4.arr")}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_imports_only_the_modules_it_runs(command, files):
    argv, modules, loads_json, loads_numpy = _COMMANDS[command]
    argv = [a.format(**files) for a in argv]
    out = python(
        "import sys\n"
        "from butson.cli import main\n"
        f"code = main({argv!r})\n"
        "print('RESULT', code, 'json' in sys.modules, 'numpy' in sys.modules,"
        " *sorted(m for m in sys.modules if m.startswith('butson.')))"
    )
    result = out[out.index("RESULT") + 1:]
    assert result[:3] == ["0", str(loads_json), str(loads_numpy)]
    assert set(result[3:]) == {f"butson.{m}" for m in modules}


def test_main_freezes_the_collector_only_for_the_process_command_line():
    argv = _COMMANDS["ring-info"][0]
    out = python(
        "import gc, sys\n"
        "from butson.cli import main\n"
        f"code = main({argv!r})\n"
        "print('RESULT', code, gc.get_freeze_count())\n"
        f"sys.argv = ['butson', *{argv!r}]\n"
        "code = main()\n"
        "print('RESULT', code, gc.get_freeze_count() > 0)"
    )
    first = out.index("RESULT")
    second = out.index("RESULT", first + 1)
    assert out[first + 1:first + 3] == ["0", "0"]
    assert out[second + 1:] == ["0", "True"]
