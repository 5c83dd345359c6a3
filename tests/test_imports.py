"""What importing the package and running its CLI do to the process.

Each check runs in a fresh interpreter whose environment has no
OPENBLAS_NUM_THREADS, so no import made by the test session is seen.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LIBRARY = ["arrays", "construct", "cyclotomic", "errors", "fileio", "groups", "poly", "rings", "sums", "verify"]
# how the console script and the bench call the CLI: main() reads sys.argv and ends the process
CLI = "import sys; from butson.cli import main; sys.exit(main())"


def environment(unset=(), **env: str) -> dict[str, str]:
    """This environment with `src` on PYTHONPATH, without OPENBLAS_NUM_THREADS or the variables in `unset`."""
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", *unset)}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**base, **env}


def spawn(code: str, *args: str, flags=(), unset=(), **env: str) -> subprocess.CompletedProcess:
    """`python *flags -c code *args` in `environment(unset, **env)`."""
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=environment(unset, **env),
                          capture_output=True, text=True, timeout=60)


def python(code: str, flags=(), **env: str) -> list[str]:
    """Whitespace-split stdout of `spawn(code)`, which must exit 0."""
    proc = spawn(code, flags=flags, **env)
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
_MATRIX = _COMMON | {"fileio", "groups", "verify", "cyclotomic", "poly"}
_COMMANDS = {
    "ring-info": (["ring-info", "--family", "galois", "--p", "2", "--d", "1", "--n", "1"],
                  _COMMON | {"rings", "poly"}, False, False),
    "solve-sum": (["solve-sum", "--length", "3", "--order", "3"], _COMMON | {"sums", "cyclotomic", "poly"},
                  False, False),
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


@pytest.mark.parametrize("argv", [
    ["--order", "118", "--h", "236"], ["--group", "semidirect:16,4,15", "--order", "64", "--h", "8"],
])
def test_construct_group_loads_no_numpy_ma(argv, tmp_path):
    # np.unique loads numpy.ma (numpy 2.4: _unique1d calls np.ma.is_masked)
    argv = ["construct", "group", *argv, "--out", str(tmp_path / "g.bh")]
    out = python(
        "import sys\n"
        "from butson.cli import main\n"
        f"code = main({argv!r})\n"
        "print('RESULT', code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    assert out[out.index("RESULT") + 1:] == ["0", "True", "False"]


def test_main_ends_the_process_only_for_the_process_command_line():
    argv = _COMMANDS["ring-info"][0]
    out = python(
        "import atexit, sys\n"
        "from butson.cli import main\n"
        f"code = main({argv!r})\n"
        "print('RESULT', code)\n"
        "atexit.register(lambda: print('RESULT', 'atexit'))\n"
        f"sys.argv = ['butson', *{argv!r}]\n"
        "main()\n"
        "print('main returned')"
    )
    first = out.index("RESULT")
    second = out.index("RESULT", first + 1)
    assert out[first + 1] == "0"
    assert out[second + 1:] == ["atexit"]
    assert "returned" not in out


def test_ring_info_without_site_loads_no_cyclotomic_dataclasses_inspect_or_pathlib():
    # -S: no .pth file or site customisation preloads any of them
    argv = _COMMANDS["ring-info"][0]
    out = python(
        "import sys\n"
        "from butson.cli import main\n"
        f"code = main({argv!r})\n"
        "print('RESULT', code, *sorted({'butson.cyclotomic', 'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))",
        flags=("-S",),
    )
    assert out[out.index("RESULT") + 1:] == ["0"]


@pytest.fixture(scope="module")
def mutant(files):
    """A copy of the order-4 matrix with one entry shifted, which `verify` rejects."""
    path = Path(files["tmp"]) / "c4.mut.bh"
    lines = Path(files["bh"]).read_text().splitlines()
    row = lines[3].split()
    row[1] = str((int(row[1]) + 1) % 4)
    lines[3] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("expected, argv", [
    (0, ["verify", "{bh}"]),
    (1, ["verify", "{mutant}"]),
    (2, ["construct", "group", "--order", "4", "--h", "3"]),
])
def test_process_exit_codes(expected, argv, files, mutant):
    proc = spawn(CLI, *(a.format(mutant=mutant, **files) for a in argv))
    assert proc.returncode == expected, proc.stderr
    assert proc.stdout.startswith({0: "bh=True invariant=True ok", 1: "bh=", 2: ""}[expected])
    assert proc.stderr.startswith("error: BadH:") if expected == 2 else proc.stderr == ""


def test_atexit_handlers_run_and_their_output_arrives():
    # buffered stdout: the handler's line must still be flushed after it runs
    proc = spawn("import atexit; atexit.register(print, 'atexit ran')\n" + CLI,
                 *_COMMANDS["ring-info"][0], unset=("PYTHONUNBUFFERED",))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ring:") and proc.stdout.endswith("atexit ran\n")
    assert proc.stderr == ""


def test_buffered_pipe_receives_the_whole_matrix(files):
    out = Path(files["tmp"]) / "c118.bh"
    argv = ["construct", "group", "--order", "118", "--h", "236"]
    written = spawn(CLI, *argv, "--out", str(out))
    piped = spawn(CLI, *argv, unset=("PYTHONUNBUFFERED",))
    assert written.returncode == piped.returncode == 0, written.stderr + piped.stderr
    assert len(piped.stdout) > 40_000  # several 8 KiB buffers' worth
    assert piped.stdout == out.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered, expected", [
    # buffered: the print succeeds and the flush at exit fails; Python's shutdown reports it
    (False, 120),
    # unbuffered: the print itself raises, and the OSError escapes main
    (True, 1),
])
def test_full_stdout_exits_as_before(unbuffered, expected):
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", CLI, *_COMMANDS["ring-info"][0]],
                              env=environment(("PYTHONUNBUFFERED",), **env),
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == expected, proc.stderr
    assert "OSError: [Errno 28] No space left on device" in proc.stderr


_NAMES = {ast.Name: lambda node: node.id, ast.Attribute: lambda node: node.attr,
          ast.alias: lambda node: node.name.rpartition(".")[2]}


def _references(tree: ast.AST) -> Counter:
    """How often each name is read as a Name, an attribute or an imported name inside `tree`."""
    return Counter(_NAMES[type(node)](node) for node in ast.walk(tree) if type(node) in _NAMES)


def test_every_public_definition_has_a_caller_outside_the_tests():
    # code that only tests call lives in tests/oracles.py; dunders and _private names are exempt
    trees = {path: ast.parse(path.read_text()) for folder in ("src/butson", "scripts", "bench")
             for path in sorted((Path(SRC).parent / folder).glob("*.py"))}
    used = sum(map(_references, trees.values()), Counter())
    unused = []
    for path in sorted(Path(SRC, "butson").glob("*.py")):
        body = trees[path].body
        members = [("", node) for node in body]
        members += [(f"{c.name}.", node) for c in body if isinstance(c, ast.ClassDef) for node in c.body]
        unused += [f"{path.stem}.{owner}{node.name}" for owner, node in members
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                   and used[node.name] == _references(node)[node.name]]
    assert unused == []
