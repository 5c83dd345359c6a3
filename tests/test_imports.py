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
