"""The library surface that bench/workloads.py reads, exercised on CLI output.

The benchmark re-checks every file the CLI writes with `Checker`, which
compares `materialize(...).exponents` with tuples of Python ints and builds
`BhMatrix` from tuples.  These tests load that module as it is, without
changing it, and run its checks on one small instance per construction.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from butson.cli import main
from butson.groups import make_semidirect

ROOT = Path(__file__).resolve().parents[1]

CASES = {
    # name: (h, construct argv without --out, exports an array)
    "group-16": (4, ["construct", "group", "--order", "16", "--h", "4", "--m", "3"], True),
    "semidirect-64": (8, ["construct", "group", "--order", "64", "--h", "8",
                          "--group", "semidirect:16,4,15"], False),
    "partition-81": (3, ["construct", "local-partition", "--family", "galois", "--p", "3",
                         "--d", "1", "--n", "2", "--t", "1", "--h", "3", "--seed", "7"], True),
    "lines-16": (6, ["construct", "local-lines", "--family", "galois", "--p", "2", "--d", "1",
                     "--n", "2", "--h", "6"], True),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(CASES))
def test_checker_accepts_cli_output(workloads, name, tmp_path, monkeypatch):
    h, argv, arrays = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", f"{name}.bh"]) == 0
    checker = workloads.Checker(tmp_path)
    got = checker.matrix(f"{name}.bh", h)
    assert got is not None
    G, col0 = got
    body = (tmp_path / f"{name}.bh").read_text().splitlines()[2:]
    assert col0 == [int(row.split()[0]) for row in body] and G.order == len(body)
    if arrays:
        assert main(["export-array", f"{name}.bh", "--out", f"{name}.arr"]) == 0
        assert checker.array(f"{name}.arr", h, G, col0)
    # a seeded single-entry mutant fails both the checker and `verify`
    inst = workloads.Instance(name, h, argv, arrays, [(1, 2, 1)])
    inst.write_mutant(0, tmp_path)
    assert checker.matrix(inst.mutant_file(0), h) is None
    assert main(["verify", inst.mutant_file(0)]) == 1


def test_relabelled_instance_round_trips(workloads, tmp_path, monkeypatch):
    # _relabelled_instance builds a BhMatrix from tuples and writes it with format_matrix
    monkeypatch.chdir(tmp_path)
    table = make_semidirect(16, 4, 15).table
    inst = workloads._relabelled_instance("table-64", table, random.Random(101), tmp_path)
    assert workloads.Checker(tmp_path).matrix(inst.matrix, inst.h) is not None
    assert main(["verify", inst.matrix]) == 0
