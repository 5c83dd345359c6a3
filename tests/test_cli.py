"""End-to-end command-line round trips and exit codes."""

from __future__ import annotations

import json

import pytest

from butson import construct
from butson.cli import main

from conftest import quaternion_table


def run(*argv):
    return main(list(argv))


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "z4.bh"
    assert run("construct", "group", "--order", "4", "--h", "2",
               "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == "bh h=2 order=4"
    assert run("verify", str(out)) == 0
    assert "ok" in capsys.readouterr().out


def test_construct_to_stdout(capsys):
    assert run("construct", "group", "--order", "4", "--h", "2") == 0
    assert capsys.readouterr().out.startswith("bh h=2 order=4")


def test_verify_json(tmp_path, capsys):
    out = tmp_path / "z4.bh"
    run("construct", "group", "--order", "4", "--h", "2", "--out", str(out))
    capsys.readouterr()
    assert run("verify", str(out), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_bh"] and payload["is_invariant"]
    assert payload["first_failure"] is None
    assert payload["pairs_checked"] == 3
    assert run("verify", str(out), "--full", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["pairs_checked"] == 6


def test_verify_detects_mutation(tmp_path, capsys):
    out = tmp_path / "z4.bh"
    run("construct", "group", "--order", "4", "--h", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    lines[2] = "1 0 0 1"
    out.write_text("\n".join(lines) + "\n")
    assert run("verify", str(out)) == 1
    assert "FAILED" in capsys.readouterr().out


def test_semidirect_group_flag(tmp_path):
    out = tmp_path / "d4.bh"
    assert run("construct", "group", "--order", "8", "--h", "4",
               "--group", "semidirect:4,2,3", "--out", str(out)) == 0
    assert run("verify", str(out)) == 0


def test_table_group_flag(tmp_path):
    table_path = tmp_path / "q8.txt"
    table_path.write_text(
        "order 8\n" + "\n".join(" ".join(map(str, r)) for r in quaternion_table())
    )
    out = tmp_path / "q8.bh"
    assert run("construct", "group", "--order", "8", "--h", "4",
               "--group", f"table:{table_path}", "--out", str(out)) == 0
    assert run("verify", str(out)) == 0


def test_bad_params_exit_codes(capsys):
    # no normal cyclic subgroup of order 6 in S3
    assert run("construct", "group", "--order", "6", "--h", "12",
               "--group", "semidirect:3,2,2") == 2
    assert "WrongSubgroupOrder" in capsys.readouterr().err
    # h not a multiple of the minimal root order
    assert run("construct", "group", "--order", "4", "--h", "3") == 2
    assert "BadH" in capsys.readouterr().err


_MALFORMED = {
    # id: (contents of input.txt or None, argv; {file} is input.txt)
    "cyclic-0": (None, ["construct", "group", "--order", "4", "--h", "2", "--group", "cyclic:0"]),
    "abelian-x": (None, ["construct", "group", "--order", "4", "--h", "2", "--group", "abelian:2,x"]),
    "missing-table": (None, ["construct", "group", "--order", "4", "--h", "2",
                             "--group", "table:missing.txt"]),
    "header-h-x": ("bh h=x order=2\ncyclic 2\n0 0\n0 1\n", ["verify", "{file}"]),
    "empty-file": ("", ["verify", "{file}"]),
    "h-0": ("bh h=0 order=2\ncyclic 2\n0 0\n0 1\n", ["verify", "{file}"]),
    "dims-x": ("array h=2 dims=2,x\n0 1\n", ["verify-array", "{file}"]),
    "length-0": (None, ["solve-sum", "--length", "0", "--order", "6"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2(case, tmp_path, monkeypatch, capsys):
    text, argv = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "input.txt").write_text(text)
    # main must return, not raise
    assert run(*(a.format(file=tmp_path / "input.txt") for a in argv)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_self_check_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(construct, "verify_group_ring", lambda D: False)
    assert run("construct", "group", "--order", "4", "--h", "2") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("verification failed:") and captured.out == ""


def test_local_partition_round_trip(tmp_path, capsys):
    out = tmp_path / "p.bh"
    assert run("construct", "local-partition", "--family", "galois",
               "--p", "2", "--d", "1", "--n", "2", "--t", "1", "--h", "2",
               "--out", str(out)) == 0
    assert run("verify", str(out)) == 0
    arr = tmp_path / "p.arr"
    assert run("export-array", str(out), "--out", str(arr)) == 0
    capsys.readouterr()
    assert run("verify-array", str(arr), "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["is_perfect"] is True


def test_local_lines_round_trip(tmp_path):
    out = tmp_path / "l.bh"
    assert run("construct", "local-lines", "--family", "galois",
               "--p", "2", "--d", "1", "--n", "2", "--h", "6",
               "--out", str(out)) == 0
    assert run("verify", str(out)) == 0


def test_local_lines_infeasible_h_is_bad_params(capsys):
    assert run("construct", "local-lines", "--family", "galois",
               "--p", "2", "--d", "1", "--n", "2", "--h", "2") == 2
    assert "NoScheme" in capsys.readouterr().err


def test_verify_array_detects_mutation(tmp_path, capsys):
    arr = tmp_path / "a.arr"
    arr.write_text("array h=2 dims=4\n0 0 1 1\n")
    assert run("verify-array", str(arr)) == 1
    assert "perfect=False" in capsys.readouterr().out


def test_solve_sum(capsys):
    assert run("solve-sum", "--length", "5", "--order", "6") == 0
    exps = [int(x) for x in capsys.readouterr().out.split()]
    assert len(exps) == 5
    assert run("solve-sum", "--length", "1", "--order", "6") == 2
    assert "NoDecomposition" in capsys.readouterr().err
    assert run("solve-sum", "--length", "3", "--order", "6",
               "--target", "2", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["exponents"]) == 3 and payload["target"] == 2


def test_ring_info(capsys):
    assert run("ring-info", "--family", "truncated", "--p", "2", "--d", "1",
               "--n", "3", "--format", "json") == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 8 and info["units"] == 4
    assert info["ideal_sizes"] == [8, 4, 2, 1]
    assert info["additive_type"] == [2, 2, 2]


def test_export_array_exit_codes(tmp_path, capsys):
    out = tmp_path / "z4.bh"
    run("construct", "group", "--order", "4", "--h", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # rows 1 and 2: still BH, not invariant
    out.write_text("\n".join(lines) + "\n")
    arr = tmp_path / "z4.arr"
    assert run("export-array", str(out), "--out", str(arr)) == 1
    assert "not group-invariant" in capsys.readouterr().err
    assert not arr.exists()
    d4 = tmp_path / "d4.bh"
    run("construct", "group", "--order", "8", "--h", "4",
        "--group", "semidirect:4,2,3", "--out", str(d4))
    assert run("export-array", str(d4), "--out", str(arr)) == 2
    assert "NotAbelianFactored" in capsys.readouterr().err
