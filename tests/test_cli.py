"""End-to-end command-line round trips and exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from butson import construct, errors, verify
from butson.cli import main
from butson.groups import GroupRingElt
from butson.rings import ChainRing, chain_ring

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
    # t outside 1..d, refused before the vanishing sum of p^t roots is built
    ring = ["--family", "galois", "--p", "3", "--d", "1", "--n", "2"]
    assert run("construct", "local-partition", *ring, "--t", "0", "--h", "3") == 2
    assert capsys.readouterr().err.startswith("error: BadT:")


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
    "dims-0": ("array h=2 dims=0\n", ["verify-array", "{file}"]),
    "dims-2-0": ("array h=2 dims=2,0\n", ["verify-array", "{file}"]),
    "length-0": (None, ["solve-sum", "--length", "0", "--order", "6"]),
    "array-repeated-key": ("array h=2 dims=2 dims=2\n0 1\n", ["verify-array", "{file}"]),
    "array-underscore-entry": ("array h=2 dims=2\n0 1_1\n", ["verify-array", "{file}"]),
    "array-arabic-indic-entry": ("array h=2 dims=2\n0 \u0661\n", ["verify-array", "{file}"]),
    "float-entry": ("bh h=2 order=2\ncyclic 2\n0 0\n0 1.0\n", ["verify", "{file}"]),
    "exponent-entry": ("bh h=2 order=2\ncyclic 2\n1e3 0\n0 1\n", ["verify", "{file}"]),
    "20-digit-entry": ("bh h=2 order=2\ncyclic 2\n0 0\n0 10000000000000000001\n",
                       ["verify", "{file}"]),
    # callables edit a valid BH(Z_118, 236) file written by `construct`
    "extra-row": (lambda valid: valid + valid.splitlines()[-1] + "\n", ["verify", "{file}"]),
    "trailing-text": (lambda valid: valid + "hello world\n", ["verify", "{file}"]),
    "repeated-h": (lambda valid: valid.replace("h=236", "h=236 h=5", 1), ["verify", "{file}"]),
    "array-unknown-key": ("array h=2 dims=1 dim=7\n0\n", ["verify-array", "{file}"]),
    "bh-unknown-key": ("bh h=2 order=1 colour=blue\ncyclic 1\n0\n", ["verify", "{file}"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2(case, tmp_path, monkeypatch, capsys):
    text, argv = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    if callable(text):
        assert run("construct", "group", "--order", "118", "--h", "236", "--out", "c118.bh") == 0
        text = text((tmp_path / "c118.bh").read_text())
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


def test_block_check_failure_exits_1(monkeypatch, capsys):
    # multiplier 0 makes every block equal, so no cross product vanishes;
    # the planner never allows it, so this is a program error, not bad input
    plan = construct.BlockParams.plan
    monkeypatch.setattr(construct.BlockParams, "plan",
                        lambda n, m=1: dataclasses.replace(plan(n, m), m=0))
    assert run("construct", "group", "--order", "16", "--h", "4") == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed:")
    assert "cross product D_0 D_1^(-1) is nonzero" in err


def test_construct_checks_its_result_once(monkeypatch, capsys):
    # the constructor's self-check is the one D D^(-1) histogram of order n
    orders = []
    real = verify.correlation_defects
    monkeypatch.setattr(verify, "correlation_defects",
                        lambda G, h, e: orders.append(G.order) or real(G, h, e))
    assert run("construct", "local-partition", "--family", "galois",
               "--p", "2", "--d", "1", "--n", "2", "--t", "1", "--h", "2") == 0
    assert orders == [16]
    orders.clear()
    assert run("construct", "group", "--order", "64", "--h", "8",
               "--group", "semidirect:16,4,15") == 0
    assert orders == [64]
    assert "\nbh h=8 order=64\n" in capsys.readouterr().out


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


@pytest.mark.parametrize("family, p, d, n", [
    ("galois", 2, 1, 12), ("truncated", 2, 1, 12), ("galois", 3, 2, 2),
    ("truncated", 3, 1, 5), ("galois", 5, 1, 3), ("truncated", 5, 2, 2),
])
def test_ring_info_ideal_sizes_need_no_ideal_scan(family, p, d, n, monkeypatch, capsys):
    R = chain_ring(family, p, d, n)
    sizes = [len(R.ideal_elements(t)) for t in range(n + 1)]  # the scan the formula replaces
    flags = ["--family", family, "--p", str(p), "--d", str(d), "--n", str(n)]

    def unreachable(self, t):
        raise AssertionError("ring-info scanned an ideal")

    monkeypatch.setattr(ChainRing, "ideal_elements", unreachable)
    assert run("ring-info", *flags, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == {
        "ring": R.describe(),
        "order": R.size,
        "units": sizes[0] - sizes[1],
        "ideal_sizes": sizes,
        "additive_type": list(R.additive_factors),
    }
    assert run("ring-info", *flags) == 0
    assert f"ideal sizes:   {sizes}\n" in capsys.readouterr().out


# each command meets an h whose (h, phi(h)) reduction matrix exceeds 1 MB
_BIG_H = {
    "construct-group": (None, ["construct", "group", "--order", "4", "--h", "1000"]),
    "construct-partition": (None, ["construct", "local-partition", "--family", "galois", "--p", "2",
                                   "--d", "1", "--n", "2", "--t", "1", "--h", "1000"]),
    "construct-lines": (None, ["construct", "local-lines", "--family", "galois", "--p", "2",
                               "--d", "1", "--n", "2", "--h", "1002"]),
    "solve-zero-sum": (None, ["solve-sum", "--length", "2", "--order", "1000"]),
    "solve-unit-sum": (None, ["solve-sum", "--length", "1", "--order", "1000", "--target", "1"]),
    "verify": ("bh h=1000 order=1\ncyclic 1\n0\n", ["verify", "{file}"]),
    "verify-array": ("array h=1000 dims=2\n0 1\n", ["verify-array", "{file}"]),
    "verify-2^70": (f"bh h={2**70} order=1\ncyclic 1\n0\n", ["verify", "{file}"]),
    "verify-array-2^70": (f"array h={2**70} dims=2\n0 1\n", ["verify-array", "{file}"]),
}


@pytest.mark.parametrize("case", list(_BIG_H))
def test_too_large_h_exits_2(case, tmp_path, monkeypatch, capsys):
    text, argv = _BIG_H[case]
    monkeypatch.setattr(errors, "_physical_memory", lambda: 10**6)
    if text is not None:
        (tmp_path / "input.txt").write_text(text)
    assert run(*(a.format(file=tmp_path / "input.txt") for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: TooLarge:") and "reduction matrix" in captured.err
    assert captured.out == ""


def test_verify_array_needs_no_room_for_a_cayley_table(tmp_path, monkeypatch, capsys):
    ring = ["--family", "galois", "--p", "3", "--d", "1", "--n", "2"]
    assert run("construct", "local-partition", *ring, "--t", "1", "--h", "3", "--out", str(tmp_path / "r.bh")) == 0
    assert run("export-array", str(tmp_path / "r.bh"), "--out", str(tmp_path / "r.arr")) == 0
    # the order-81 array verifies on a machine too small for its 81 x 81 table
    monkeypatch.setattr(errors, "_physical_memory", lambda: 81 * 81 * 8 - 1)
    capsys.readouterr()
    assert run("verify-array", str(tmp_path / "r.arr")) == 0
    assert "perfect=True" in capsys.readouterr().out


def test_cli_never_converts_through_group_ring_elements(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(GroupRingElt, "from_exponents",
                        classmethod(lambda cls, *args: calls.append("from_exponents")))
    monkeypatch.setattr(GroupRingElt, "monomial_exponents",
                        lambda self: calls.append("monomial_exponents"))
    monkeypatch.chdir(tmp_path)
    ring = ["--family", "galois", "--p", "3", "--d", "1", "--n", "2"]
    for name, argv in [
        ("group", ["construct", "group", "--order", "16", "--h", "4"]),
        ("partition", ["construct", "local-partition", *ring, "--t", "1", "--h", "3"]),
        ("lines", ["construct", "local-lines", *ring, "--h", "6"]),
    ]:
        assert run(*argv, "--out", f"{name}.bh") == 0
        assert run("verify", f"{name}.bh") == 0
        assert run("export-array", f"{name}.bh", "--out", f"{name}.arr") == 0
        assert run("verify-array", f"{name}.arr") == 0
    assert calls == []


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


def test_ring_info_lists_rings_whose_square_has_no_table(capsys):
    # GF(256) is listed at once; only a construction over R x R needs its table
    assert run("ring-info", "--family", "galois", "--p", "2", "--d", "8",
               "--n", "1", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["order"] == 256


@pytest.fixture
def product_tables_built(monkeypatch):
    """The rings whose product table was computed while the fixture was active."""
    built = []
    build = ChainRing.__dict__["mul_table"].func
    monkeypatch.setattr(ChainRing, "mul_table", property(lambda R: built.append(R.describe()) or build(R)))
    return built


@pytest.mark.parametrize("construction", [["local-lines"], ["local-partition", "--t", "1"]])
def test_oversized_ring_square_is_refused_before_any_product_table(construction, monkeypatch, capsys,
                                                                   product_tables_built):
    # R x R of order 256 has no room for its Cayley table; R's own 16 x 16 table would fit
    monkeypatch.setattr(errors, "_physical_memory", lambda: 256 * 256 * 8 - 1)
    ring = ["--family", "galois", "--p", "2", "--d", "2", "--n", "2"]
    assert run("construct", construction[0], *ring, *construction[1:], "--h", "6") == 2
    assert capsys.readouterr().err == (
        "error: TooLarge: the Cayley table of abelian 4,4,4,4 (order 256) would not fit in physical memory\n"
    )
    assert product_tables_built == []


def test_ring_info_builds_no_product_table(monkeypatch, capsys, product_tables_built):
    monkeypatch.setattr(errors, "_physical_memory", lambda: 16 * 16 * 8 - 1)
    R = chain_ring("galois", 2, 2, 2)
    with pytest.raises(errors.TooLarge, match=r"product table of GR\(2\^2, 2\)"):
        R.mul_table
    assert run("ring-info", "--family", "galois", "--p", "2", "--d", "2", "--n", "2") == 0
    assert "order:         16" in capsys.readouterr().out
    assert product_tables_built == ["GR(2^2, 2)"]  # the direct read above, nothing after it


@pytest.mark.parametrize("argv", [
    # Cayley tables of 80 PB and 6.5 EB, a ring of 10^15 elements, and
    # R x R of order 2^28 over a ring of 2^14 elements
    ["construct", "group", "--order", "7", "--h", "7", "--group", "cyclic:100000000"],
    ["construct", "group", "--order", "7", "--h", "7", "--group", "abelian:30000,30000"],
    ["ring-info", "--family", "galois", "--p", "99991", "--d", "3", "--n", "1"],
    ["construct", "local-partition", "--family", "truncated", "--p", "2", "--d", "1",
     "--n", "14", "--t", "1", "--h", "2"],
    # a vanishing sum of 3^17 roots
    ["construct", "local-partition", "--family", "galois", "--p", "3", "--d", "1", "--n", "2", "--t", "17", "--h", "3"],
])
def test_oversized_groups_and_rings_exit_2_before_allocating(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "butson.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(("error: TooLarge:", "error: UnsupportedRing:", "error: BadT:")), proc.stderr


def test_export_array_beyond_numpy_axes_exits_2(tmp_path):
    # Z_1^65 has 65 invariant factors, one more than numpy's 64 axes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "butson.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    group = "abelian:" + ",".join(["1"] * 65)
    assert cli("construct", "group", "--order", "1", "--h", "1", "--group", group, "--out", "z.bh").returncode == 0
    proc = cli("export-array", "z.bh", "--out", "z.arr")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: InvalidParams:") and "64 axes" in proc.stderr, proc.stderr
    assert not (tmp_path / "z.arr").exists()


@pytest.mark.parametrize("argv", [
    ["construct", "group", "--order", "8", "--h", "4"],
    ["construct", "local-partition", "--family", "galois", "--p", "2", "--d", "1", "--n", "2", "--t", "1", "--h", "2"],
    ["construct", "local-lines", "--family", "galois", "--p", "3", "--d", "1", "--n", "2", "--h", "6"],
    ["export-array", "{bh}"],
])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    bh = tmp_path / "c4.bh"
    assert run("construct", "group", "--order", "4", "--h", "4", "--out", str(bh)) == 0
    target = tmp_path / "missing" / "x.out"
    assert run(*(a.format(bh=bh) for a in argv), "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: ButsonError: cannot write {target}: No such file or directory\n"
    assert captured.out == ""


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    import numpy as np

    def exhausted(*args):
        # 1 EiB exceeds any address space, so this fails at once with numpy's _ArrayMemoryError
        np.empty(2**60, dtype=np.uint8)

    monkeypatch.setattr(verify, "materialize", exhausted)
    assert run("construct", "group", "--order", "4", "--h", "4") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: MemoryError: Unable to allocate") and "Traceback" not in captured.err
    monkeypatch.setattr(verify, "materialize", lambda *args: (_ for _ in ()).throw(MemoryError()))
    assert run("construct", "group", "--order", "4", "--h", "4") == 2
    assert capsys.readouterr().err == "error: MemoryError: out of memory\n"
