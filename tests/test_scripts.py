"""The scripts run end to end against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_block_sweep_runs():
    proc = run_script("block_sweep.py", "--max-n", "16")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 17  # header and n = 1..16


def test_build_gallery_verifies_every_entry():
    proc = run_script("build_gallery.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all("rows=True ring=True" in ln for ln in lines)
    assert "False" not in proc.stdout


def test_coldstart_compares_one_round():
    src = str(ROOT / "src")
    proc = run_script("coldstart.py", src, src, "--rounds", "1", "--importtime")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "numpy: no; butson: butson.errors butson.cli butson.poly butson.rings" in out
    assert "exit codes: old [0], new [0]" in out
    assert out.count("pairs, slower in") == 2  # wall and cpu of the default command
    floor = [line for line in out.splitlines() if line.startswith("floor (python -c pass): wall median ")]
    assert len(floor) == 1 and " cpu median " in floor[0], out


def test_census_exits_0_or_2_on_small_rings():
    proc = run_script("census.py", "--max-square", "256")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows} == {"0", "2"}, [row for row in rows if row[1] not in ("0", "2")]


def test_census_of_small_abelian_groups():
    proc = run_script("census.py", "--max-square", "0", "--max-order", "16")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert all(len(row) == 4 for row in rows)
    constructs = [row for row in rows if row[0].startswith("construct group")]
    assert {row[0].rpartition(" ")[2] for row in constructs} >= {"cyclic:16", "abelian:2,2,2,2", "abelian:2,3"}
    assert {row[1] for row in constructs} <= {"0", "2"}, [row for row in constructs if row[1] not in ("0", "2")]
    # the valid matrix and its array verify; a shifted entry may or may not break the array
    assert all(row[1] == "0" for row in rows if row[0] in ("verify g.bh", "verify-array g.arr"))
    assert {row[1] for row in rows if row[0] == "verify-array m.arr"} == {"0", "1"}


def test_census_of_small_semidirect_groups():
    proc = run_script("census.py", "--max-square", "0", "--max-order", "24")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    constructs = [row for row in rows if row[0].startswith("construct group") and "semidirect:" in row[0]]
    assert {"construct group --order 8 --h 4 --group semidirect:4,2,3",
            "construct group --order 8 --h 4 --group semidirect:4,2,3 --m 5"} <= {row[0] for row in constructs}
    assert not any("--m 5" in row[0] and "--order 10 " in row[0] for row in constructs)  # gcd(5, 10) = 5
    assert {row[1] for row in constructs} <= {"0", "2"}, [row for row in constructs if row[1] not in ("0", "2")]
    # each matrix a construct wrote verifies
    checked = [row for prev, row in zip(rows, rows[1:]) if prev in constructs and prev[1] == "0"]
    assert checked and all(row[0] == "verify g.bh" and row[1] == "0" for row in checked)
