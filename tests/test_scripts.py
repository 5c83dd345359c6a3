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
    assert "butson: butson.errors butson.cli butson.cyclotomic butson.rings" in out
    assert "exit codes: old [0], new [0]" in out
    assert out.count("pairs, slower in") == 2  # wall and cpu of the default command


def test_census_exits_0_or_2_on_small_rings():
    proc = run_script("census.py", "--max-square", "256")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows} == {"0", "2"}, [row for row in rows if row[1] not in ("0", "2")]
