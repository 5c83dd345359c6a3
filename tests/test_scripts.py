"""The scripts run end to end against the package in src/."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_array_mutant_shifts_one_entry_without_wrapping(tmp_path, monkeypatch, capsys):
    # h = 184: an entry near 183 plus a shift near 183 passes 255, where a uint8 sum would wrap
    census = load_script("census.py")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        census.group_case(46, "cyclic:46", 184)
    assert capsys.readouterr().out.splitlines()[-1].startswith("verify-array m.arr\t1\t")
    rng = random.Random("cyclic:46 184")
    i, shift = rng.randrange(46), rng.randrange(1, 184)
    g, m = ([int(x) for x in (tmp_path / name).read_text().split()[3:]] for name in ("g.arr", "m.arr"))
    assert [k for k in range(46) if g[k] != m[k]] == [i] and (m[i] - g[i]) % 184 == shift


def test_coldstart_compares_one_round():
    src = str(ROOT / "src")
    proc = run_script("coldstart.py", src, src, "--rounds", "1", "--importtime")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "numpy: no; butson: butson.errors butson.cli butson.poly butson.rings" in out
    assert "exit codes: old [0], new [0]" in out
    assert out.count("pairs, slower in") == 2  # wall and cpu of the default command
    assert out.count("pairs, larger in") == 1  # and its peak memory
    peaks = [float(line.split()[3]) for line in out.splitlines() if line.startswith("  rss  ") and ": median " in line]
    assert len(peaks) == 2 and all(p > 1 for p in peaks), out  # old and new, in MB
    floor = [line for line in out.splitlines() if line.startswith("floor (python -c pass): wall median ")]
    assert len(floor) == 1 and " cpu median " in floor[0] and " rss median " in floor[0], out
    launcher = float(floor[0].split("launcher peak ")[1].removesuffix(" MB"))
    assert launcher > 1, out


def test_census_exits_0_or_2_on_small_rings():
    proc = run_script("census.py", "--max-square", "256")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows} == {"0", "2"}, [row for row in rows if row[1] not in ("0", "2")]
    # every outcome of the ring grid, byte for byte
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "2722bf8399a2fb3abe24eca91f08dc0c577c81cd60f955492958da041fde8df1"
    )


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
