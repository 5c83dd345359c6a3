"""Workload instances, their seeded inputs, and the checks on CLI outputs.

Every random choice of a run (partition seed, multipliers, table
relabellings, mutant position and value) is drawn from one
``random.Random(seed)``, so one seed gives the same files and flags.  The CLI
sees only those flags and files.

The checks use the package as a library and run outside the timed region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from butson.construct import block_count, construct_group_bh, find_normal_cyclic_generator, min_h
from butson.fileio import format_matrix, parse_group_spec
from butson.groups import GroupRingElt, make_from_table, make_semidirect
from butson.verify import BhMatrix, materialize, verify_group_ring

WORKLOADS = ("chain-ring", "nonabelian", "high-degree")
# A reject takes 0.5-2 s, of which start-up jitter is a large share, so each
# instance gets several mutants to keep reject_s steady.
MUTANTS = 3


@dataclass
class Instance:
    """One matrix taken through the pipeline in every pass."""

    name: str
    h: int
    construct: list[str] | None  # CLI args; None when the matrix is supplied
    arrays: bool  # run export-array and verify-array
    mutants: list[tuple[int, int, int]]  # row, column, shift of the exponent

    @property
    def matrix(self) -> str:
        return f"{self.name}.bh"

    def mutant_file(self, i: int) -> str:
        return f"{self.name}.mut{i}.bh"

    def write_mutant(self, i: int, workdir: Path) -> None:
        """Copy the matrix with one exponent shifted; verify must then exit 1."""
        lines = (workdir / self.matrix).read_text().splitlines()
        row, col, shift = self.mutants[i]
        entries = lines[2 + row].split()
        entries[col] = str((int(entries[col]) + shift) % self.h)
        lines[2 + row] = " ".join(entries)
        (workdir / self.mutant_file(i)).write_text("\n".join(lines) + "\n")

    @property
    def array_file(self) -> str:
        return f"{self.name}.arr"


@dataclass
class Probe:
    """A construct call that should succeed; known to fail on some labellings."""

    name: str
    h: int
    argv: list[str]

    @property
    def matrix(self) -> str:
        return f"{self.name}.bh"


def _mutants(rng: random.Random, order: int, h: int) -> list[tuple[int, int, int]]:
    return [(rng.randrange(order), rng.randrange(order), rng.randrange(1, h)) for _ in range(MUTANTS)]


def _multiplier(rng: random.Random, n: int) -> str:
    while True:
        m = rng.randrange(1, n)
        if math.gcd(m, n) == 1:
            return str(m)


def _group_construct(name: str, n: int, h: int, spec: str | None, m: str) -> list[str]:
    argv = ["construct", "group", "--order", str(n), "--h", str(h), "--m", m, "--out", f"{name}.bh"]
    if spec is not None:
        argv[6:6] = ["--group", spec]
    return argv


def _relabel(table, rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """Cayley table under a random bijection old -> new that fixes the identity."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row, new_row = table[a], out[perm[a]]
        for b in range(n):
            new_row[perm[b]] = perm[row[b]]
    return out, perm


def _write_table(path: Path, table) -> None:
    lines = [f"order {len(table)}"] + [" ".join(map(str, row)) for row in table]
    path.write_text("\n".join(lines) + "\n")


def q16_table() -> list[list[int]]:
    """Generalised quaternion group <a, b | a^8, b^2 = a^4, b a b^-1 = a^-1>.

    Element a^i b^j has index 2*i + j.
    """
    table = [[0] * 16 for _ in range(16)]
    for i in range(8):
        for j in range(2):
            for k in range(8):
                for l in range(2):
                    e = (i + (k if j == 0 else -k)) % 8
                    if j == 1 and l == 1:
                        e, jj = (e + 4) % 8, 0
                    else:
                        jj = j + l
                    table[2 * i + j][2 * k + l] = 2 * e + jj
    return table


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Instance], list[Probe]]:
    """Write the workload's input files into workdir and return its plan."""
    rng = random.Random(seed)
    if workload == "chain-ring":
        return [
            Instance(
                "partition-625",
                5,
                ["construct", "local-partition", "--family", "galois", "--p", "5", "--d", "1",
                 "--n", "2", "--t", "1", "--h", "5", "--seed", str(rng.randrange(2**31)),
                 "--out", "partition-625.bh"],
                True,
                _mutants(rng, 625, 5),
            ),
            Instance(
                "lines-256",
                6,
                ["construct", "local-lines", "--family", "galois", "--p", "2", "--d", "2",
                 "--n", "2", "--h", "6", "--out", "lines-256.bh"],
                True,
                _mutants(rng, 256, 6),
            ),
        ], []
    if workload == "nonabelian":
        m = _multiplier(rng, 576)
        instances = [
            Instance("semidirect-576", 24, _group_construct("semidirect-576", 576, 24, "semidirect:144,4,17", m),
                     False, _mutants(rng, 576, 24)),
            _relabelled_instance("table-256", make_semidirect(64, 4, 31).table, rng, workdir),
        ]
        probes = [
            _probe(name, table, rng, workdir)
            for name, table in (
                ("probe-semidirect-256", make_semidirect(64, 4, 31).table),
                ("probe-semidirect-64", make_semidirect(16, 4, 15).table),
                ("probe-q16", q16_table()),
            )
        ]
        return instances, probes
    if workload == "high-degree":
        return [
            Instance("cyclic-118", 236, _group_construct("cyclic-118", 118, 236, None, _multiplier(rng, 118)),
                     True, _mutants(rng, 118, 236)),
            Instance("cyclic-105", 105, _group_construct("cyclic-105", 105, 105, None, _multiplier(rng, 105)),
                     True, _mutants(rng, 105, 105)),
        ], []
    raise ValueError(f"unknown workload {workload!r}")


def _relabelled_instance(name: str, table, rng: random.Random, workdir: Path) -> Instance:
    """The canonical construction over a relabelled table, as a matrix file."""
    G = make_from_table(table)
    n = G.order
    h = min_h(n)
    D = construct_group_bh(G, find_normal_cyclic_generator(G, n // block_count(n, h)), h)
    rows = materialize(G, D).exponents
    new_table, perm = _relabel(G.table, rng)
    _write_table(workdir / f"{name}.tbl", new_table)
    G2 = make_from_table(new_table, descriptor=f"table {name}.tbl")
    old = [0] * n
    for a, b in enumerate(perm):
        old[b] = a
    relabelled = tuple(tuple(rows[old[i]][old[j]] for j in range(n)) for i in range(n))
    (workdir / f"{name}.bh").write_text(format_matrix(BhMatrix(h, G2, relabelled)))
    return Instance(name, h, None, False, _mutants(rng, n, h))


def _probe(name: str, table, rng: random.Random, workdir: Path) -> Probe:
    new_table, _ = _relabel(table, rng)
    _write_table(workdir / f"{name}.tbl", new_table)
    n = len(table)
    h = min_h(n)
    argv = ["construct", "group", "--order", str(n), "--h", str(h),
            "--group", f"table:{name}.tbl", "--out", f"{name}.bh"]
    return Probe(name, h, argv)


class Checker:
    """Re-checks written files with the library; groups are built once per run."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.groups: dict[str, object] = {}

    def matrix(self, path: str, h: int):
        """(G, column 0) of a valid invariant BH(G, h) matrix file, else None."""
        lines = [ln for ln in (self.workdir / path).read_text().splitlines() if ln.strip()]
        head = lines[0].split()
        if head[:2] != ["bh", f"h={h}"]:
            return None
        G = self.groups.get(lines[1])
        if G is None:
            G = self.groups[lines[1]] = parse_group_spec(lines[1], base_dir=self.workdir)
        rows = tuple(tuple(int(x) for x in ln.split()) for ln in lines[2:])
        if len(rows) != G.order:
            return None
        col0 = [row[0] for row in rows]
        D = GroupRingElt.from_exponents(G, h, col0)
        if not verify_group_ring(D) or materialize(G, D).exponents != rows:
            return None
        return G, col0

    def array(self, path: str, h: int, G, col0: list[int]) -> bool:
        """The array file holds exactly column 0, over the group's factors."""
        lines = [ln for ln in (self.workdir / path).read_text().splitlines() if ln.strip()]
        dims = ",".join(str(f) for f in G.abelian_factors)
        if lines[0].split() != ["array", f"h={h}", f"dims={dims}"]:
            return False
        return [int(x) for ln in lines[1:] for x in ln.split()] == col0
