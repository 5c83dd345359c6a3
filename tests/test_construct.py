"""The three constructions: block identities, partitions, line schemes."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from butson import construct
from butson.construct import (
    BlockParams,
    block_count,
    build_blocks,
    coset_actions,
    construct_group_bh,
    construct_line_bh,
    construct_partition_bh,
    deal_blocks,
    find_normal_cyclic_generator,
    min_h,
    partition_R,
    ring_square_group,
    solve_coefficient_scheme,
)
from butson.cyclotomic import CycInt, is_zero
from butson.errors import (
    BadEtaSum,
    BadH,
    BadT,
    InvalidParams,
    NoScheme,
    NotNormal,
    SchemeViolation,
    SelfCheckFailed,
    TooLarge,
    UnsupportedAction,
    UnsupportedRing,
    WrongSubgroupOrder,
)
from butson.groups import Unimodular, coset_reps, cyclic_subgroup, make_abelian, make_from_table, make_semidirect
from butson.rings import chain_ring
from butson.cli import main
from butson.sums import zero_sum
from butson.verify import materialize, verify_bh, verify_group_ring

from conftest import quaternion_table
from oracles import apply_char, characters, equals_integer, gr_conj_inv, gr_mul, line_family, norm_sq


def test_min_h_frozen_values():
    assert [min_h(n) for n in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18)] == \
        [1, 4, 3, 2, 12, 4, 3, 6, 4, 12]


def test_block_case_selection():
    assert BlockParams.plan(4).case == "EvenVal"
    assert BlockParams.plan(8).case == "OddValGe3"
    assert BlockParams.plan(2).case == "Val1"
    assert BlockParams.plan(18).case == "Val1"


def test_plan_rejects_bad_multiplier():
    with pytest.raises(InvalidParams):
        BlockParams.plan(4, m=2)


def test_blocks_z4_frozen():
    blocks = build_blocks(BlockParams.plan(4))
    assert [b.e.tolist() for b in blocks] == [[0, 0], [0, 1]]


def char_energy_oracle(blocks, n):
    """Independent restatement of the block identity through characters:
    the squared character moduli of the blocks sum to n, for every character
    of the underlying cyclic group."""
    T = characters(blocks[0].group)
    for t in range(blocks[0].group.order):
        acc = None
        for b in blocks:
            v = norm_sq(apply_char(T, t, b))
            acc = v if acc is None else acc + v
        assert equals_integer(acc, n)


@pytest.mark.parametrize("n", [2, 4, 8, 9, 12, 16, 18, 25])
def test_blocks_character_oracle(n):
    char_energy_oracle(build_blocks(BlockParams.plan(n)), n)


def test_group_bh_on_cyclic_four():
    G = make_abelian([4])
    D = construct_group_bh(G, find_normal_cyclic_generator(G, 2), 2)
    assert D.e.tolist() == [0, 0, 0, 1]
    assert verify_group_ring(D)


def test_group_bh_nonminimal_h_scales_exponents():
    G = make_abelian([4])
    D = construct_group_bh(G, find_normal_cyclic_generator(G, 2), 6)
    assert D.h == 6
    assert D.e.tolist() == [0, 0, 0, 3]
    assert verify_group_ring(D)


def test_group_bh_rejects_incompatible_h():
    G = make_abelian([4])
    with pytest.raises(BadH):
        construct_group_bh(G, find_normal_cyclic_generator(G, 2), 3)


def test_group_bh_rejects_wrong_subgroup_order():
    S3 = make_semidirect(3, 2, 2)
    with pytest.raises(WrongSubgroupOrder):
        find_normal_cyclic_generator(S3, 6)


def test_group_bh_rejects_non_normal_subgroup():
    G = make_semidirect(8, 2, 3)  # order 16, needs a cyclic subgroup of order 4
    g = 3  # the element (1, 1): order 4, generates a non-normal subgroup
    assert len(cyclic_subgroup(G, g)) == 4
    with pytest.raises(NotNormal):
        construct_group_bh(G, g, 4)


def test_group_bh_alternative_multiplier():
    D4 = make_semidirect(4, 2, 3)
    gen = find_normal_cyclic_generator(D4, 4)
    for m in (1, 3):
        assert verify_group_ring(construct_group_bh(D4, gen, 4, m=m))


def test_group_bh_quaternion(q8_table):
    G = make_from_table(q8_table)
    D = construct_group_bh(G, find_normal_cyclic_generator(G, 4), 4)
    assert verify_group_ring(D)


def dicyclic_table(n: int) -> list[list[int]]:
    """Cayley table of <a, b | a^(2n), b^2 = a^n, b a b^(-1) = a^(-1)>; a^i b^j has index 2i + j."""
    table = []
    for x in range(4 * n):
        i, j = divmod(x, 2)
        row = []
        for y in range(4 * n):
            k, l = divmod(y, 2)
            row.append(2 * ((i + (-k if j else k) + (n if j and l else 0)) % (2 * n)) + (j + l) % 2)
        table.append(row)
    return table


def relabelled(table, seed: int):
    """The group of `table` under a seeded bijection of its elements that fixes the identity."""
    table = np.asarray(table)
    perm = np.array([0] + random.Random(seed).sample(range(1, len(table)), len(table) - 1))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return make_from_table(out)


_RELABELLED = {
    "D4": make_semidirect(4, 2, 3).table,
    "Q8": quaternion_table(),
    "Q16": dicyclic_table(4),
    "semidirect:16,4,15": make_semidirect(16, 4, 15).table,
    "semidirect:64,4,31": make_semidirect(64, 4, 31).table,
}


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("name", list(_RELABELLED))
def test_group_bh_builds_under_any_labelling(name, m):
    for seed in range(4):
        G = relabelled(_RELABELLED[name], seed)
        n = G.order
        h = min_h(n)
        D = construct_group_bh(G, find_normal_cyclic_generator(G, n // block_count(n, h)), h, m=m)
        assert verify_group_ring(D)
        assert verify_bh(materialize(G, D)).ok


@pytest.mark.parametrize("spec, h", [("semidirect:8,6,5", 12), ("semidirect:27,6,10", 36),
                                     ("semidirect:27,6,19", 36)])
def test_group_bh_builds_where_the_canonical_deal_fails(spec, h, tmp_path):
    m, k, _ = map(int, spec.partition(":")[2].split(","))
    out = str(tmp_path / "g.bh")
    assert main(["construct", "group", "--order", str(m * k), "--h", str(h), "--group", spec, "--out", out]) == 0
    assert main(["verify", out]) == 0


def test_coset_actions_of_the_dihedral_group():
    D4 = make_semidirect(4, 2, 3)  # (i, j) has index 2i + j; b = (0, 1) inverts a = (1, 0)
    sub = cyclic_subgroup(D4, 2)
    assert coset_actions(D4, sub, coset_reps(D4, sub)).tolist() == [1, 3]


def test_deal_blocks_keeps_the_canonical_deal_where_it_works():
    assert deal_blocks([1] * 6, 6) == list(range(6))
    assert deal_blocks([1, 3, 1, 3], 4) == [0, 1, 2, 3]  # the products 0, 3, 2, 1


def test_deal_blocks_makes_the_products_distinct():
    t = [1, 1, 7, 7]  # semidirect:8,6,5 acts so; the deal 0, 1, 2, 3 has 1 * 1 = 7 * 3 mod 4
    deal = deal_blocks(t, 4)
    assert sorted(deal) == [0, 1, 2, 3]
    assert len({u * i % 4 for u, i in zip(t, deal)}) == 4
    t = [1, 1, 1, 4, 4, 4, 7, 7, 7]
    deal = deal_blocks(t, 9)
    assert sorted(deal) == list(range(9))
    assert len({u * i % 9 for u, i in zip(t, deal)}) == 9


def test_deal_blocks_refuses_where_no_set_is_closed():
    # x -> 2x mod 5 has the orbits {0} and {1, 2, 3, 4}, so no two blocks suit the two cosets with t = 2
    with pytest.raises(UnsupportedAction):
        deal_blocks([1, 1, 1, 2, 2], 5)


# --- partitions -------------------------------------------------------------


def test_partition_shape():
    R = chain_ring("galois", 3, 1, 2)
    parts = partition_R(R, 1)
    assert len(parts) == 3
    ideal = set(R.ideal_elements(R.n - 1))
    for part in parts:
        assert len(part) == R.size // 3
        for x in R.elements:
            coset = {R.add(x, j) for j in ideal}
            assert len(coset & set(part)) == 3 ** (R.d - 1)


def test_partition_rejects_bad_t():
    R = chain_ring("galois", 2, 1, 2)
    with pytest.raises(BadT):
        partition_R(R, 0)
    with pytest.raises(BadT):
        partition_R(R, R.d + 1)


def test_partition_seed_is_reproducible():
    R = chain_ring("galois", 3, 1, 2)
    assert partition_R(R, 1, seed=5) == partition_R(R, 1, seed=5)


def test_partition_bh_instances():
    for family, p, h in [("galois", 2, 2), ("truncated", 2, 2), ("galois", 3, 3)]:
        R = chain_ring(family, p, 1, 2)
        D = construct_partition_bh(R, 1, list(zero_sum(p, h).exps), h)
        assert D.group.order == R.size**2
        assert verify_group_ring(D)


def test_partition_bh_with_seed():
    R = chain_ring("galois", 2, 1, 2)
    D = construct_partition_bh(R, 1, [0, 1], 2, seed=11)
    assert verify_group_ring(D)


def test_partition_bh_rejects_bad_etas():
    R = chain_ring("galois", 2, 1, 2)
    with pytest.raises(BadEtaSum):
        construct_partition_bh(R, 1, [0, 0], 2)  # 1 + 1 != 0
    with pytest.raises(BadEtaSum):
        construct_partition_bh(R, 1, [0, 1, 0], 2)  # wrong count


def test_constructions_over_r_x_r_refuse_its_table_before_their_loops(monkeypatch):
    R = chain_ring("galois", 3, 1, 2)  # R x R has order 81: a 52 488-byte table
    scheme = solve_coefficient_scheme(R, 6)

    def unreachable(*args, **kwargs):
        raise AssertionError("partition_R ran before the R x R bound")

    monkeypatch.setattr(construct, "partition_R", unreachable)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 50000, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(TooLarge, match="order 81"):
        construct_partition_bh(R, 1, list(zero_sum(3, 3).exps), 3)
    with pytest.raises(TooLarge, match="order 81"):
        construct_line_bh(R, scheme)


# --- lines ------------------------------------------------------------------


def test_line_family_z4_facts():
    R = chain_ring("galois", 2, 1, 2)
    lines_i, lines_j = line_family(R)
    assert set(lines_i) == set(R.elements)
    assert set(lines_j) == set(R.ideal_elements(1))
    two = R.pow_pi(1)
    hits = [r for r, line in lines_i.items() if (two, two) in line]
    assert sorted(hits, key=R.index.get) == sorted(
        (r for r in R.elements if R.is_unit(r)), key=R.index.get
    )
    assert all((two, two) not in line for line in lines_j.values())


def test_line_family_covers_unit_pairs_once():
    R = chain_ring("galois", 3, 1, 2)
    lines_i, lines_j = line_family(R)
    for x in R.elements:
        for y in R.elements:
            in_i = sum((x, y) in line for line in lines_i.values())
            in_j = sum((x, y) in line for line in lines_j.values())
            if R.is_unit(x):
                assert in_i == 1
            if R.is_unit(y) and not R.is_unit(x):
                assert in_i == 0 and in_j == 1


def scheme_feasible_brute_z4(h: int) -> bool:
    """Independent brute force over all coefficient assignments for R = Z4.

    Variables: eta; eta_r for r in {0,1,2,3}; delta_u for u in {0,1};
    mu_s for s in {0,2}.  Constraints (n = 2):
      eta_0 + eta_2 = delta_0,   eta_1 + eta_3 = delta_1,
      mu_0 + mu_2 must be a single root (the top gamma), and
      delta_0 + delta_1 + mu_0 + mu_2 = eta.
    """
    pair_is = {}
    for a in range(h):
        for b in range(h):
            v = CycInt.root(h, a) + CycInt.root(h, b)
            pair_is[(a, b)] = tuple(
                e for e in range(h) if is_zero(v - CycInt.root(h, e))
            )
    for e0, e1, e2, e3 in itertools.product(range(h), repeat=4):
        d0s = pair_is[(e0, e2)]
        d1s = pair_is[(e1, e3)]
        if not d0s or not d1s:
            continue
        for m0, m2 in itertools.product(range(h), repeat=2):
            g0s = pair_is[(m0, m2)]
            if not g0s:
                continue
            for d0, d1, g0 in itertools.product(d0s, d1s, g0s):
                total = CycInt.root(h, d0) + CycInt.root(h, d1) + \
                    CycInt.root(h, m0) + CycInt.root(h, m2)
                if any(is_zero(total - CycInt.root(h, e)) for e in range(h)):
                    return True
    return False


@pytest.mark.parametrize("h,feasible", [(2, False), (3, False), (4, False), (6, True)])
def test_scheme_solver_matches_brute_force_on_z4(h, feasible):
    R = chain_ring("galois", 2, 1, 2)
    assert scheme_feasible_brute_z4(h) == feasible
    if feasible:
        s = solve_coefficient_scheme(R, h)
        assert s.h == h
    else:
        with pytest.raises(NoScheme):
            solve_coefficient_scheme(R, h)


@pytest.mark.parametrize("family,p,d,n", [
    ("galois", 2, 1, 2),
    ("galois", 3, 1, 2),
    ("galois", 2, 2, 2),
    ("truncated", 3, 1, 2),
    ("galois", 3, 1, 3),
])
def test_scheme_exists_when_six_divides_h(family, p, d, n):
    R = chain_ring(family, p, d, n)
    for h in (6, 12):
        solve_coefficient_scheme(R, h)


def test_scheme_rejects_fields():
    with pytest.raises(UnsupportedRing):
        solve_coefficient_scheme(chain_ring("galois", 2, 2, 1), 6)


def test_scheme_infeasible_for_binary_long_chains():
    # sibling refinement would need a vanishing sum of length 1
    with pytest.raises(NoScheme):
        solve_coefficient_scheme(chain_ring("galois", 2, 1, 3), 6)


def test_line_bh_instances():
    for family, p in [("galois", 2), ("galois", 3), ("truncated", 3)]:
        R = chain_ring(family, p, 1, 2)
        D = construct_line_bh(R, solve_coefficient_scheme(R, 6))
        assert D.h == 6 and D.group.order == R.size**2
        assert verify_group_ring(D)


def test_ring_square_group_indexing():
    R = chain_ring("galois", 2, 1, 2)
    G, pair_index = ring_square_group(R)
    assert G.order == R.size**2
    seen = {pair_index(x, y) for x in R.elements for y in R.elements}
    assert seen == set(range(G.order))


def _build_group():
    G = make_abelian([4])
    return construct_group_bh(G, find_normal_cyclic_generator(G, 2), 2)


def _build_partition():
    return construct_partition_bh(chain_ring("galois", 2, 1, 2), 1, list(zero_sum(2, 2).exps), 2)


def _build_lines():
    R = chain_ring("galois", 2, 1, 2)
    return construct_line_bh(R, solve_coefficient_scheme(R, 6))


@pytest.mark.parametrize("build", [_build_group, _build_partition, _build_lines],
                         ids=["group", "partition", "lines"])
def test_failed_self_check_raises(build, monkeypatch):
    assert verify_group_ring(build())
    monkeypatch.setattr(construct, "verify_group_ring", lambda D: False)
    with pytest.raises(SelfCheckFailed):
        build()


def test_self_check_survives_python_O():
    code = textwrap.dedent("""
        import sys
        from butson import construct
        from butson.errors import SelfCheckFailed
        from butson.groups import make_cyclic

        assert sys.flags.optimize, "asserts are on"
        construct.verify_group_ring = lambda D: False
        G = make_cyclic(4)
        try:
            construct.construct_group_bh(G, construct.find_normal_cyclic_generator(G, 2), 2)
        except SelfCheckFailed:
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("patch", [
    "construct.block_count = lambda n, h: 1",  # n = 4, h = 2 then plans l = 2, which must be odd
    "construct.coset_reps = lambda G, sub: [0]",  # one representative for k = 2 blocks
], ids=["plan", "coset-reps"])
def test_construction_one_checks_survive_python_O(patch):
    code = textwrap.dedent("""
        import sys
        from butson import construct
        from butson.errors import SelfCheckFailed
        from butson.groups import make_cyclic

        assert sys.flags.optimize, "asserts are on"
        {patch}
        G = make_cyclic(4)
        gen = construct.find_normal_cyclic_generator(G, 4 // construct.block_count(4, 2))
        try:
            construct.construct_group_bh(G, gen, 2)
        except SelfCheckFailed:
            sys.exit(0)
        sys.exit(1)
    """).format(patch=patch)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _corrupted(blocks, i, g):
    """The blocks with one exponent of block i shifted by 1."""
    b = blocks[i]
    exps = b.e.copy()
    exps[g] += 1
    out = list(blocks)
    out[i] = Unimodular(b.group, b.h, exps)
    return out


def _first_bad_pair(blocks):
    """First (i, j), i != j, in row-major order with D_i D_j^(-1) != 0, by gr_mul."""
    for i, j in itertools.permutations(range(len(blocks)), 2):
        prod = gr_mul(blocks[i], gr_conj_inv(blocks[j]))
        if not all(is_zero(c) for c in prod.coeffs):
            return i, j
    return None


@pytest.mark.parametrize("n", [9, 16, 36, 48])
def test_corrupted_block_fails_the_self_check(n):
    blocks = build_blocks(BlockParams.plan(n))
    construct._check_blocks(blocks, n)
    k = len(blocks)
    assert k >= 3
    for i, g in ((2, 1), (k - 1, 0), (0, 2)):
        bad = _corrupted(blocks, i, g)
        pair = _first_bad_pair(bad)
        assert pair is not None
        with pytest.raises(SelfCheckFailed, match=rf"cross product D_{pair[0]} D_{pair[1]}\^\(-1\) is nonzero"):
            construct._check_blocks(bad, n)


def test_corrupted_single_block_fails_the_diagonal_check():
    blocks = build_blocks(BlockParams.plan(2))
    assert len(blocks) == 1
    with pytest.raises(SelfCheckFailed, match="diagonal block sum does not equal n"):
        construct._check_blocks(_corrupted(blocks, 0, 1), 2)


def test_collapse_to_roots_reads_unreduced_roots():
    h = 12
    rows = []
    for e in range(h):
        row = [0] * h
        row[e] += 1
        row[(e + 3) % h] += 1  # plus zeta^(e+3) (1 + zeta^4 + zeta^8) = 0
        row[(e + 7) % h] += 1
        row[(e + 11) % h] += 1
        rows.append(row)
    rows = np.array(rows, dtype=np.int64)
    rows[:, [0, 4, 8]] += 2  # 2 (1 + zeta^4 + zeta^8) = 0
    assert construct._collapse_to_roots(rows) == list(range(h))
    for bad in ([2] + [0] * (h - 1), [0] * h, [1, 1] + [0] * (h - 2)):
        with pytest.raises(SchemeViolation, match="coefficient 1 did"):
            construct._collapse_to_roots(np.array([[0, 1] + [0] * (h - 2), bad]))
