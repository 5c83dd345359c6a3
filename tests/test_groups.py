"""Finite groups, characters, and the group ring over cyclotomic integers."""

from __future__ import annotations

import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson import groups
from butson.construct import _right_cosets, find_normal_cyclic_generator
from butson.cyclotomic import CycInt, is_zero
from butson.errors import InvalidAction, InvalidParams, NotAGroup, NotNormal, TooLarge, WrongSubgroupOrder
from butson.groups import GroupRingElt, _check_axioms, make_abelian, make_cyclic, make_from_table, make_semidirect
from butson.fileio import parse_group_spec

from conftest import quaternion_table
from oracles import (
    NotAbelian, abelian_coords, abelian_index, apply_char, characters, cyc_mul, equals_integer, fourier_equal, gr_add,
    gr_conj_inv, gr_equal, gr_mul, group_mul, integer, is_abelian, same_as,
)


def powers(G, g):
    """1, g, g^2, ... by the table."""
    out, x = [0], g
    while x != 0:
        out, x = out + [x], group_mul(G, x, g)
    return out


def order_histogram(G):
    hist = {}
    for g in G.elements():
        o = len(powers(G, g))
        hist[o] = hist.get(o, 0) + 1
    return hist


def test_cyclic_group_basics():
    G = make_cyclic(6)
    assert G.order == 6 and is_abelian(G)
    assert group_mul(G, 4, 5) == 3 and G.inv(2) == 4
    assert order_histogram(G) == {1: 1, 2: 1, 3: 2, 6: 2}


def test_abelian_coords_round_trip():
    G = make_abelian([2, 3, 4])
    for g in G.elements():
        assert abelian_index(G, abelian_coords(G, g)) == g
    # row-major: last factor varies fastest
    assert abelian_coords(G, 1) == (0, 0, 1)
    assert abelian_coords(G, 4) == (0, 1, 0)


def test_dihedral_group():
    G = make_semidirect(4, 2, 3)
    assert G.order == 8 and not is_abelian(G)
    assert order_histogram(G) == {1: 1, 2: 5, 4: 2}


@pytest.mark.parametrize("factors", [[1], [6], [2, 3], [3, 3], [2, 3, 4], [2, 1, 3, 2, 2, 2]])
def test_make_abelian_table_matches_definition(factors):
    G = make_abelian(factors)
    for a in G.elements():
        ca = abelian_coords(G, a)
        for b in G.elements():
            cb = abelian_coords(G, b)
            want = abelian_index(G, [x + y for x, y in zip(ca, cb)])
            assert group_mul(G, a, b) == want
        assert group_mul(G, a, G.inv(a)) == 0 == group_mul(G, G.inv(a), a)


@pytest.mark.parametrize("m,k,t", [(1, 1, 0), (3, 2, 2), (4, 2, 3), (7, 3, 2), (5, 4, 2)])
def test_make_semidirect_table_matches_definition(m, k, t):
    G = make_semidirect(m, k, t)
    assert G.order == m * k
    for a in G.elements():
        i, j = divmod(a, k)
        for b in G.elements():
            i2, j2 = divmod(b, k)
            assert group_mul(G, a, b) == (i + t**j * i2) % m * k + (j + j2) % k
        assert group_mul(G, a, G.inv(a)) == 0 == group_mul(G, G.inv(a), a)


def test_tables_are_read_only_and_mul_returns_int(q8_table):
    src = np.array(q8_table)
    groups = [make_cyclic(6), make_abelian([2, 4]), make_semidirect(4, 2, 3),
              make_from_table(src)]
    assert src.flags.writeable  # the group keeps its own copy
    for G in groups:
        assert not G.table.flags.writeable and not G.inverse.flags.writeable
        with pytest.raises(ValueError):
            G.table[0, 0] = 1
        with pytest.raises(ValueError):
            G.inverse[0] = 1
        assert type(group_mul(G, 1, 2)) is int and type(G.inv(1)) is int


def _normal_by_definition(G, sub):
    members = set(sub)
    return all(group_mul(G, group_mul(G, x, s), G.inv(x)) in members for x in G.elements() for s in sub)


def _generates_normal(G, g):
    try:
        _right_cosets(G, g, len(powers(G, g)))
    except NotNormal:
        return False
    return True


def test_is_normal_matches_definition(q8_table):
    S3 = make_semidirect(3, 2, 2)  # element 2i + j is (i, j)
    D4 = make_semidirect(4, 2, 3)
    # the order-2 subgroups of S3 and a reflection subgroup of D4 are not normal
    for G, g, sub in [(S3, 1, (0, 1)), (S3, 3, (0, 3)), (S3, 5, (0, 5)), (D4, 1, (0, 1))]:
        assert not _generates_normal(G, g) and not _normal_by_definition(G, sub)
    # rotations and the centre are
    for G, g, sub in [(S3, 2, (0, 2, 4)), (D4, 2, (0, 2, 4, 6)), (D4, 4, (0, 4))]:
        assert _generates_normal(G, g) and _normal_by_definition(G, sub)
    for G in (S3, D4, make_from_table(q8_table), make_abelian([2, 4]), make_semidirect(8, 2, 3),
              make_semidirect(16, 4, 15)):
        for g in G.elements():
            assert _generates_normal(G, g) == _normal_by_definition(G, powers(G, g)), (G.descriptor, g)


def test_same_as_compares_tables(q8_table):
    G = make_from_table(q8_table)
    assert same_as(G, G) and same_as(G, make_from_table(q8_table))
    # swap i <-> j and -i <-> -j: an isomorphic group with another table
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    relabelled = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            relabelled[perm[a]][perm[b]] = perm[q8_table[a][b]]
    H = make_from_table(relabelled)
    assert not same_as(G, H) and not same_as(H, G)
    assert not same_as(make_cyclic(8), make_abelian([2, 4]))


def test_semidirect_rejects_bad_action():
    with pytest.raises(InvalidAction):
        make_semidirect(4, 2, 2)  # 2^2 = 4 = 0 mod 4, not an automorphism


def test_make_from_table_rejects_broken_table():
    bad = [[0, 1], [1, 1]]  # not a latin square
    with pytest.raises(NotAGroup):
        make_from_table(bad)


def test_make_from_table_rejects_non_associative_loop():
    # a Latin square with identity 0 (a loop), but not a group
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup, match="multiplication is not associative"):
        make_from_table(loop)


@pytest.mark.parametrize("build", [
    lambda: make_abelian([4, 4, 4, 4]),
    lambda: make_abelian([2, 3, 4]),
    lambda: make_semidirect(16, 4, 15),
    lambda: make_semidirect(64, 4, 31),
], ids=["abelian-4x4x4x4", "abelian-2x3x4", "semidirect-16-4-15", "semidirect-64-4-31"])
def test_builder_tables_pass_the_axioms(build):
    # builders skip the check at run time; it still holds for their tables
    _check_axioms(build().table)


def _check_axioms_by_n_gathers(table):
    """The O(n^3) check, one n^2 gather per element: the oracle for _check_axioms."""
    table = np.asarray(table, dtype=np.intp)
    n = table.shape[0]
    if table.shape != (n, n) or not table.size or table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries out of range")
    ident = np.arange(n)
    if not (np.array_equal(table[0], ident) and np.array_equal(table[:, 0], ident)):
        raise NotAGroup("element 0 is not a two-sided identity")
    if (np.sort(table, axis=1) != ident).any() or (np.sort(table, axis=0).T != ident).any():
        raise NotAGroup("table rows/columns are not permutations")
    for a in range(n):
        # (a*b)*c == a*(b*c) for all b, c, vectorized per a
        if not np.array_equal(table[table[a], :], table[a][table]):
            raise NotAGroup("multiplication is not associative")
    right = np.nonzero(table == 0)[1]  # a * right[a] = 0
    bad = np.nonzero(table[right, ident] != 0)[0]
    if len(bad):
        raise NotAGroup(f"element {bad[0]} has no two-sided inverse")


def _verdict(check, table):
    """None if the check accepts the table, else its NotAGroup message."""
    try:
        check(table)
    except NotAGroup as exc:
        return str(exc)
    return None


def _dicyclic_table(m):
    """Dic_m = <a, b | a^2m, b^2 = a^m, b a b^-1 = a^-1>; a^i b^j has index 2i + j (Q8, Q16, ...)."""
    i, j = np.divmod(np.arange(4 * m), 2)
    both = j[:, None] & j  # b * b = a^m
    e = (i[:, None] + np.where(j[:, None] == 1, -i, i) + m * both) % (2 * m)
    return 2 * e + (j[:, None] ^ j)


def _principal_loop(L):
    """The isotope of a Latin square whose row 0 and column 0 are 0, 1, ..., n-1."""
    L = np.argsort(L[0])[L]  # rename symbols: row 0 reads 0..n-1
    out = np.empty_like(L)
    out[L[:, 0]] = L  # reorder rows: column 0 reads 0..n-1
    return out


def _isotope(rng, table):
    """A seeded isotope of a table: rows, columns and symbols permuted, then made a loop."""
    n = len(table)
    rows, cols, syms = (np.array(rng.sample(range(n), n)) for _ in range(3))
    return _principal_loop(syms[np.asarray(table)[np.ix_(rows, cols)]])


def _relabelling(rng, table):
    """The table under a seeded bijection of its elements that fixes 0."""
    table = np.asarray(table)
    n = len(table)
    perm = np.array([0] + rng.sample(range(1, n), n - 1))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _random_loop(rng, n):
    """A seeded Latin square with row 0 and column 0 equal to 0..n-1, by backtracking."""
    L = np.zeros((n, n), dtype=np.intp)
    L[0] = L[:, 0] = np.arange(n)
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        for v in rng.sample(range(n), n):
            if v not in L[r, :c] and v not in L[:r, c]:
                L[r, c] = v
                if fill(k + 1):
                    return True
        return False

    fill(0)
    return L


def _intercalate_switches(table):
    """Copies with one 2x2 Latin subsquare away from row and column 0 switched."""
    T = np.asarray(table)
    n = len(T)
    for a in range(1, n):
        for b in range(a + 1, n):
            for c in range(1, n):
                d = int(np.flatnonzero(T[b] == T[a, c])[0])  # T[b, d] == T[a, c]
                if d > c and T[a, d] == T[b, c]:
                    out = T.copy()
                    out[[a, a, b, b], [c, d, c, d]] = T[[a, a, b, b], [d, c, d, c]]
                    yield out


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _z2_times_loop5():
    """Z_2 x (the order-5 loop), element 2q + a for (a, q): a loop, not a group."""
    q, a = np.divmod(np.arange(10), 2)
    return 2 * np.array(_LOOP5)[q[:, None], q] + (a[:, None] ^ a)


def _swapped(n, a, b):
    idx = np.arange(n)
    idx[[a, b]] = b, a
    return idx


def _seeded_tables():
    rng = random.Random(1961)
    bases = [make_semidirect(4, 2, 3).table, _dicyclic_table(2), make_cyclic(8).table, np.array(_LOOP5),
             _z2_times_loop5()]
    loops = bases + [_isotope(rng, t) for t in bases for _ in range(8)]
    loops += [_random_loop(rng, n) for n in range(1, 9) for _ in range(12)]
    switched = [s for t in bases[:3] for s in list(_intercalate_switches(_relabelling(rng, t)))[:6]]
    mutants = []
    for t in loops:
        n = len(t)
        if n > 2:
            mutants.append(t[_swapped(n, *rng.sample(range(n), 2))])  # two rows swapped
            mutants.append(t[:, _swapped(n, *rng.sample(range(n), 2))])  # two columns swapped
            r, mutant = rng.randrange(1, n), t.copy()
            mutant[r] = t[r, _swapped(n, *rng.sample(range(1, n), 2))]  # two entries of row r swapped
            mutants.append(mutant)
    return loops + switched + mutants


def test_light_check_matches_the_n_gather_oracle():
    verdicts = set()
    for table in _seeded_tables():
        want = _verdict(_check_axioms_by_n_gathers, table)
        assert _verdict(_check_axioms, table) == want, table.tolist()
        verdicts.add(want)
    assert verdicts == {None, "multiplication is not associative", "element 0 is not a two-sided identity",
                        "table rows/columns are not permutations"}


def test_light_check_gathers_at_most_bit_length_times(monkeypatch):
    gathers = []
    real = np.array_equal

    def spy(a, b, *args, **kwargs):
        gathers.extend([a.shape] if a.ndim == 2 else [])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(groups.np, "array_equal", spy)
    for table in _seeded_tables():
        gathers.clear()
        _verdict(_check_axioms, table)
        assert len(gathers) <= len(table).bit_length()


def test_non_associative_loop_that_fails_only_at_a_later_generator():
    # generator 1 = (1, 0) associates with everything, and its closure {0, 1}
    # leaves the failing check to generator 2
    loop = _z2_times_loop5()
    col = loop[:, 1]
    assert np.array_equal(col[loop], loop[:, col]) and set(col[[0, 1]]) == {0, 1}
    assert _verdict(_check_axioms_by_n_gathers, loop) == "multiplication is not associative"
    with pytest.raises(NotAGroup, match="multiplication is not associative"):
        make_from_table(loop)


@pytest.mark.parametrize("table", [
    make_semidirect(4, 2, 3).table,
    _dicyclic_table(2),
    _dicyclic_table(4),
    make_semidirect(16, 4, 15).table,
    make_semidirect(64, 4, 31).table,
], ids=["D4", "Q8", "Q16", "semidirect-16-4-15", "semidirect-64-4-31"])
def test_relabelled_groups_are_accepted(table):
    rng = random.Random(len(table))
    for _ in range(4):
        relabelled = _relabelling(rng, table)
        assert make_from_table(relabelled).table.tolist() == relabelled.tolist()


def test_dicyclic_tables_are_the_quaternion_groups(q8_table):
    Q8, Q16 = make_from_table(_dicyclic_table(2)), make_from_table(_dicyclic_table(4))
    assert order_histogram(Q8) == order_histogram(make_from_table(q8_table)) == {1: 1, 2: 1, 4: 6}
    assert order_histogram(Q16) == {1: 1, 2: 1, 4: 10, 8: 4}


def test_make_abelian_rejects_bad_factors():
    for factors in ([], [2, 0], [3, -1]):
        with pytest.raises(InvalidParams):
            make_abelian(factors)
    with pytest.raises(InvalidParams):
        make_cyclic(0)


@pytest.mark.parametrize("factors", [(1,), (6, 1, 2), (2, 3, 4), (25, 25), (4, 4, 4, 4), (1,) * 65],
                         ids=["1", "6-1-2", "2-3-4", "25-25", "4-4-4-4", "65-ones"])
def test_rows_of_factor_form_groups_match_coordinate_sums(factors):
    G = make_abelian(factors)
    n = G.order
    coords = [abelian_coords(G, a) for a in G.elements()]
    table = np.array([[abelian_index(G, [x + y for x, y in zip(a, b)]) for b in coords] for a in coords])
    for step in sorted({1, 7, 64, n}):
        # the last batch runs past the end, as table[start:stop] allows
        for start in range(0, n + 1, step):
            block = G.rows(slice(start, start + step))
            assert block.dtype == np.intp and np.array_equal(block, table[start : start + step]), (step, start)
    picks = np.array(random.Random(n).choices(range(n), k=9))
    assert np.array_equal(G.rows(picks), table[picks])
    assert np.array_equal(G.table, table) and not G.table.flags.writeable
    assert np.array_equal(G.inverse, np.argmin(table, axis=1))


def _semidirect_table(m, k, t):
    """The table of semidirect:m,k,t by one broadcast over all pairs of elements."""
    tp = np.array([pow(t, j, m) for j in range(k)], dtype=np.intp)
    i, j = np.divmod(np.arange(m * k), k)  # element i*k + j is (i, j)
    return (i[:, None] + tp[j][:, None] * i) % m * k + (j[:, None] + j) % k


def test_semidirect_rows_and_inverse_match_the_broadcast_table():
    rng = random.Random(64)
    specs = [(m, k, t) for m in range(1, 65) for k in range(1, 64 // m + 1) for t in range(m)
             if math.gcd(t, m) == 1 and pow(t, k, m) == 1 % m]
    assert len(specs) > 200
    for m, k, t in specs:
        G, table = make_semidirect(m, k, t), _semidirect_table(m, k, t)
        n = G.order
        for step in sorted({1, 5, n}):
            for start in range(0, n + 1, step):
                assert np.array_equal(G.rows(slice(start, start + step)), table[start : start + step]), (m, k, t)
        picks = np.array(rng.choices(range(n), k=7))
        assert np.array_equal(G.rows(picks), table[picks]) and G.rows(picks).dtype == np.intp, (m, k, t)
        assert np.array_equal(G.inverse, np.nonzero(table == 0)[1]), (m, k, t)
        assert np.array_equal(G.table, table) and not G.table.flags.writeable, (m, k, t)


def test_builders_refuse_tables_beyond_physical_memory(monkeypatch):
    # a machine with 60000 bytes holds the 81^2 * 8 bytes of Z_81, not Z_100
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 60000, "SC_PAGE_SIZE": 1}.__getitem__)
    assert make_cyclic(81).order == 81
    with pytest.raises(TooLarge, match="order 100"):
        make_abelian([10, 10])
    with pytest.raises(TooLarge):
        make_semidirect(25, 4, 7)


def test_builders_skip_the_memory_bound_where_sysconf_cannot_tell(monkeypatch):
    monkeypatch.setattr(os, "sysconf", lambda name: -1)  # indeterminate
    assert make_abelian([2, 3]).order == 6
    monkeypatch.delattr(os, "sysconf")  # as on Windows
    assert make_cyclic(5).order == 5
    assert make_semidirect(5, 4, 2).order == 20


def test_quaternion_group(q8_table):
    G = make_from_table(q8_table)
    assert G.order == 8 and not is_abelian(G)
    # exactly one involution distinguishes Q8 from D4
    assert order_histogram(G) == {1: 1, 2: 1, 4: 6}


def test_table_file_round_trip(tmp_path, q8_table):
    (tmp_path / "q8.txt").write_text("order 8\n" + "\n".join(" ".join(map(str, row)) for row in q8_table))
    G = parse_group_spec("table:q8.txt", base_dir=tmp_path)
    assert G.table.tolist() == q8_table and G.descriptor == "table q8.txt"


def test_cyclic_subgroup_and_normality():
    D4 = make_semidirect(4, 2, 3)
    g = find_normal_cyclic_generator(D4, 4)  # the rotations
    S, _, _ = _right_cosets(D4, g, 4)
    assert S[:, 0].tolist() == [0, 2, 4, 6]
    with pytest.raises(WrongSubgroupOrder):
        _right_cosets(D4, g, 2)

    S3 = make_semidirect(3, 2, 2)
    assert len(_right_cosets(S3, find_normal_cyclic_generator(S3, 3), 3)[0]) == 3
    for order in (2, 6):  # the order-2 subgroups are not normal; S3 is not cyclic
        with pytest.raises(WrongSubgroupOrder):
            find_normal_cyclic_generator(S3, order)


def test_coset_reps_tile_the_group():
    for G, order in [(make_semidirect(4, 2, 3), 4), (make_semidirect(27, 6, 10), 27),
                     (make_from_table(_relabelling(random.Random(16), _dicyclic_table(4))), 8)]:
        g = find_normal_cyclic_generator(G, order)
        S, reps, t = _right_cosets(G, g, order)
        # the representatives are the least element of each right coset <g> x, found greedily
        greedy, covered = [], set()
        for x in G.elements():
            if x not in covered:
                greedy.append(x)
                covered.update(group_mul(G, s, x) for s in S[:, 0].tolist())
        assert reps.tolist() == greedy and reps[0] == 0
        assert sorted(S[:, reps].ravel().tolist()) == list(G.elements())
        assert [S[:, 0].tolist().index(group_mul(G, group_mul(G, r, g), G.inv(r))) for r in reps.tolist()] == t.tolist()


@pytest.mark.parametrize("factors", [[4], [2, 2], [8], [3, 3], [2, 4], [2, 2, 2, 2]])
def test_character_orthogonality(factors):
    G = make_abelian(factors)
    T = characters(G)
    assert len(T.rows) == G.order
    for i in range(G.order):
        for j in range(G.order):
            acc = integer(T.H, 0)
            for g in G.elements():
                acc = acc + CycInt.root(T.H, (T.rows[i][g] - T.rows[j][g]) % T.H)
            assert equals_integer(acc, G.order if i == j else 0)


def test_characters_require_abelian_factors(q8_table):
    with pytest.raises(NotAbelian):
        characters(make_from_table(q8_table))


_h = 4
_G = make_abelian([2, 2])


@st.composite
def ring_elements(draw):
    coeffs = []
    for _ in range(_G.order):
        v = draw(st.lists(st.integers(-2, 2), min_size=_h, max_size=_h))
        coeffs.append(CycInt(_h, tuple(v)))
    return GroupRingElt(_G, _h, tuple(coeffs))


@given(ring_elements(), ring_elements(), ring_elements())
@settings(max_examples=60, deadline=None)
def test_group_ring_laws(x, y, z):
    assert gr_equal(gr_mul(gr_mul(x, y), z), gr_mul(x, gr_mul(y, z)))
    assert gr_equal(gr_mul(x, gr_add(y, z)), gr_add(gr_mul(x, y), gr_mul(x, z)))
    assert gr_equal(gr_mul(x, y), gr_mul(y, x))  # abelian group


@given(ring_elements(), ring_elements())
@settings(max_examples=60, deadline=None)
def test_conj_inverse_transform(x, y):
    assert gr_equal(gr_conj_inv(gr_conj_inv(x)), x)
    assert gr_equal(gr_conj_inv(gr_add(x, y)), gr_add(gr_conj_inv(x), gr_conj_inv(y)))


def test_apply_char_is_multiplicative():
    G = make_abelian([3, 3])
    T = characters(G)
    x = GroupRingElt.from_exponents(G, 3, [i % 3 for i in range(9)])
    y = GroupRingElt.from_exponents(G, 3, [(2 * i) % 3 for i in range(9)])
    for t in range(G.order):
        lhs = apply_char(T, t, gr_mul(x, y))
        rhs = cyc_mul(apply_char(T, t, x), apply_char(T, t, y))
        assert is_zero(lhs - rhs)


def test_fourier_equal_iff_coefficient_equal():
    G = make_abelian([4, 2])
    x = GroupRingElt.from_exponents(G, 4, [0, 1, 2, 3, 1, 0, 3, 2])
    assert fourier_equal(x, x)
    y = GroupRingElt.from_exponents(G, 4, [0, 1, 2, 3, 1, 0, 3, 1])
    assert not fourier_equal(x, y)


def test_group_ring_identity_element():
    G = make_cyclic(5)
    one = GroupRingElt.from_exponents(G, 3, [0] + [0] * 4)
    # a genuine identity: coefficient 1 at the identity, 0 elsewhere
    e = GroupRingElt(G, 3, (integer(3, 1),) + (integer(3, 0),) * 4)
    x = GroupRingElt.from_exponents(G, 3, [0, 1, 2, 0, 1])
    assert gr_equal(gr_mul(e, x), x)
    assert not gr_equal(one, e)
