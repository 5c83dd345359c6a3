"""Finite groups, characters, and the group ring over cyclotomic integers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.construct import find_normal_cyclic_generator
from butson.cyclotomic import CycInt, equals_integer, is_zero
from butson.errors import InvalidAction, InvalidParams, NotAbelian, NotAGroup, WrongSubgroupOrder
from butson.groups import (
    GroupRingElt,
    _check_axioms,
    abelian_coords,
    abelian_index,
    apply_char,
    characters,
    coset_reps,
    cyclic_subgroup,
    element_order,
    fourier_equal,
    gr_add,
    gr_conj_inv,
    gr_equal,
    gr_mul,
    is_normal,
    make_abelian,
    make_cyclic,
    make_from_table,
    make_semidirect,
    parse_cayley_table,
)

from conftest import quaternion_table


def order_histogram(G):
    hist = {}
    for g in G.elements():
        o = element_order(G, g)
        hist[o] = hist.get(o, 0) + 1
    return hist


def test_cyclic_group_basics():
    G = make_cyclic(6)
    assert G.order == 6 and G.is_abelian
    assert G.mul(4, 5) == 3 and G.inv(2) == 4
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
    assert G.order == 8 and not G.is_abelian
    assert order_histogram(G) == {1: 1, 2: 5, 4: 2}


@pytest.mark.parametrize("factors", [[1], [6], [2, 3], [3, 3], [2, 3, 4]])
def test_make_abelian_table_matches_definition(factors):
    G = make_abelian(factors)
    for a in G.elements():
        ca = abelian_coords(G, a)
        for b in G.elements():
            cb = abelian_coords(G, b)
            want = abelian_index(G, [x + y for x, y in zip(ca, cb)])
            assert G.mul(a, b) == want
        assert G.mul(a, G.inv(a)) == 0 == G.mul(G.inv(a), a)


@pytest.mark.parametrize("m,k,t", [(1, 1, 0), (3, 2, 2), (4, 2, 3), (7, 3, 2), (5, 4, 2)])
def test_make_semidirect_table_matches_definition(m, k, t):
    G = make_semidirect(m, k, t)
    assert G.order == m * k
    for a in G.elements():
        i, j = divmod(a, k)
        for b in G.elements():
            i2, j2 = divmod(b, k)
            assert G.mul(a, b) == (i + t**j * i2) % m * k + (j + j2) % k
        assert G.mul(a, G.inv(a)) == 0 == G.mul(G.inv(a), a)


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
        assert type(G.mul(1, 2)) is int and type(G.inv(1)) is int


def _normal_by_definition(G, sub):
    members = set(sub)
    return all(G.mul(G.mul(x, s), G.inv(x)) in members for x in G.elements() for s in sub)


def test_is_normal_matches_definition(q8_table):
    S3 = make_semidirect(3, 2, 2)  # element 2i + j is (i, j)
    D4 = make_semidirect(4, 2, 3)
    # the order-2 subgroups of S3 and a reflection subgroup of D4 are not normal
    for G, sub in [(S3, (0, 1)), (S3, (0, 3)), (S3, (0, 5)), (D4, (0, 1))]:
        assert not is_normal(G, sub) and not _normal_by_definition(G, sub)
    # rotations, the centre, a Klein four-group and the whole group are
    for G, sub in [(S3, (0, 2, 4)), (D4, (0, 2, 4, 6)), (D4, (0, 4)), (D4, (0, 1, 4, 5)),
                   (D4, tuple(D4.elements()))]:
        assert is_normal(G, sub) and _normal_by_definition(G, sub)
    for G in (S3, D4, make_from_table(q8_table), make_abelian([2, 4])):
        for g in G.elements():
            sub = cyclic_subgroup(G, g)
            assert is_normal(G, sub) == _normal_by_definition(G, sub)


def test_same_as_compares_tables(q8_table):
    G = make_from_table(q8_table)
    assert G.same_as(G) and G.same_as(make_from_table(q8_table))
    # swap i <-> j and -i <-> -j: an isomorphic group with another table
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    relabelled = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            relabelled[perm[a]][perm[b]] = perm[q8_table[a][b]]
    H = make_from_table(relabelled)
    assert not G.same_as(H) and not H.same_as(G)
    assert not make_cyclic(8).same_as(make_abelian([2, 4]))


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


def test_make_abelian_rejects_bad_factors():
    for factors in ([], [2, 0], [3, -1]):
        with pytest.raises(InvalidParams):
            make_abelian(factors)
    with pytest.raises(InvalidParams):
        make_cyclic(0)


def test_quaternion_group(q8_table):
    G = make_from_table(q8_table)
    assert G.order == 8 and not G.is_abelian
    # exactly one involution distinguishes Q8 from D4
    assert order_histogram(G) == {1: 1, 2: 1, 4: 6}


def test_parse_cayley_table_round_trip(q8_table):
    text = "order 8\n" + "\n".join(" ".join(map(str, row)) for row in q8_table)
    assert parse_cayley_table(text) == q8_table


def test_cyclic_subgroup_and_normality():
    D4 = make_semidirect(4, 2, 3)
    g = find_normal_cyclic_generator(D4, 4)  # the rotations
    sub = cyclic_subgroup(D4, g)
    assert len(sub) == 4 and is_normal(D4, sub)

    S3 = make_semidirect(3, 2, 2)
    assert len(cyclic_subgroup(S3, find_normal_cyclic_generator(S3, 3))) == 3
    for order in (2, 6):  # the order-2 subgroups are not normal; S3 is not cyclic
        with pytest.raises(WrongSubgroupOrder):
            find_normal_cyclic_generator(S3, order)


def test_coset_reps_tile_the_group():
    D4 = make_semidirect(4, 2, 3)
    g = find_normal_cyclic_generator(D4, 4)
    H = cyclic_subgroup(D4, g)
    reps = coset_reps(D4, H)
    assert reps[0] == 0
    covered = {D4.mul(x, r) for r in reps for x in H}
    assert covered == set(D4.elements())


@pytest.mark.parametrize("factors", [[4], [2, 2], [8], [3, 3], [2, 4], [2, 2, 2, 2]])
def test_character_orthogonality(factors):
    G = make_abelian(factors)
    T = characters(G)
    assert len(T.rows) == G.order
    for i in range(G.order):
        for j in range(G.order):
            acc = CycInt.zero(T.H)
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


def test_monomial_and_generic_multiply_agree():
    # 1 + zeta_4^2 = 0: adding it to a coefficient keeps the value but not the
    # single-root form, which forces the generic path
    vanishing = CycInt(4, (1, 0, 1, 0))
    for G in (make_cyclic(6), make_semidirect(3, 2, 2)):
        x = GroupRingElt.from_exponents(G, 4, [0, 1, 2, 3, 0, 1])
        y = GroupRingElt.from_exponents(G, 4, [3, 3, 0, 1, 2, 2])
        bulk = GroupRingElt(G, 4, (x.coeffs[0] + vanishing,) + x.coeffs[1:])
        assert bulk.monomial_exponents() is None
        assert gr_equal(gr_mul(bulk, y), gr_mul(x, y))
        assert gr_equal(gr_mul(y, bulk), gr_mul(y, x))


def test_apply_char_is_multiplicative():
    G = make_abelian([3, 3])
    T = characters(G)
    x = GroupRingElt.from_exponents(G, 3, [i % 3 for i in range(9)])
    y = GroupRingElt.from_exponents(G, 3, [(2 * i) % 3 for i in range(9)])
    for t in range(G.order):
        lhs = apply_char(T, t, gr_mul(x, y))
        rhs = apply_char(T, t, x) * apply_char(T, t, y)
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
    e = GroupRingElt(G, 3, (CycInt.integer(3, 1),) + (CycInt.zero(3),) * 4)
    x = GroupRingElt.from_exponents(G, 3, [0, 1, 2, 0, 1])
    assert gr_equal(gr_mul(e, x), x)
    assert not gr_equal(one, e)
