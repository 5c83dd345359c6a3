"""Finite chain rings: both families, exact axioms, valuations, characters."""

from __future__ import annotations

import itertools

import pytest

from butson.errors import ButsonError
from butson.groups import make_abelian
from butson.rings import chain_ring, irreducible_poly

SMALL_RINGS = [
    ("galois", 2, 1, 2),      # Z4
    ("galois", 3, 1, 2),      # Z9
    ("galois", 2, 2, 1),      # F4
    ("galois", 2, 2, 2),      # GR(4, 2), 16 elements
    ("galois", 2, 1, 3),      # Z8
    ("truncated", 2, 1, 2),   # F2[u]/(u^2)
    ("truncated", 3, 1, 2),   # F3[u]/(u^2)
    ("truncated", 2, 2, 2),   # F4[u]/(u^2), 16 elements
    ("truncated", 2, 1, 3),   # F2[u]/(u^3)
]


@pytest.fixture(params=SMALL_RINGS, ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}-{s[3]}")
def ring(request):
    return chain_ring(*request.param)


def test_size_and_identities(ring):
    assert ring.size == ring.p ** (ring.d * ring.n)
    assert len(set(ring.elements)) == ring.size
    for x in ring.elements:
        assert ring.add(x, ring.zero) == x
        assert ring.mul(x, ring.one) == x
        assert ring.add(x, ring.neg(x)) == ring.zero


def test_ring_axioms_exhaustive(ring):
    els = ring.elements if ring.size <= 16 else ring.elements[:12]
    for x, y, z in itertools.product(els, repeat=3):
        assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
        assert ring.add(x, y) == ring.add(y, x)
        assert ring.mul(x, y) == ring.mul(y, x)


def test_ideal_sizes(ring):
    for t in range(ring.n + 1):
        assert len(ring.ideal_elements(t)) == ring.p ** (ring.d * (ring.n - t))


def test_valuation_and_unit_part(ring):
    assert ring.val(ring.zero) == ring.n
    for x in ring.elements:
        v = ring.val(x)
        if x == ring.zero:
            continue
        u = ring.unit_part(x)
        assert ring.is_unit(u)
        assert ring.mul(ring.pow_pi(v), u) == x


def test_valuation_of_products(ring):
    if ring.size > 16:
        pytest.skip("exhaustive product valuation kept to tiny rings")
    for x, y in itertools.product(ring.elements, repeat=2):
        assert ring.val(ring.mul(x, y)) == min(ring.val(x) + ring.val(y), ring.n)


def test_unit_inverse(ring):
    for x in ring.elements:
        if ring.is_unit(x):
            assert ring.mul(x, ring.unit_inverse(x)) == ring.one


def test_involution(ring):
    for x in ring.elements:
        y = ring.phi(x)
        assert ring.val(y) == ring.val(x)
        assert ring.phi(y) == x
        if x != ring.zero:
            # phi inverts the unit part and keeps the pi power
            v = ring.val(x)
            assert y == ring.mul(ring.pow_pi(v), ring.unit_inverse(ring.unit_part(x)))


def test_r1_transversal(ring):
    reps = ring.coset_transversal_R1()
    assert len(reps) == ring.p ** ring.d
    assert reps[0] == ring.zero
    for a, b in itertools.combinations(reps, 2):
        assert ring.val(ring.add(a, ring.neg(b))) == 0, "distinct reps must differ by a unit"


def test_coset_chain(ring):
    chain = ring.coset_chain()
    assert len(chain) == ring.n + 1
    assert chain[0] == [ring.zero]
    for i, level in enumerate(chain):
        assert len(set(level)) == ring.p ** (ring.d * i)
        if i > 0:
            assert set(chain[i - 1]) <= set(level)
    assert set(chain[-1]) == set(ring.elements)


def test_additive_group_matches_ring_addition(ring):
    # ring.index is the element index of the group built from additive_factors
    G = make_abelian(ring.additive_factors)
    assert G.order == ring.size
    for x in ring.elements[: min(ring.size, 16)]:
        for y in ring.elements[: min(ring.size, 16)]:
            assert ring.elements[G.mul(ring.index[x], ring.index[y])] == ring.add(x, y)


def test_z4_facts():
    R = chain_ring("galois", 2, 1, 2)
    two = R.pow_pi(1)
    assert R.mul(two, two) == R.zero
    assert sorted(R.val(x) for x in R.elements) == [0, 0, 1, 2]


def test_truncated_nilpotency():
    R = chain_ring("truncated", 2, 1, 3)
    u = R.pi
    assert R.mul(R.mul(u, u), u) == R.zero
    assert R.mul(u, u) != R.zero


def test_irreducible_poly_frozen():
    assert irreducible_poly(2, 1) == (0, 1)
    assert irreducible_poly(2, 2) == (1, 1, 1)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_irreducible_poly_has_no_roots(p, d):
    poly = irreducible_poly(p, d)
    assert len(poly) == d + 1 and poly[-1] == 1
    for r in range(p):
        assert sum(c * r**i for i, c in enumerate(poly)) % p != 0


def test_invalid_parameters_rejected():
    with pytest.raises(ButsonError):
        chain_ring("galois", 4, 1, 2)  # 4 is not prime
    with pytest.raises(ButsonError):
        chain_ring("twисted", 2, 1, 2)


def test_field_case_everything_is_unit_or_zero():
    F4 = chain_ring("galois", 2, 2, 1)
    units = [x for x in F4.elements if F4.is_unit(x)]
    assert len(units) == 3
