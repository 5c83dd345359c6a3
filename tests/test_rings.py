"""Finite chain rings: both families, exact axioms of the two tables, valuations and phi."""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from sympy import Poly, symbols

from butson.errors import ButsonError, UnsupportedRing
from butson.groups import make_abelian
from butson.rings import chain_ring, irreducible_poly

from oracles import abelian_index, neg, ring_index, ring_phi, ring_pi, ring_val, unit_part

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


# every ring up to 81 elements that the tests build from coordinates
RINGS = SMALL_RINGS + [
    ("galois", 3, 2, 2),      # GR(9, 2), a quadratic modulus over Z9
    ("truncated", 2, 3, 2),   # F8[u]/(u^2), a cubic modulus
    ("truncated", 2, 2, 3),   # F4[u]/(u^3), three u-blocks
]


def ring_id(spec):
    return "-".join(map(str, spec))


@pytest.fixture(params=SMALL_RINGS, ids=ring_id)
def ring(request):
    return chain_ring(*request.param)


def test_size_and_identities(ring):
    A, T, r = ring.add_table, ring.mul_table, np.arange(ring.size)
    c = len(ring.additive_factors)
    assert ring.size == ring.p ** (ring.d * ring.n)
    assert len(set(ring.elements)) == ring.size
    assert ring.elements[0] == (0,) * c and ring.elements[ring.one] == (1,) + (0,) * (c - 1)
    assert (A[:, 0] == r).all() and (T[:, ring.one] == r).all()
    for i, x in enumerate(ring.elements):  # the negative: where row x of the sum table holds 0, once
        (j,) = np.flatnonzero(A[i] == 0)
        assert ring.elements[j] == neg(ring, x)


@pytest.mark.parametrize("spec", RINGS, ids=ring_id)
def test_ring_axioms_exhaustive(spec):
    R = chain_ring(*spec)
    A, T = R.add_table, R.mul_table
    assert A.shape == (R.size, R.size) and not A.flags.writeable
    x, y, z = np.ix_(*[range(R.size)] * 3)  # every triple
    assert (A[A[x, y], z] == A[x, A[y, z]]).all()
    assert (T[T[x, y], z] == T[x, T[y, z]]).all()
    assert (T[x, A[y, z]] == A[T[x, y], T[x, z]]).all()
    assert (A == A.T).all() and (T == T.T).all()


def test_ideal_sizes(ring):
    for t in range(ring.n + 1):
        assert len(ring.ideal_elements(t)) == ring.p ** (ring.d * (ring.n - t))


def test_valuation_and_unit_part(ring):
    T, val = ring.mul_table, ring.val
    assert val[0] == ring.n and not val.flags.writeable
    for i, x in enumerate(ring.elements[1:], 1):
        u = ring_index(ring, unit_part(ring, x))
        assert val[u] == 0
        assert T[ring.pi_powers[val[i]], u] == i


@pytest.mark.parametrize("spec", RINGS, ids=ring_id)
def test_val_and_phi_match_the_closed_forms(spec):
    R = chain_ring(*spec)
    assert [R.elements[i] for i in R.pi_powers[:2]] == [R.elements[R.one], ring_pi(R)]
    assert R.val.tolist() == [ring_val(R, x) for x in R.elements]
    assert [R.elements[y] for y in R.phi.tolist()] == [ring_phi(R, x) for x in R.elements]


def test_valuation_of_products(ring):
    val = ring.val
    assert (val[ring.mul_table] == np.minimum(val[:, None] + val, ring.n)).all()


def test_unit_inverse(ring):
    # a unit's row of the product table holds one exactly once, another element's never
    assert ((ring.mul_table == ring.one).sum(axis=1) == (ring.val == 0)).all()


def test_involution(ring):
    phi, val, r = ring.phi, ring.val, np.arange(ring.size)
    assert not phi.flags.writeable
    assert (val[phi] == val).all() and (phi[phi] == r).all()
    # phi inverts the unit part and keeps the pi power: phi(pi^t u) pi^t u = pi^(2t)
    assert (ring.mul_table[phi, r] == np.array(ring.pi_powers)[np.minimum(2 * val, ring.n)]).all()


def test_r1_transversal(ring):
    r1 = ring.coset_chain()[1]
    rest = (0,) * (len(ring.additive_factors) - ring.d)
    assert [ring.elements[i] for i in r1] == [c + rest for c in itertools.product(range(ring.p), repeat=ring.d)]
    assert r1[0] == 0
    negative = (ring.add_table == 0).argmax(axis=1)
    differences = ring.val[ring.add_table[np.ix_(r1, negative[r1])]]
    assert (differences[~np.eye(len(r1), dtype=bool)] == 0).all(), "distinct reps must differ by a unit"


def test_coset_chain(ring):
    chain = ring.coset_chain()
    assert len(chain) == ring.n + 1
    assert chain[0].tolist() == [0]
    for i, level in enumerate(chain):
        assert len(set(level.tolist())) == ring.p ** (ring.d * i) == len(level)
        assert (np.diff(level) > 0).all()
        if i > 0:
            assert set(chain[i - 1].tolist()) <= set(level.tolist())
    assert chain[-1].tolist() == list(range(ring.size))


def test_additive_group_matches_ring_addition(ring):
    # an element's index is also its element index in the group built from additive_factors
    G = make_abelian(ring.additive_factors)
    assert G.order == ring.size
    assert (G.table == ring.add_table).all()


def test_elements_are_flat_coordinate_tuples(ring):
    # one coordinate mod q per additive factor, in make_abelian's index order
    G = make_abelian(ring.additive_factors)
    for i, x in enumerate(ring.elements):
        assert len(x) == len(ring.additive_factors)
        assert all(type(a) is int and 0 <= a < q for a, q in zip(x, ring.additive_factors))
        assert i == abelian_index(G, x) == ring_index(ring, x)


def _polynomial_product(R):
    """R's product computed with sympy polynomials, apart from the product table."""
    X = symbols("x")
    f = Poly(list(reversed(R.modulus)), X)

    @functools.lru_cache(maxsize=None)  # truncated rings repeat their blocks
    def mul_mod_f(a, b, q):  # coefficient tuples in x, low degree first
        c = (Poly(list(reversed(a)), X) * Poly(list(reversed(b)), X)).rem(f).all_coeffs()
        c = [int(v) % q for v in reversed(c)]
        return c + [0] * (R.d - len(c))

    if R.family == "galois":  # reduce mod f over Z, then each coefficient mod q
        return lambda a, b: tuple(mul_mod_f(a, b, R.q))

    def truncated(a, b):  # u-blocks of d coordinates, each an element of F_p[x]/(f)
        d, n = R.d, R.n
        out = [[0] * d for _ in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            if i + j < n:  # u^(i + j); u^n = 0
                prod = mul_mod_f(a[i * d:(i + 1) * d], b[j * d:(j + 1) * d], R.p)
                out[i + j] = [(s + t) % R.p for s, t in zip(out[i + j], prod)]
        return tuple(itertools.chain(*out))

    return truncated


@pytest.mark.parametrize("spec", RINGS, ids=ring_id)
def test_mul_table_matches_polynomial_arithmetic(spec):
    R = chain_ring(*spec)
    product = _polynomial_product(R)
    table = R.mul_table
    assert table.shape == (R.size, R.size) and not table.flags.writeable
    for i, x in enumerate(R.elements):
        assert table[i].tolist() == [ring_index(R, product(x, y)) for y in R.elements], x


@pytest.mark.parametrize("spec", RINGS, ids=ring_id)
def test_add_table_matches_coordinate_addition(spec):
    R = chain_ring(*spec)
    for i, x in enumerate(R.elements):
        assert R.add_table[i].tolist() == [ring_index(R, [a + b for a, b in zip(x, y)]) for y in R.elements], x


def test_ring_self_checks_survive_python_O():
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from butson.errors import SelfCheckFailed
        from butson.rings import chain_ring

        assert sys.flags.optimize, "asserts are on"
        for spec in [("galois", 3, 1, 2), ("truncated", 2, 2, 2)]:
            R = chain_ring(*spec)
            table = R.mul_table.copy()
            table[table == R.one] = 0  # no unit has an inverse
            R.__dict__["mul_table"] = table
            try:
                R.phi
                sys.exit(f"phi of {spec} passed with a product table that holds no one")
            except SelfCheckFailed:
                pass
            R = chain_ring(*spec)
            R.__dict__["add_table"] = np.zeros_like(R.add_table)  # every sum is 0: no level grows
            try:
                R.coset_chain()
                sys.exit(f"the coset chain of {spec} passed with a sum table that holds only 0")
            except SelfCheckFailed:
                pass
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_z4_facts():
    R = chain_ring("galois", 2, 1, 2)
    two = R.pi_powers[1]
    assert R.elements[two] == (2,)
    assert R.mul_table[two, two] == 0
    assert sorted(R.val.tolist()) == [0, 0, 1, 2]


def test_truncated_nilpotency():
    R = chain_ring("truncated", 2, 1, 3)
    T, u = R.mul_table, R.pi
    assert R.elements[u] == (0, 1, 0)
    assert T[T[u, u], u] == 0
    assert T[u, u] != 0


def test_irreducible_poly_frozen():
    assert irreducible_poly(2, 1) == (0, 1)
    assert irreducible_poly(2, 2) == (1, 1, 1)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_irreducible_poly_has_no_roots(p, d):
    poly = irreducible_poly(p, d)
    assert len(poly) == d + 1 and poly[-1] == 1
    for r in range(p):
        assert sum(c * r**i for i, c in enumerate(poly)) % p != 0
    # no monic factor of degree <= d/2 either: no product of two monic
    # polynomials over F_p of degrees k and d - k equals it
    for k in range(1, d // 2 + 1):
        for a, b in itertools.product(itertools.product(range(p), repeat=k),
                                      itertools.product(range(p), repeat=d - k)):
            prod = [0] * (d + 1)
            for i, x in enumerate(a + (1,)):
                for j, y in enumerate(b + (1,)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            assert tuple(prod) != poly, (a, b)


def test_invalid_parameters_rejected():
    with pytest.raises(ButsonError):
        chain_ring("galois", 4, 1, 2)  # 4 is not prime
    with pytest.raises(ButsonError):
        chain_ring("twисted", 2, 1, 2)
    refused = set()
    for p in range(2, 201):
        try:
            chain_ring("galois", p, 1, 1)
        except UnsupportedRing as exc:
            assert str(exc) == f"bad parameters p={p}, d=1, n=1"
            refused.add(p)
    assert refused == {p for p in range(2, 201) if any(p % d == 0 for d in range(2, p))}


def test_rings_too_large_to_list_are_refused_before_enumeration(monkeypatch):
    t0 = time.perf_counter()
    # neither 2^(10^12) nor a primality test of a 31-digit p is ever computed
    for p, d, n in [(2, 10**12, 1), (10**30 + 57, 1, 1)]:
        with pytest.raises(UnsupportedRing, match="too many to list"):
            chain_ring("galois", p, d, n)
    assert time.perf_counter() - t0 < 5
    # a p small enough to list is checked for primality, with the usual message
    with pytest.raises(UnsupportedRing, match=r"^bad parameters p=1000, d=1, n=1$"):
        chain_ring("galois", 1000, 1, 1)
    # 1700 bytes list 9 elements of 8*2 + 160 bytes, not 11 of 8 + 160
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1700, "SC_PAGE_SIZE": 1}.__getitem__)
    assert chain_ring("galois", 3, 1, 2).size == 9
    with pytest.raises(UnsupportedRing, match="too many to list"):
        chain_ring("truncated", 11, 1, 1)
    monkeypatch.delattr(os, "sysconf")  # as on Windows: no bound but d*n < 64
    assert chain_ring("truncated", 11, 1, 1).size == 11


def test_field_case_everything_is_unit_or_zero():
    F4 = chain_ring("galois", 2, 2, 1)
    assert F4.val.tolist() == [1, 0, 0, 0]
