"""Finite chain rings: both families, exact axioms, valuations, characters."""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from sympy import Poly, symbols

from butson.errors import ButsonError, UnsupportedRing
from butson.groups import abelian_index, make_abelian
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


def test_elements_are_flat_coordinate_tuples(ring):
    # one coordinate mod q per additive factor, in make_abelian's index order
    G = make_abelian(ring.additive_factors)
    for x in ring.elements:
        assert len(x) == len(ring.additive_factors)
        assert all(type(a) is int and 0 <= a < q for a, q in zip(x, ring.additive_factors))
        assert ring.index[x] == abelian_index(G, x)


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


@pytest.mark.parametrize("spec", SMALL_RINGS + [
    ("galois", 3, 2, 2),      # GR(9, 2), a quadratic modulus over Z9
    ("truncated", 2, 3, 2),   # F8[u]/(u^2), a cubic modulus
    ("truncated", 2, 2, 3),   # F4[u]/(u^3), three u-blocks
], ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}-{s[3]}")
def test_mul_table_matches_polynomial_arithmetic(spec):
    R = chain_ring(*spec)
    product = _polynomial_product(R)
    table = R.mul_table
    assert table.shape == (R.size, R.size) and not table.flags.writeable
    for i, x in enumerate(R.elements):
        assert table[i].tolist() == [R.index[product(x, y)] for y in R.elements], x


def test_ring_self_checks_survive_python_O():
    code = textwrap.dedent("""
        import sys
        from butson.errors import SelfCheckFailed
        from butson.rings import chain_ring

        assert sys.flags.optimize, "asserts are on"
        for spec in [("galois", 3, 1, 2), ("truncated", 2, 2, 2)]:
            R = chain_ring(*spec)
            table = R.mul_table.copy()
            table[table == R.index[R.one]] = R.index[R.zero]  # no unit has an inverse
            R.__dict__["mul_table"] = table
            try:
                [R.phi(x) for x in R.elements]
                sys.exit(f"phi of {spec} passed with a product table that holds no one")
            except SelfCheckFailed:
                pass
            R = chain_ring(*spec)
            R.coset_transversal_R1 = lambda: [R.zero] * R.p ** R.d
            try:
                R.coset_chain()
                sys.exit(f"the coset chain of {spec} passed with a repeated transversal")
            except SelfCheckFailed:
                pass
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    units = [x for x in F4.elements if F4.is_unit(x)]
    assert len(units) == 3
