"""Exact cyclotomic-integer arithmetic against independent oracles."""

from __future__ import annotations

import cmath
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.cyclotomic import (
    CycInt,
    cyclotomic_poly,
    equals_integer,
    gauss_sum,
    is_zero,
    norm_sq,
)
from butson.errors import NotOdd


def numeric_value(x: CycInt) -> complex:
    """Floating-point oracle; never used by the library itself."""
    return sum(c * cmath.exp(2j * cmath.pi * e / x.h)
               for e, c in enumerate(x.coeffs))


def test_root_exponent_reduces_mod_h():
    assert CycInt.root(6, 13) == CycInt.root(6, 1) == CycInt(6, (0, 1, 0, 0, 0, 0))
    assert CycInt.root(6, -1) == CycInt(6, (0, 0, 0, 0, 0, 1))


def test_cyclotomic_poly_frozen_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("h", range(1, 61))
def test_cyclotomic_poly_matches_sympy(h):
    ours = cyclotomic_poly(h)
    x = sympy.symbols("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(h, x), x).all_coeffs()[::-1]
    assert list(ours) == [int(c) for c in theirs]


@pytest.mark.parametrize("h", range(1, 41))
def test_cyclotomic_polys_multiply_to_x_pow_h_minus_one(h):
    prod = [1]
    for d in range(1, h + 1):
        if h % d:
            continue
        phi = cyclotomic_poly(d)
        new = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                new[i + j] += a * b
        prod = new
    expect = [-1] + [0] * (h - 1) + [1]
    assert prod == expect


_small_h = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24])


@st.composite
def cyc_ints(draw, h=None):
    hh = draw(_small_h) if h is None else h
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=hh, max_size=hh))
    return CycInt(hh, tuple(coeffs))


@st.composite
def cyc_triples(draw):
    h = draw(_small_h)
    return tuple(draw(cyc_ints(h=h)) for _ in range(3))


@given(cyc_triples())
@settings(max_examples=150, deadline=None)
def test_ring_laws(triple):
    a, b, c = triple
    assert is_zero((a + b) + c - (a + (b + c)))
    assert is_zero(a * b - b * a)
    assert is_zero((a * b) * c - (a * (b * c)))
    assert is_zero(a * (b + c) - (a * b + a * c))
    assert is_zero(a - a)


@given(cyc_triples())
@settings(max_examples=100, deadline=None)
def test_conjugation_laws(triple):
    a, b, _ = triple
    assert is_zero(a.conj().conj() - a)
    assert is_zero((a * b).conj() - a.conj() * b.conj())
    assert is_zero((a + b).conj() - (a.conj() + b.conj()))


@given(cyc_triples())
@settings(max_examples=100, deadline=None)
def test_is_zero_matches_numeric_oracle(triple):
    a, _, _ = triple
    assert is_zero(a) == (abs(numeric_value(a)) < 1e-8)


def test_is_zero_examples():
    z = CycInt.root(3, 0) + CycInt.root(3, 1) + CycInt.root(3, 2)
    assert is_zero(z)
    assert not is_zero(CycInt.root(4, 0) + CycInt.root(4, 1))


def test_sixth_roots_sum_to_one():
    v = CycInt.root(6, 1) + CycInt.root(6, 5)
    assert equals_integer(v, 1)


def test_embed_preserves_value():
    x = CycInt.root(4, 1) + CycInt.integer(4, 2)
    y = x.embed(12)
    assert abs(numeric_value(x) - numeric_value(y)) < 1e-9
    z = CycInt.root(3, 0) + CycInt.root(3, 1) + CycInt.root(3, 2)
    assert is_zero(z.embed(6))


def test_monomial_exponent():
    assert CycInt.root(8, 5).monomial_exponent() == 5
    assert CycInt.integer(8, 2).monomial_exponent() is None
    assert (CycInt.root(8, 1) + CycInt.root(8, 2)).monomial_exponent() is None


def test_root_norms_are_one():
    for h in (2, 3, 4, 6, 12):
        for e in range(h):
            assert equals_integer(norm_sq(CycInt.root(h, e)), 1)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
def test_gauss_sum_variant_a_norm(n):
    for b in range(n):
        assert equals_integer(norm_sq(gauss_sum(n, b, "a")), n)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_gauss_sum_variant_b_norm(n):
    for b in range(2 * n):
        assert equals_integer(norm_sq(gauss_sum(n, b, "b")), 2 * n)


def test_gauss_sum_variant_b_rejects_even_n():
    with pytest.raises(NotOdd):
        gauss_sum(4, 0, "b")


def test_prime_cycle_sums_vanish():
    random.seed(7)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        acc = CycInt.zero(p)
        for j in range(p):
            acc = acc + CycInt.root(p, j)
        assert is_zero(acc)
        # a rotated cycle vanishes too
        s = random.randrange(p)
        acc = CycInt.zero(p)
        for j in range(p):
            acc = acc + CycInt.root(p, (j + s) % p)
        assert is_zero(acc)
