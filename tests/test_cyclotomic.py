"""Exact cyclotomic-integer arithmetic against independent oracles."""

from __future__ import annotations

import cmath
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from butson import cyclotomic
from butson.cyclotomic import CycInt, cyclotomic_poly, is_zero, reduce_rows, reduction_matrix, zero_rows

from oracles import NotOdd, conj, cyc_mul, embed, equals_integer, gauss_sum, integer, norm_sq


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
    assert is_zero(cyc_mul(a, b) - cyc_mul(b, a))
    assert is_zero(cyc_mul(cyc_mul(a, b), c) - cyc_mul(a, cyc_mul(b, c)))
    assert is_zero(cyc_mul(a, b + c) - (cyc_mul(a, b) + cyc_mul(a, c)))
    assert is_zero(a - a)


@given(cyc_triples())
@settings(max_examples=100, deadline=None)
def test_conjugation_laws(triple):
    a, b, _ = triple
    assert is_zero(conj(conj(a)) - a)
    assert is_zero(conj(cyc_mul(a, b)) - cyc_mul(conj(a), conj(b)))
    assert is_zero(conj(a + b) - (conj(a) + conj(b)))


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
    x = CycInt.root(4, 1) + integer(4, 2)
    y = embed(x, 12)
    assert abs(numeric_value(x) - numeric_value(y)) < 1e-9
    z = CycInt.root(3, 0) + CycInt.root(3, 1) + CycInt.root(3, 2)
    assert is_zero(embed(z, 6))


def test_monomial_exponent():
    assert CycInt.root(8, 5).monomial_exponent() == 5
    assert integer(8, 2).monomial_exponent() is None
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
        acc = integer(p, 0)
        for j in range(p):
            acc = acc + CycInt.root(p, j)
        assert is_zero(acc)
        # a rotated cycle vanishes too
        s = random.randrange(p)
        acc = integer(p, 0)
        for j in range(p):
            acc = acc + CycInt.root(p, (j + s) % p)
        assert is_zero(acc)


KERNEL_ORDERS = [1, 2, 3, 4, 12, 24, 105, 236]


def _vanishing_row(h: int, rng: random.Random) -> list[int]:
    """A random multiple of Phi_h, folded mod x^h - 1: always zero in Z[zeta_h]."""
    phi = cyclotomic_poly(h)
    row = [0] * h
    for shift in range(h - len(phi) + 1):
        q = rng.randint(-3, 3)
        for i, c in enumerate(phi):
            row[(i + shift) % h] += q * c
    return row


@pytest.mark.parametrize("h", KERNEL_ORDERS)
def test_reduction_matrix_rows_are_reduced_powers(h):
    Rm = reduction_matrix(h)
    d = len(cyclotomic_poly(h)) - 1
    assert Rm.shape == (h, d) and not Rm.flags.writeable
    assert reduction_matrix(h) is Rm
    # distinct roots reduce to distinct rows
    assert len({tuple(r) for r in Rm.tolist()}) == h
    for j, r in enumerate(Rm.tolist()):
        reduced = CycInt(h, tuple(r) + (0,) * (h - d))
        assert is_zero(reduced - CycInt.root(h, j))


@pytest.mark.parametrize("h", KERNEL_ORDERS)
def test_zero_rows_matches_is_zero(h):
    rng = random.Random(1000 + h)
    rows = []
    for _ in range(20):
        rows.append([rng.randint(-5, 5) for _ in range(h)])
        near = _vanishing_row(h, rng)
        rows.append(near)
        bumped = list(near)
        bumped[rng.randrange(h)] += rng.choice([-1, 1])
        rows.append(bumped)
    hist = np.array(rows, dtype=np.int64)
    expected = [is_zero(CycInt(h, tuple(r))) for r in rows]
    assert zero_rows(hist).tolist() == expected
    assert any(expected) and not all(expected)


def test_zero_rows_of_no_rows():
    assert zero_rows(np.zeros((0, 6), dtype=np.int64)).shape == (0,)


def test_zero_rows_falls_back_to_python_ints(monkeypatch):
    calls = []
    exact = cyclotomic._reduce_exact

    def spy(hist, Rm):
        calls.append(hist.shape)
        return exact(hist, Rm)

    monkeypatch.setattr(cyclotomic, "_reduce_exact", spy)
    h, big = 12, 2**60
    small = np.array([[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]], dtype=np.int64)
    assert zero_rows(small).tolist() == [True]
    assert calls == []  # within the int64 bound

    rows = [
        [big, 0, 0, 0, big, 0, 0, 0, big, 0, 0, 0],  # 2^60 (1 + z^4 + z^8) = 0
        [big, 0, 0, 0, big, 0, 0, 0, big + 1, 0, 0, 0],
        [big] * 12,  # 2^60 * (sum of all 12th roots) = 0
        [big, 0, 0, 0, 0, 0, big, 0, 0, 0, 0, big],
    ]
    hist = np.array(rows, dtype=np.int64)
    expected = [is_zero(CycInt(h, tuple(r))) for r in rows]
    assert zero_rows(hist).tolist() == expected == [True, False, True, False]
    assert calls == [(4, 12)]
    # no entry is near 2^62, but a row's sum of |c_j| is, which decides
    mid = np.array([[2**59] * 12, [2**59] * 11 + [0]], dtype=np.int64)
    assert zero_rows(mid).tolist() == [True, False]
    assert calls == [(4, 12), (2, 12)]
    # rows beyond int64 go the same way, as object arrays
    huge = np.array([[2**70, 2**70, 2**70]], dtype=object)
    assert zero_rows(huge).tolist() == [True]
    assert reduce_rows(np.array([[2**70, 0, 0]], dtype=object)).tolist() == [[2**70, 0]]
    assert len(calls) == 4


@pytest.mark.parametrize("call", [
    "cyclotomic._totient = lambda h: 0; cyclotomic.cyclotomic_poly(6)",  # x^6 - 1 over Phi_1 Phi_2 Phi_3 has degree 2
    "cyclotomic._poly_divmod_monic([1, 0, 1], [1, 2])",  # 2x + 1 is not monic
], ids=["exact-division", "monic"])
def test_cyclotomic_checks_survive_python_O(call):
    code = textwrap.dedent("""
        import sys
        from butson import cyclotomic
        from butson.errors import SelfCheckFailed

        assert sys.flags.optimize, "asserts are on"
        try:
            {call}
        except SelfCheckFailed:
            sys.exit(0)
        sys.exit(1)
    """).format(call=call)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
