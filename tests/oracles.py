"""Oracles that the tests compare the library against; the library never calls them.

Slow, direct restatements: one product of a group read from its whole
Cayley table, arithmetic in Z[zeta_h] and in the group ring over
`GroupRingElt` coefficients, characters of abelian groups, D D^(-1) = |G| by
`gr_mul` and by characters, the histograms of x y^(-1) for unimodular x and
y, construction 1's blocks case by case and their identities, one shift's
autocorrelation, each chain-ring family's closed forms of the valuation and
the unit part, construction 2's partition as lists of element indices, and
construction 3's line family.  A library method they need is a function here
taking the object first: `x * y` of two `CycInt`s reads `cyc_mul(x, y)`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from butson import groups
from butson.cyclotomic import CycInt, is_zero, zero_rows
from butson.errors import ButsonError, OrderMismatch
from butson.groups import FiniteGroup, GroupRingElt, Unimodular, as_unimodular, difference_histograms
from butson.verify import BhMatrix


class NotOdd(ButsonError):
    """Gauss sums are only defined for odd n."""


class NotAbelian(ButsonError):
    """Character machinery requires an abelian group in factor form."""


class GroupMismatch(ButsonError):
    """Group-ring operands live over different groups."""


def integer(h: int, n: int) -> CycInt:
    return CycInt(h, (n,) + (0,) * (h - 1))


def cyc_mul(x: CycInt, y: CycInt) -> CycInt:
    # Index convolution mod h (zeta_h^h = 1); no Phi_h reduction here.
    x._check(y)
    h = x.h
    out = [0] * h
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            if b == 0:
                continue
            k = i + j
            out[k - h if k >= h else k] += a * b
    return CycInt(h, tuple(out))


def conj(x: CycInt) -> CycInt:
    h = x.h
    out = [0] * h
    for j, a in enumerate(x.coeffs):
        out[(h - j) % h] = a
    return CycInt(h, tuple(out))


def embed(x: CycInt, new_h: int) -> CycInt:
    """Re-express in Z[zeta_new_h]; requires h | new_h."""
    if new_h % x.h != 0:
        raise OrderMismatch(f"{x.h} does not divide {new_h}")
    s = new_h // x.h
    out = [0] * new_h
    for j, a in enumerate(x.coeffs):
        out[j * s] = a
    return CycInt(new_h, tuple(out))


def equals_integer(x: CycInt, n: int) -> bool:
    return is_zero(x - integer(x.h, n))


def norm_sq(x: CycInt) -> CycInt:
    return cyc_mul(x, conj(x))


def gauss_sum(n: int, b: int, variant: str) -> CycInt:
    """Quadratic Gauss-type sums with square norm n (variant 'a') or 2n ('b')."""
    if n < 1 or n % 2 == 0:
        raise NotOdd(f"n must be odd and positive, got {n}")
    if variant == "a":
        out = [0] * n
        for i in range(n):
            out[(i * i + b * i) % n] += 1
        return CycInt(n, tuple(out))
    if variant == "b":
        h = 4 * n
        out = [0] * h
        for i in range(2 * n):
            out[(i * i + 2 * b * i) % h] += 1
        return CycInt(h, tuple(out))
    raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")


def group_mul(G: FiniteGroup, a: int, b: int) -> int:
    """a * b, read from the whole Cayley table."""
    return G.table.item(a, b)


def is_abelian(G: FiniteGroup) -> bool:
    return np.array_equal(G.table, G.table.T)


def same_as(G: FiniteGroup, other: FiniteGroup) -> bool:
    return G is other or np.array_equal(G.table, other.table)


def abelian_coords(G: FiniteGroup, i: int) -> tuple[int, ...]:
    if G.abelian_factors is None:
        raise NotAbelian("group has no factor form")
    c = []
    for f in reversed(G.abelian_factors):
        c.append(i % f)
        i //= f
    return tuple(reversed(c))


def abelian_index(G: FiniteGroup, c) -> int:
    if G.abelian_factors is None:
        raise NotAbelian("group has no factor form")
    i = 0
    for ci, f in zip(c, G.abelian_factors):
        i = i * f + (ci % f)
    return i


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    H: int  # exponent of the group; rows are exponent vectors over zeta_H
    rows: tuple[tuple[int, ...], ...]


def characters(G: FiniteGroup) -> CharacterTable:
    if G.abelian_factors is None:
        raise NotAbelian("characters need an abelian group in factor form")
    factors = G.abelian_factors
    H = math.lcm(*factors)
    rows = []
    for t in range(G.order):
        tc = abelian_coords(G, t)
        row = tuple(
            sum(tj * gj * (H // f) for tj, gj, f in zip(tc, abelian_coords(G, g), factors)) % H
            for g in G.elements()
        )
        rows.append(row)
    return CharacterTable(G, H, tuple(rows))


def coeffs(x: GroupRingElt | Unimodular) -> tuple[CycInt, ...]:
    """The coefficients as CycInts; a Unimodular's, for the oracles that read a GroupRingElt."""
    if isinstance(x, GroupRingElt):
        return x.coeffs
    return tuple(CycInt.root(x.h, e) for e in x.e.tolist())


def _check_pair(x: GroupRingElt, y: GroupRingElt) -> None:
    if not same_as(x.group, y.group):
        raise GroupMismatch("operands live over different groups")
    if x.h != y.h:
        raise OrderMismatch(f"root orders differ: {x.h} vs {y.h}")


def gr_add(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _check_pair(x, y)
    return GroupRingElt(x.group, x.h, tuple(a + b for a, b in zip(coeffs(x), coeffs(y))))


def gr_mul(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _check_pair(x, y)
    G, h = x.group, x.h
    out = [integer(h, 0) for _ in G.elements()]
    for a, ca in enumerate(coeffs(x)):
        if all(v == 0 for v in ca.coeffs):
            continue
        row = G.table[a].tolist()
        for b, cb in enumerate(coeffs(y)):
            if all(v == 0 for v in cb.coeffs):
                continue
            g = row[b]
            out[g] = out[g] + cyc_mul(ca, cb)
    return GroupRingElt(G, h, tuple(out))


def gr_conj_inv(x: GroupRingElt) -> GroupRingElt:
    G = x.group
    out = [integer(x.h, 0)] * G.order
    for g, c in enumerate(coeffs(x)):
        out[G.inv(g)] = conj(c)
    return GroupRingElt(G, x.h, tuple(out))


def gr_equal(x: GroupRingElt, y: GroupRingElt) -> bool:
    _check_pair(x, y)
    return all(is_zero(a - b) for a, b in zip(coeffs(x), coeffs(y)))


def apply_char(table: CharacterTable, row_index: int, X: GroupRingElt | Unimodular) -> CycInt:
    """Character value as a CycInt over lcm(h, H)."""
    row = table.rows[row_index]
    L = math.lcm(X.h, table.H)
    sH = L // table.H
    U = as_unimodular(X)
    if U is not None:
        hist = [0] * L
        sh = L // X.h
        for g, e in enumerate(U.e.tolist()):
            hist[(e * sh + row[g] * sH) % L] += 1
        return CycInt(L, tuple(hist))
    acc = integer(L, 0)
    for g, c in enumerate(coeffs(X)):
        acc = acc + cyc_mul(embed(c, L), CycInt.root(L, row[g] * sH))
    return acc


def fourier_equal(D: GroupRingElt, E: GroupRingElt) -> bool:
    """Equality test via characters; oracle for coefficientwise equality."""
    _check_pair(D, E)
    table = characters(D.group)
    return all(
        is_zero(apply_char(table, t, D) - apply_char(table, t, E))
        for t in range(D.group.order)
    )


def verify_by_gr_mul(D: Unimodular | GroupRingElt) -> bool:
    """D D^(-1) = |G| through the generic gr_mul and scalar is_zero."""
    prod = gr_mul(D, gr_conj_inv(D))
    if not equals_integer(prod.coeffs[0], D.group.order):
        return False
    return all(is_zero(c) for c in prod.coeffs[1:])


def verify_by_characters(D: Unimodular | GroupRingElt, table: CharacterTable | None = None) -> bool:
    """Abelian oracle: |chi(D)|^2 = |G| for every character chi."""
    if table is None:
        table = characters(D.group)
    n = D.group.order
    return all(
        equals_integer(norm_sq(apply_char(table, t, D)), n) for t in range(n)
    )


def unimodular_products(G: FiniteGroup, h: int, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Coefficient histograms of x * y^(-1) for each row y of Y, all unimodular.

    x is an (n,) vector and Y an (m, n) array of exponents in 0..h-1.  Entry
    [j, g, t] of the (m, n, h) result counts the b with x[g b] - Y[j, b] = t
    (mod h): the coefficient of g in x * y_j^(-1) is sum_t [j, g, t] zeta_h^t.
    The rows x[table[g]] go in chunks of about groups.CHUNK_CELLS cells.
    """
    n, m = G.order, len(Y)
    hist = np.empty((m, n, h), dtype=np.int64)
    step = max(1, groups.CHUNK_CELLS // (m * n))
    for g0 in range(0, n, step):
        hist[:, g0 : g0 + step] = difference_histograms(x[G.rows(slice(g0, g0 + step))], Y, h).swapaxes(0, 1)
    return hist


def blocks_by_case(params) -> np.ndarray:
    """Construction 1's blocks for a `construct.BlockParams`, one 2-adic case at a time, as a (k, n/k) array.

    The reference for `construct.build_blocks`, which writes the three cases
    as one quadratic.
    """
    n, h, k, m = params.n, params.h, params.k, params.m
    blocks = []
    for i in range(k):
        if params.case == "EvenVal":
            exps = [(j * j * k + m * i * j) % h for j in range(h)]
        elif params.case == "OddValGe3":
            exps = [(j * j * k // 2 + m * i * j) % h for j in range(h)]
        else:  # Val1: group order h/2, doubled off-diagonal term
            exps = [(j * j * k + 2 * m * i * j) % h for j in range(h // 2)]
        blocks.append(exps)
    return np.array(blocks, dtype=np.int64)


def block_defect(B: np.ndarray, h: int) -> str | None:
    """None if D_i D_j^(-1) = 0 for i != j and sum_i D_i D_i^(-1) = n exactly, else the first that fails.

    Row i of the (k, n/k) exponent array B, entries in 0..h-1, is the block
    D_i over Z_(n/k), and n = B.size.  The k^2 products are histogrammed one
    first block D_i at a time.
    """
    k, c = B.shape
    group = groups.make_cyclic(c)
    diag = np.zeros((c, h), dtype=np.int64)
    for i in range(k):
        hist = unimodular_products(group, h, B[i], B)
        diag += hist[i]
        ok = zero_rows(hist.reshape(k * c, h)).reshape(k, c).all(axis=1)
        ok[i] = True
        bad = np.flatnonzero(~ok)
        if len(bad):
            return f"cross product D_{i} D_{int(bad[0])}^(-1) is nonzero"
    diag[0, 0] -= B.size
    return None if zero_rows(diag).all() else "diagonal block sum does not equal n"


def with_entry(M: BhMatrix, row: int, col: int, e: int) -> BhMatrix:
    E = M.E.copy()
    E[row, col] = int(e) % M.h  # a narrow numpy e % h raises when h does not fit e's dtype
    return BhMatrix(M.h, M.group, E)


def with_coefficient(D: Unimodular, g: int, e: int) -> Unimodular:
    """D with the coefficient of g set to zeta_h^e."""
    exps = D.e.copy()
    exps[g] = int(e) % D.h  # a narrow numpy e % h raises when h does not fit e's dtype
    return Unimodular(D.group, D.h, exps)


def autocorrelation(D: Unimodular, shift) -> CycInt:
    """Exact cyclic autocorrelation sum a_i * conj(a_{i+shift}) of D's array as a CycInt.

    The array is D's exponents over the factors of its abelian group, row-major.
    """
    dims = D.group.abelian_factors
    shift = tuple(int(s) % d for s, d in zip(shift, dims))
    t = D.e.astype(np.int64).reshape(dims)  # unsigned exponents would wrap on subtraction
    shifted = np.roll(t, tuple(-s for s in shift), axis=tuple(range(len(dims))))
    hist = np.bincount(((t - shifted) % D.h).ravel(), minlength=D.h)
    return CycInt(D.h, tuple(int(c) for c in hist))


def neg(R, x):
    return tuple((-a) % R.q for a in x)


def ring_index(R, x) -> int:
    """The index of the coordinate tuple x: its digits mod q, row-major."""
    i = 0
    for a in x:
        i = i * R.q + a % R.q
    return i


def ring_pi(R) -> tuple[int, ...]:
    """The coordinates of pi: p in GR(p^n, d), u in F_(p^d)[u]/(u^n) (0 when n = 1)."""
    c = len(R.additive_factors)
    if R.family == "galois":
        return (R.p % R.q,) + (0,) * (c - 1)
    return tuple(int(k == R.d) for k in range(c))


def ring_val(R, x) -> int:
    """The pi-adic valuation of a coordinate tuple; val(0) = n.

    In a Galois ring it is the least p-adic valuation of a coordinate, in a
    truncated ring the first nonzero u-block.
    """
    if not any(x):
        return R.n
    if R.family == "galois":
        return min(_pval(a, R.p) for a in x if a)
    return next(i for i, a in enumerate(x) if a) // R.d


def _pval(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def unit_part(R, x) -> tuple[int, ...]:
    """A unit u with x = pi^val(x) u, for x nonzero.

    In a Galois ring each coordinate is divided by p^val(x), in a truncated
    ring the u-blocks are shifted down by val(x).
    """
    t = ring_val(R, x)
    if R.family == "galois":
        return tuple(a // R.p**t for a in x)
    return x[t * R.d :] + (0,) * (t * R.d)


def ring_phi(R, x) -> tuple[int, ...]:
    """pi^t u^(-1) for x = pi^t u, u = unit_part(x); 0 for 0.  Products are read from R.mul_table."""
    if not any(x):
        return x
    T, t = R.mul_table, ring_val(R, x)
    one = ring_index(R, (1,) + (0,) * (len(x) - 1))
    (inverse,) = np.flatnonzero(T[ring_index(R, unit_part(R, x))] == one)
    y, pi = int(inverse), ring_index(R, ring_pi(R))
    for _ in range(t):
        y = T.item(y, pi)
    return R.elements[y]


def partition_parts(R, t: int, seed: int | None = None) -> list[list[int]]:
    """R's element indices in p^t parts, each meeting every coset of I^(n-1) in p^(d-t) of them.

    The cosets, each ascending and ordered by their least element, are dealt
    round-robin; a seed shuffles each coset, in that order, with one
    random.Random(seed).
    """
    A, ideal = R.add_table.tolist(), R.ideal_elements(R.n - 1).tolist()
    cosets, seen = [], set()
    for x in range(R.size):
        if x not in seen:
            cosets.append(sorted(A[x][i] for i in ideal))
            seen.update(cosets[-1])
    parts: list[list[int]] = [[] for _ in range(R.p**t)]
    rng = random.Random(seed) if seed is not None else None
    slot = 0
    for coset in cosets:
        if rng is not None:
            rng.shuffle(coset)
        for y in coset:
            parts[slot % len(parts)].append(y)
            slot += 1
    for part in parts:
        pset = set(part)
        for coset in cosets:
            assert sum(1 for y in coset if y in pset) == R.p ** (R.d - t), "a part meets a coset unevenly"
    return parts


def line_family(R):
    """The subgroups I_r = {(x, xr)} for r in R and J_s = {(xs, x)} for s in I, as pairs of element indices."""
    T = R.mul_table.tolist()
    lines_I = {r: frozenset((x, T[x][r]) for x in range(R.size)) for r in range(R.size)}
    lines_J = {s: frozenset((T[x][s], x) for x in range(R.size)) for s in R.ideal_elements(1).tolist()}
    return lines_I, lines_J
