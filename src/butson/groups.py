"""Finite groups, their characters, and group rings over Z[zeta_h].

Groups use a dense element encoding 0..order-1 with 0 the identity.  The
Cayley table is one read-only (order, order) numpy array of np.intp, with
table[a, b] = a*b, and the inverses one read-only (order,) array; builders
fill the table with broadcast expressions, and consumers (materialize, the
invariance check, the group-ring product, normality) gather through it as a
whole.  `mul` and `inv` return Python ints.  Abelian groups built in
invariant-factor form keep their factor list, which is what the character
machinery consumes.

Only `make_from_table` checks the group axioms: a table from outside is the
one input that can fail them.  `make_abelian` and `make_semidirect` reject
bad parameters and then build groups by construction, so they skip the
O(n^3) check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt, is_zero
from .errors import (
    GroupMismatch,
    InvalidAction,
    InvalidParams,
    NotAbelian,
    NotAGroup,
    NotASubgroup,
    OrderMismatch,
)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    table: np.ndarray  # read-only (order, order) np.intp; table[a, b] = a*b
    inverse: np.ndarray  # read-only (order,) np.intp
    descriptor: str
    abelian_factors: tuple[int, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def inv(self, a: int) -> int:
        return self.inverse.item(a)

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def same_as(self, other: "FiniteGroup") -> bool:
        return self is other or np.array_equal(self.table, other.table)


def element_order(G: FiniteGroup, g: int) -> int:
    n, x = 1, g
    while x != 0:
        x = G.mul(x, g)
        n += 1
    return n


def _check_axioms(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
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


def _finish(table: np.ndarray, descriptor: str, factors=None) -> FiniteGroup:
    """Freeze a group's (n, n) np.intp table; all builders end here."""
    inverse = np.nonzero(table == 0)[1]
    table.flags.writeable = inverse.flags.writeable = False
    return FiniteGroup(
        order=len(table),
        table=table,
        inverse=inverse,
        descriptor=descriptor,
        abelian_factors=tuple(factors) if factors is not None else None,
    )


def make_abelian(factors) -> FiniteGroup:
    """Direct product Z_n1 x ... x Z_nk, row-major element indexing."""
    factors = tuple(int(f) for f in factors)
    if not factors or any(f < 1 for f in factors):
        raise InvalidParams(f"abelian factors must be positive, got {factors}")
    n = math.prod(factors)
    table = np.zeros((n, n), dtype=np.intp)
    for c, f in zip(np.unravel_index(np.arange(n), factors), factors):
        table *= f
        table += (c[:, None] + c[None, :]) % f
    desc = "abelian " + ",".join(str(f) for f in factors)
    if len(factors) == 1:
        desc = f"cyclic {factors[0]}"
    return _finish(table, desc, factors=factors)


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


def make_cyclic(n: int) -> FiniteGroup:
    return make_abelian((n,))


def make_semidirect(m: int, k: int, t: int) -> FiniteGroup:
    """Z_m semidirect Z_k with (i,j)(i',j') = (i + t^j i' mod m, j+j' mod k)."""
    if m < 1 or k < 1:
        raise InvalidAction("m and k must be positive")
    if math.gcd(t, m) != 1 or pow(t, k, m) != 1 % m:
        raise InvalidAction(f"action t={t} invalid: need gcd(t,m)=1 and t^k=1 mod m")
    tp = np.array([pow(t, j, m) for j in range(k)], dtype=np.intp)
    i, j = np.divmod(np.arange(m * k), k)  # element i*k + j is (i, j)
    table = (i[:, None] + tp[j][:, None] * i) % m * k + (j[:, None] + j) % k
    return _finish(table, f"semidirect {m},{k},{t}")


def make_from_table(table, descriptor: str = "table -") -> FiniteGroup:
    """Validate an explicit Cayley table; rejected unless the axioms pass."""
    arr = np.array(table, dtype=np.intp)
    _check_axioms(arr)
    return _finish(arr, descriptor)


def parse_cayley_table(text: str) -> list[list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("order"):
        raise NotAGroup("cayley table file must start with 'order n'")
    try:
        n = int(lines[0].split()[1])
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except (IndexError, ValueError):
        raise NotAGroup("cayley table needs 'order n' and rows of integers") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise NotAGroup(f"expected {n} rows of {n} entries")
    return rows


def cyclic_subgroup(G: FiniteGroup, g: int) -> tuple[int, ...]:
    out, x = [0], g
    while x != 0:
        out.append(x)
        x = G.mul(x, g)
    return tuple(sorted(out))


def is_normal(G: FiniteGroup, sub) -> bool:
    """True iff x s x^(-1) lies in sub for every x in G and s in sub."""
    sub = np.asarray(sub, dtype=np.intp)
    T = G.table
    return bool(np.isin(T[T[:, sub], G.inverse[:, None]], sub).all())


def coset_reps(G: FiniteGroup, subgroup) -> list[int]:
    """One representative per right coset H*x, identity first."""
    H = sorted(set(subgroup))
    hs = set(H)
    if 0 not in hs or any(G.mul(a, b) not in hs for a in H for b in H):
        raise NotASubgroup(f"{H} is not a subgroup")
    reps, covered = [], set()
    for x in G.elements():
        if x in covered:
            continue
        reps.append(x)
        covered.update(G.mul(s, x) for s in H)
    assert len(reps) == G.order // len(H)
    return reps


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


@dataclass(frozen=True)
class GroupRingElt:
    """Formal sum over G with CycInt coefficients sharing one root order h."""

    group: FiniteGroup
    h: int
    coeffs: tuple[CycInt, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient count must equal the group order")
        if any(c.h != self.h for c in self.coeffs):
            raise OrderMismatch("all coefficients must share the root order h")

    @classmethod
    def from_exponents(cls, group: FiniteGroup, h: int, exps) -> "GroupRingElt":
        return cls(group, h, tuple(CycInt.root(h, e) for e in exps))

    @classmethod
    def zero(cls, group: FiniteGroup, h: int) -> "GroupRingElt":
        return cls(group, h, (CycInt.zero(h),) * group.order)

    def monomial_exponents(self) -> list[int] | None:
        out = []
        for c in self.coeffs:
            e = c.monomial_exponent()
            if e is None:
                return None
            out.append(e)
        return out


def _check_pair(x: GroupRingElt, y: GroupRingElt) -> None:
    if not x.group.same_as(y.group):
        raise GroupMismatch("operands live over different groups")
    if x.h != y.h:
        raise OrderMismatch(f"root orders differ: {x.h} vs {y.h}")


def gr_add(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _check_pair(x, y)
    return GroupRingElt(x.group, x.h, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def gr_mul(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    _check_pair(x, y)
    G, h = x.group, x.h
    xe, ye = x.monomial_exponents(), y.monomial_exponents()
    if xe is not None and ye is not None:
        # Unimodular fast path: one histogram over (product a*b, exponent) cells.
        xe, ye = np.array(xe), np.array(ye)
        cells = G.table * h + (xe[:, None] + ye) % h
        hists = np.bincount(cells.ravel(), minlength=G.order * h).reshape(G.order, h)
        return GroupRingElt(G, h, tuple(CycInt(h, tuple(hi)) for hi in hists.tolist()))
    out = [CycInt.zero(h) for _ in G.elements()]
    for a, ca in enumerate(x.coeffs):
        if all(v == 0 for v in ca.coeffs):
            continue
        row = G.table[a].tolist()
        for b, cb in enumerate(y.coeffs):
            if all(v == 0 for v in cb.coeffs):
                continue
            g = row[b]
            out[g] = out[g] + ca * cb
    return GroupRingElt(G, h, tuple(out))


def gr_conj_inv(x: GroupRingElt) -> GroupRingElt:
    G = x.group
    out = [CycInt.zero(x.h)] * G.order
    for g, c in enumerate(x.coeffs):
        out[G.inv(g)] = c.conj()
    return GroupRingElt(G, x.h, tuple(out))


def gr_equal(x: GroupRingElt, y: GroupRingElt) -> bool:
    _check_pair(x, y)
    return all(is_zero(a - b) for a, b in zip(x.coeffs, y.coeffs))


def apply_char(table: CharacterTable, row_index: int, X: GroupRingElt) -> CycInt:
    """Character value as a CycInt over lcm(h, H)."""
    row = table.rows[row_index]
    L = math.lcm(X.h, table.H)
    sH = L // table.H
    exps = X.monomial_exponents()
    if exps is not None:
        hist = [0] * L
        sh = L // X.h
        for g, e in enumerate(exps):
            hist[(e * sh + row[g] * sH) % L] += 1
        return CycInt(L, tuple(hist))
    acc = CycInt.zero(L)
    for g, c in enumerate(X.coeffs):
        acc = acc + c.embed(L) * CycInt.root(L, row[g] * sH)
    return acc


def fourier_equal(D: GroupRingElt, E: GroupRingElt) -> bool:
    """Equality test via characters; oracle for coefficientwise equality."""
    _check_pair(D, E)
    table = characters(D.group)
    return all(
        is_zero(apply_char(table, t, D) - apply_char(table, t, E))
        for t in range(D.group.order)
    )
