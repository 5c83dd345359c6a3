"""Finite groups, their characters, and group rings over Z[zeta_h].

Groups use a dense element encoding 0..order-1 with 0 the identity.  The
Cayley table is one read-only (order, order) numpy array of np.intp, with
table[a, b] = a*b, and the inverses one read-only (order,) array; builders
fill the table with broadcast expressions, and consumers (materialize, the
invariance check, the unimodular product histograms, normality) gather
through it as a whole.  `mul` and `inv` return Python ints.  Abelian groups built in
invariant-factor form keep their factor list, which is what the character
machinery consumes.

A group-ring element with one h-th root of unity per element, which is what
every construction builds, is a `Unimodular`: one read-only (order,) int64
exponent vector `e` mod h, passed from constructor to array file with no
conversion.  `GroupRingElt`, a tuple of `CycInt` coefficients, serves the
oracles (`gr_mul`, `apply_char`); `as_unimodular` is the one conversion
between the two, and `Unimodular.coeffs` is the oracles' view of `e`.

Only `make_from_table` checks the group axioms: a table from outside is the
one input that can fail them.  Associativity takes O(n^2 log n) by Light's
test: the s with (x*y)*s = x*(y*s) for all x, y are closed under products,
so checking greedily chosen generators, at most log2(n) of them and one n^2
gather each, covers the group.  `make_abelian` and `make_semidirect` reject
bad parameters, and orders whose table would not fit in physical memory
(`TooLarge`, from `errors._check_fits`, which also bounds a root order h
by its h x h reduction matrix and lives in `errors` so that `rings` and
`sums` need not import this module), and then build groups by
construction, so they skip the check.
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
    _check_fits,
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


def _check_axioms(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.shape != (n, n) or not table.size or table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries out of range")
    # entries fit the narrowest unsigned type, which keeps every n^2 temporary small
    small = table.astype(np.min_scalar_type(n - 1))
    ident = np.arange(n)
    if not (np.array_equal(small[0], ident) and np.array_equal(small[:, 0], ident)):
        raise NotAGroup("element 0 is not a two-sided identity")
    if (np.sort(small, axis=1) != ident).any() or (np.sort(small, axis=0).T != ident).any():
        raise NotAGroup("table rows/columns are not permutations")
    # Light's test: the s with (x*y)*s == x*(y*s) for all x, y are closed under
    # products, so checking generators suffices.  The generators that pass lie in
    # that set, itself a group, so each new one at least doubles their closure:
    # there are at most n.bit_length() gathers, also for a table that fails.
    closure = np.zeros(n, dtype=bool)
    closure[0] = True
    gens: list[int] = []
    while not closure.all():
        s = int(closure.argmin())  # the smallest element outside the closure
        col = small[:, s]
        if not np.array_equal(col[table], small[:, col]):
            raise NotAGroup("multiplication is not associative")
        gens.append(s)
        # left-nested products: the closure times s, then each new element times every generator
        new = table[closure, s]
        while len(new):
            fresh = np.zeros(n, dtype=bool)
            fresh[new] = True
            fresh[closure] = False
            closure |= fresh
            new = table[np.ix_(np.flatnonzero(fresh), gens)].ravel()
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
    desc = "abelian " + ",".join(str(f) for f in factors)
    if len(factors) == 1:
        desc = f"cyclic {factors[0]}"
    order = math.prod(factors)
    _check_fits(order, f"the Cayley table of {desc} (order {order})")
    # Kronecker steps: element a*f + x of (G so far) x Z_f is the pair (a, x)
    table = np.zeros((1, 1), dtype=np.intp)
    for f in factors:
        m, c = len(table), np.arange(f, dtype=np.intp)
        table = (table[:, None, :, None] * f + ((c[:, None] + c) % f)[:, None, :]).reshape(m * f, m * f)
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
    _check_fits(m * k, f"the Cayley table of semidirect {m},{k},{t} (order {m * k})")
    tp = np.array([pow(t, j, m) for j in range(k)], dtype=np.intp)
    i, j = np.divmod(np.arange(m * k), k)  # element i*k + j is (i, j)
    table = (i[:, None] + tp[j][:, None] * i) % m * k + (j[:, None] + j) % k
    return _finish(table, f"semidirect {m},{k},{t}")


def make_from_table(table, descriptor: str = "table -") -> FiniteGroup:
    """Validate an explicit Cayley table; rejected unless the axioms pass."""
    try:
        arr = np.array(table, dtype=np.intp)
    except OverflowError:
        raise NotAGroup("table entries out of range") from None
    _check_axioms(arr)
    return _finish(arr, descriptor)


def cyclic_subgroup(G: FiniteGroup, g: int) -> tuple[int, ...]:
    """The powers 1, g, g^2, ... of g, in that order."""
    out, x = [0], g
    while x != 0:
        out.append(x)
        x = G.mul(x, g)
    return tuple(out)


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

    def monomial_exponents(self) -> list[int] | None:
        out = [c.monomial_exponent() for c in self.coeffs]
        return None if None in out else out


@dataclass(frozen=True, eq=False)
class Unimodular:
    """D = sum_g zeta_h^e[g] g; e is read-only (order,) int64 mod h, like BhMatrix.E."""

    group: FiniteGroup
    h: int
    e: np.ndarray

    def __post_init__(self) -> None:
        e = (np.asarray(self.e, dtype=np.int64) % self.h).reshape(self.group.order)
        e.flags.writeable = False
        object.__setattr__(self, "e", e)

    @property
    def coeffs(self) -> tuple[CycInt, ...]:
        """The coefficients as CycInts, for the oracles that read a GroupRingElt."""
        return tuple(CycInt.root(self.h, e) for e in self.e.tolist())


def as_unimodular(D: "Unimodular | GroupRingElt") -> Unimodular | None:
    """D itself if Unimodular; a GroupRingElt of single roots converted; else None."""
    if isinstance(D, Unimodular):
        return D
    exps = D.monomial_exponents()
    return None if exps is None else Unimodular(D.group, D.h, exps)


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


# cells gathered per batch by the difference histograms; bounds their memory
CHUNK_CELLS = 1 << 20


def difference_histograms(X: np.ndarray, Y: np.ndarray, h: int) -> np.ndarray:
    """Counts [i, j, t] of the b with X[i, b] - Y[j, b] = t (mod h), entries in 0..h-1.

    Entry [i, j] read as sum_t [i, j, t] zeta_h^t is the inner product of
    zeta_h^X[i] with zeta_h^Y[j]; every exact check histograms through here.
    """
    p, q = len(X), len(Y)
    # X - Y + h lies in 1..2h-1, and bins t and t + h hold the same power of
    # zeta_h: folding them spares a modulo of every cell
    cells = (np.arange(p * q) * 2 * h + h).reshape(p, q, 1) - Y
    cells += X[:, None]
    hist = np.bincount(cells.ravel(), minlength=p * q * 2 * h).reshape(p, q, 2 * h)
    return hist[..., :h] + hist[..., h:]


def unimodular_products(G: FiniteGroup, h: int, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Coefficient histograms of x * y^(-1) for each row y of Y, all unimodular.

    x is an (n,) vector and Y an (m, n) array of exponents in 0..h-1.  Entry
    [j, g, t] of the (m, n, h) result counts the b with x[g b] - Y[j, b] = t
    (mod h): the coefficient of g in x * y_j^(-1) is sum_t [j, g, t] zeta_h^t.
    The rows x[table[g]] are histogrammed in chunks of about CHUNK_CELLS cells.
    """
    n, m = G.order, len(Y)
    hist = np.empty((m, n, h), dtype=np.int64)
    step = max(1, CHUNK_CELLS // (m * n))
    for g0 in range(0, n, step):
        hist[:, g0 : g0 + step] = difference_histograms(x[G.table[g0 : g0 + step]], Y, h).swapaxes(0, 1)
    return hist


def gr_conj_inv(x: GroupRingElt) -> GroupRingElt:
    G = x.group
    out = [CycInt.zero(x.h)] * G.order
    for g, c in enumerate(x.coeffs):
        out[G.inv(g)] = c.conj()
    return GroupRingElt(G, x.h, tuple(out))


def gr_equal(x: GroupRingElt, y: GroupRingElt) -> bool:
    _check_pair(x, y)
    return all(is_zero(a - b) for a, b in zip(x.coeffs, y.coeffs))


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
