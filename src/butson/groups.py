"""Finite groups and the unimodular elements of their group rings over Z[zeta_h].

Groups use a dense element encoding 0..order-1 with 0 the identity.  The
Cayley table is one read-only (order, order) numpy array of np.intp, with
table[a, b] = a*b, and the inverses one read-only (order,) array.

`FiniteGroup.rows(r)` is table[r] for a slice or an index array r.  Only a
group built from a table stores one.  Abelian groups in factor form and
`semidirect` groups compute their rows from their parameters, and their
`inverse` in closed form.  They build `table` only when asked for it, which
construction 1, `materialize`, the invariance check and the exact checks
never do.  `mul` and `inv` return Python ints.

`row_slices` cuts an array into row blocks of about `BLOCK_CELLS` cells, the
unit in which matrices are filled, checked and written.

A group-ring element with one h-th root of unity per element, which is what
every construction builds, is a `Unimodular`: one read-only (order,)
exponent vector `e` mod h of dtype `exponent_dtype(h)`, like `BhMatrix.E`
and `PerfectArray.E`, passed from constructor to array file with no
conversion.  It is the one element type of the library.  `GroupRingElt`, a
tuple of `CycInt` coefficients, is kept for the benchmark's checker, and
`as_unimodular` converts it; the group-ring arithmetic and the characters
that read it are test oracles, in `tests/oracles.py`.

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
from functools import cached_property

import numpy as np

from .cyclotomic import CycInt
from .errors import (
    InvalidAction,
    InvalidParams,
    NotAGroup,
    OrderMismatch,
    _check_fits,
)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    descriptor: str
    abelian_factors: tuple[int, ...] | None = None
    action: tuple[int, int, int] | None = None  # (m, k, t) of a semidirect group, else None
    stored: np.ndarray | None = None  # the table of a group built from one, else None

    def rows(self, r: slice | np.ndarray) -> np.ndarray:
        """table[r] for a slice or an index array r, computed unless the group stores its table."""
        if self.stored is not None:
            return self.stored[r]
        r = np.arange(self.order)[r]
        if self.abelian_factors is not None:
            return _sum_rows(self.abelian_factors, r)
        return _semidirect_rows(*self.action, r)

    @cached_property
    def table(self) -> np.ndarray:  # read-only (order, order) np.intp; table[a, b] = a*b
        return self.stored if self.stored is not None else _frozen(self.rows(slice(None)))

    @cached_property
    def inverse(self) -> np.ndarray:  # read-only (order,) np.intp
        r = np.arange(self.order)
        if self.abelian_factors is not None:
            return _frozen(_negated(self.abelian_factors, r))
        if self.action is not None:
            m, k, t = self.action
            i, j = np.divmod(r, k)  # (i, j)^(-1) = (-t^(k-j) i mod m, -j mod k)
            return _frozen(-_powers(t, k, m)[-j % k] * i % m * k + -j % k)
        return _frozen(np.nonzero(self.stored == 0)[1])

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def inv(self, a: int) -> int:
        return self.inverse.item(a)

    def elements(self) -> range:
        return range(self.order)


def _sum_rows(factors: tuple[int, ...], r: np.ndarray) -> np.ndarray:
    """Rows r of the table of Z_f1 x ... x Z_fk, as one Kronecker step of its two halves."""
    if len(factors) == 1:
        return (r[:, None] + np.arange(factors[0])) % factors[0]
    half = len(factors) // 2
    low = math.prod(factors[half:])
    # element a*low + x is the pair (a, x); halves keep numpy's innermost loop long
    block = _sum_rows(factors[:half], r // low)[:, :, None] * low + _sum_rows(factors[half:], r % low)[:, None, :]
    return block.reshape(len(r), math.prod(factors))


def _negated(factors: tuple[int, ...], r: np.ndarray) -> np.ndarray:
    """The inverses of elements r of Z_f1 x ... x Z_fk, split in halves like `_sum_rows`."""
    if len(factors) == 1:
        return -r % factors[0]
    half = len(factors) // 2
    low = math.prod(factors[half:])
    return _negated(factors[:half], r // low) * low + _negated(factors[half:], r % low)


def _powers(t: int, k: int, m: int) -> np.ndarray:
    """t^0, ..., t^(k-1) mod m."""
    return np.array([pow(t, j, m) for j in range(k)], dtype=np.intp)


def _semidirect_rows(m: int, k: int, t: int, r: np.ndarray) -> np.ndarray:
    """Rows r of the table of Z_m x| Z_k, element i*k + j the pair (i, j).

    (i, j)(i', j') = (i + t^j i' mod m, j + j' mod k): each row is an (m,)
    part times k plus a (k,) part, added by broadcasting as in `_sum_rows`.
    """
    i, j = np.divmod(r, k)
    high = (i[:, None] + _powers(t, k, m)[j][:, None] * np.arange(m)) % m * k
    low = (j[:, None] + np.arange(k)) % k
    return (high[:, :, None] + low[:, None, :]).reshape(len(r), m * k)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def _finish(table: np.ndarray, descriptor: str) -> FiniteGroup:
    """A group kept as its (n, n) np.intp table, the one that make_from_table validated."""
    return FiniteGroup(len(table), descriptor, stored=_frozen(table))


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
    return FiniteGroup(order, desc, factors)


def make_cyclic(n: int) -> FiniteGroup:
    return make_abelian((n,))


def make_semidirect(m: int, k: int, t: int) -> FiniteGroup:
    """Z_m semidirect Z_k with (i,j)(i',j') = (i + t^j i' mod m, j+j' mod k)."""
    if m < 1 or k < 1:
        raise InvalidAction("m and k must be positive")
    if math.gcd(t, m) != 1 or pow(t, k, m) != 1 % m:
        raise InvalidAction(f"action t={t} invalid: need gcd(t,m)=1 and t^k=1 mod m")
    _check_fits(m * k, f"the Cayley table of semidirect {m},{k},{t} (order {m * k})")
    return FiniteGroup(m * k, f"semidirect {m},{k},{t}", action=(m, k, t))


def make_from_table(table, descriptor: str = "table -") -> FiniteGroup:
    """Validate an explicit Cayley table; rejected unless the axioms pass."""
    try:
        arr = np.array(table, dtype=np.intp)
    except OverflowError:
        raise NotAGroup("table entries out of range") from None
    _check_axioms(arr)
    return _finish(arr, descriptor)


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


def exponent_dtype(h: int) -> np.dtype:
    """The narrowest unsigned type that holds 0..h-1: the dtype of every exponent array."""
    return np.min_scalar_type(h - 1)


def _exponents(a, h: int) -> np.ndarray:
    """a if read-only, of exponent_dtype(h) and in 0..h-1; else a mod h in a new such array."""
    if isinstance(a, np.ndarray) and a.dtype == exponent_dtype(h) and not a.flags.writeable and (
            not a.size or a.max() < h):
        return a
    return _frozen((np.asarray(a, dtype=np.int64) % h).astype(exponent_dtype(h)))


@dataclass(frozen=True, eq=False)
class Unimodular:
    """D = sum_g zeta_h^e[g] g; e is read-only (order,) exponent_dtype(h) mod h, like BhMatrix.E."""

    group: FiniteGroup
    h: int
    e: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", _frozen(_exponents(self.e, self.h).reshape(self.group.order)))


def as_unimodular(D: "Unimodular | GroupRingElt") -> Unimodular | None:
    """D itself if Unimodular; a GroupRingElt of single roots converted; else None."""
    if isinstance(D, Unimodular):
        return D
    exps = D.monomial_exponents()
    return None if exps is None else Unimodular(D.group, D.h, exps)


# cells gathered per batch by the difference histograms; bounds their memory
CHUNK_CELLS = 1 << 20
# cells per row block of a matrix filled, checked or written; the histogram
# batches keep CHUNK_CELLS, as 2^18 made verify-array 30 % slower at order 6561
BLOCK_CELLS = 1 << 16


def row_slices(rows: int, cols: int) -> list[slice]:
    """Consecutive row ranges of a (rows, cols) array, about BLOCK_CELLS cells each."""
    step = max(1, BLOCK_CELLS // cols)
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def difference_histograms(X: np.ndarray, Y: np.ndarray, h: int) -> np.ndarray:
    """Counts [i, j, t] of the b with X[i, b] - Y[j, b] = t (mod h), entries in 0..h-1.

    Entry [i, j] read as sum_t [i, j, t] zeta_h^t is the inner product of
    zeta_h^X[i] with zeta_h^Y[j]; every exact check histograms through here.
    """
    p, q = len(X), len(Y)
    # X - Y + h lies in 1..2h-1, and bins t and t + h hold the same power of
    # zeta_h: folding them spares a modulo of every cell; int64 cells promote unsigned X and Y
    cells = (np.arange(p * q) * 2 * h + h).reshape(p, q, 1) - Y
    cells += X[:, None]
    hist = np.bincount(cells.ravel(), minlength=p * q * 2 * h).reshape(p, q, 2 * h)
    return hist[..., :h] + hist[..., h:]
