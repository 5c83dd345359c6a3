"""Materialization and exact verification of Butson Hadamard matrices.

`BhMatrix` holds one read-only (n, n) int64 array `E` mod h, which
`materialize`, `fileio` and the verifiers share without a copy.
`materialize` and `verify_group_ring` read the exponent vector `e` of a
`groups.Unimodular` directly; a `GroupRingElt` enters through
`as_unimodular`.  Every exact check gathers its own rows, counts their
exponent differences with `groups.difference_histograms` in batches of
bounded size, and zero-tests the (N, h) counts exactly with
`cyclotomic.zero_rows`.

`correlation_defects` tests D D^(-1) = |G|.  It serves `verify_group_ring`
and `verify_bh` on a matrix found G-invariant by one gather: there
<row 0, row g> is the conjugate of the coefficient of g in D D^(-1), with D
the matrix's column 0.  Non-invariant input, or `full`, gets every row pair;
that route, `verify_by_characters` and `gr_mul` are the oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cyclotomic import equals_integer, is_zero, norm_sq, zero_rows
from .errors import NonUnimodular
from .groups import (
    CHUNK_CELLS,
    CharacterTable,
    FiniteGroup,
    GroupRingElt,
    Unimodular,
    apply_char,
    as_unimodular,
    characters,
    difference_histograms,
    gr_conj_inv,
    gr_mul,
    unimodular_products,
)


@dataclass(frozen=True, eq=False)
class BhMatrix:
    """Entry (g, k) is zeta_h^E[g, k]; E is read-only int64 mod h, like a table."""

    h: int
    group: FiniteGroup
    E: np.ndarray

    def __post_init__(self) -> None:
        E = np.asarray(self.E, dtype=np.int64) % self.h
        E.flags.writeable = False
        object.__setattr__(self, "E", E)

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """E as tuples of ints, kept only for bench/workloads.py and tests that compare tuples."""
        return tuple(map(tuple, self.E.tolist()))

    def with_entry(self, row: int, col: int, e: int) -> "BhMatrix":
        E = self.E.copy()
        E[row, col] = e % self.h
        return BhMatrix(self.h, self.group, E)


@dataclass(frozen=True)
class VerifyReport:
    is_bh: bool
    is_invariant: bool
    first_failure: tuple | None
    timing_ms: float
    pairs_checked: int = 0  # row-pair zero-tests run

    @property
    def ok(self) -> bool:
        return self.is_bh and self.is_invariant


def materialize(G: FiniteGroup, D: Unimodular | GroupRingElt) -> BhMatrix:
    """Exponent matrix E[g][k] = exponent of the coefficient of g k^(-1)."""
    U = as_unimodular(D)
    if U is None:
        raise NonUnimodular("all coefficients must be single roots of unity")
    return BhMatrix(U.h, G, U.e[G.table[:, G.inverse]])


def _pair_blocks(E: np.ndarray, h: int):
    """Zero flags of <row a, row b> for all b > a.

    Yields (a, b0, ok) with ok[i] for the pair (a, b0 + i), in the order of
    itertools.combinations, in chunks of at most about CHUNK_CELLS cells.
    """
    n = len(E)
    step = max(1, CHUNK_CELLS // n)
    for a in range(n):
        for b0 in range(a + 1, n, step):
            yield a, b0, zero_rows(difference_histograms(E[a][None], E[b0 : b0 + step], h)[0])


def correlation_defects(G: FiniteGroup, h: int, e: np.ndarray) -> np.ndarray:
    """The g, ascending, whose coefficient in D D^(-1) - |G| is nonzero, for D = sum zeta_h^e[g] g."""
    hist = unimodular_products(G, h, e, e[None])[0]
    hist[0, 0] -= G.order
    return np.flatnonzero(~zero_rows(hist))


def invariance_witness(M: BhMatrix) -> tuple[int, int, int] | None:
    """None if M is G-invariant, else (g, k, l) with E[g l][k l] != E[g][k]."""
    # invariant iff E[g][k] == E[g k^(-1)][0] for all g, k
    G = M.group
    bad = np.argwhere(M.E[:, 0][G.table[:, G.inverse]] != M.E)
    if len(bad) == 0:
        return None
    g, k = int(bad[0][0]), int(bad[0][1])
    return g, k, G.inv(k)


def verify_bh(M: BhMatrix, full: bool = False) -> VerifyReport:
    """Check G-invariance and the row inner products exactly.

    An invariant matrix needs only the n-1 row pairs (0, g).  A matrix that is
    not invariant, or any matrix when `full` is set, gets every row pair (the
    all-pairs oracle), without stopping at the first failure if `full` is set.
    Only the first failure is reported.
    """
    start = time.perf_counter()
    n, h = M.group.order, M.h
    first_failure = None

    witness = invariance_witness(M)
    is_invariant = witness is None
    if not is_invariant:
        first_failure = ("invariance",) + witness

    if is_invariant and not full:
        # <row 0, row g> is the conjugate of the coefficient of g in D D^(-1),
        # where D is column 0 (copied: gathering from it is then 3x faster)
        ok = np.ones(n - 1, dtype=bool)
        ok[correlation_defects(M.group, h, M.E[:, 0].copy()) - 1] = False
        blocks = [(0, 1, ok)]
    else:
        blocks = _pair_blocks(M.E, h)
    is_bh = True
    checked = 0
    for a, b0, ok in blocks:
        bad = np.flatnonzero(~ok)
        if len(bad) == 0:
            checked += len(ok)
            continue
        is_bh = False
        if first_failure is None:
            first_failure = ("rows", a, b0 + int(bad[0]))
        if not full:
            checked += int(bad[0]) + 1
            break
        checked += len(ok)

    ms = (time.perf_counter() - start) * 1000.0
    return VerifyReport(is_bh, is_invariant, first_failure, ms, checked)


def verify_group_ring(D: Unimodular | GroupRingElt) -> bool:
    """Exact check of D D^(-1) = |G| in the group ring.

    A unimodular D goes through `correlation_defects`; any other D through
    the generic `gr_mul`.
    """
    U = as_unimodular(D)
    if U is not None:
        return len(correlation_defects(U.group, U.h, U.e)) == 0
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
