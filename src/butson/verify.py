"""Materialization and exact verification of Butson Hadamard matrices.

Three independent routes are exposed: row inner products on the materialized
`BhMatrix` (one read-only (n, n) int64 array `E` mod h, which `materialize`,
`fileio` and the verifiers share without a copy), the group-ring product
D D^(-1) = |G|, and (for abelian groups) character norms.  The first two
histogram exponent differences in batches of bounded size into (N, h)
integer arrays, one row per inner product or group-ring coefficient, and
zero-test each batch with one `cyclotomic.zero_rows` call (an exact
reduction mod Phi_h as a matrix product, in int64 only under a checked bound).

`verify_bh` first checks G-invariance with one gather against column 0.  An
invariant matrix has <row a, row b> = <row 0, row b a^(-1)>, so only the n-1
products <row 0, row g> are zero-tested; the all-pairs route runs only for
non-invariant input or when `full` is set, and serves as the oracle.
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
    apply_char,
    characters,
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


def materialize(G: FiniteGroup, D: GroupRingElt) -> BhMatrix:
    """Exponent matrix E[g][k] = exponent of the coefficient of g k^(-1)."""
    exps = D.monomial_exponents()
    if exps is None:
        raise NonUnimodular("all coefficients must be single roots of unity")
    return BhMatrix(D.h, G, np.array(exps)[G.table[:, G.inverse]])


def _pair_blocks(E: np.ndarray, h: int, firsts):
    """Zero flags of <row a, row b> for b > a, per first row a in `firsts`.

    Yields (a, b0, ok) with ok[i] for the pair (a, b0 + i), in the order of
    itertools.combinations, in chunks of at most about CHUNK_CELLS cells.
    """
    n = len(E)
    step = max(1, CHUNK_CELLS // n)
    # E[a] - E[b] + h lies in 1..2h-1, and bins t and t + h hold the same
    # power of zeta_h: folding them spares a modulo of every cell
    offsets = (np.arange(step) * 2 * h + h)[:, None]
    for a in firsts:
        for b0 in range(a + 1, n, step):
            rows = E[b0 : b0 + step]
            cells = np.subtract(offsets[: len(rows)], rows)
            cells += E[a]
            hist = np.bincount(cells.ravel(), minlength=len(rows) * 2 * h)
            del cells
            hist = hist.reshape(len(rows), 2 * h)
            hist[:, :h] += hist[:, h:]
            yield a, b0, zero_rows(hist[:, :h])


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

    firsts = [0] if is_invariant and not full else range(n)
    is_bh = True
    checked = 0
    for a, b0, ok in _pair_blocks(M.E, h, firsts):
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


def verify_group_ring(D: GroupRingElt) -> bool:
    """Exact check of D D^(-1) = |G| in the group ring.

    A unimodular D is checked through its (n, h) coefficient histogram with
    |G| taken off the identity's constant term; any other D goes through the
    generic `gr_mul`.
    """
    exps = D.monomial_exponents()
    if exps is not None:
        e = np.array(exps, dtype=np.int64)
        hist = unimodular_products(D.group, D.h, e, e[None])[0]
        hist[0, 0] -= D.group.order
        return bool(zero_rows(hist).all())
    prod = gr_mul(D, gr_conj_inv(D))
    if not equals_integer(prod.coeffs[0], D.group.order):
        return False
    return all(is_zero(c) for c in prod.coeffs[1:])


def verify_by_characters(D: GroupRingElt, table: CharacterTable | None = None) -> bool:
    """Abelian oracle: |chi(D)|^2 = |G| for every character chi."""
    if table is None:
        table = characters(D.group)
    n = D.group.order
    return all(
        equals_integer(norm_sq(apply_char(table, t, D)), n) for t in range(n)
    )
