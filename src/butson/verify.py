"""Materialization and exact verification of Butson Hadamard matrices.

`BhMatrix` holds one read-only (n, n) array `E` mod h of dtype
`groups.exponent_dtype(h)`, which `materialize`, `fileio` and the verifiers
share without a copy.  It keeps an array already of that dtype, read-only
and in 0..h-1, as `materialize` and `read_matrix` hand it one, and reduces
anything else into an array of its own, so a caller's array is never
frozen.  `materialize` fills E in the dtype of the element's `e`, and
`invariance_witness` checks it, in row blocks (`groups.row_slices`), each
gathered from `FiniteGroup.rows` and `inverse`: no Cayley table and no
temporary of E's size.
`materialize` and `verify_group_ring` take a `groups.Unimodular`, or a
`GroupRingElt` that `as_unimodular` converts (else `NonUnimodular`).  Every
exact check gathers its own rows, counts their exponent differences with
`groups.difference_histograms` in batches of bounded size, and zero-tests
the (N, h) counts exactly with `cyclotomic.zero_rows`.

`correlation_defects`, the one exact check of D D^(-1) = |G|, runs on
batches of `FiniteGroup.rows` up to the first defect.  It serves
`verify_group_ring`, `arrays.verify_perfect` and `verify_bh` on a matrix
found G-invariant by one gather: there <row 0, row g> is the conjugate of
the coefficient of g in D D^(-1), with D the matrix's column 0.
Non-invariant input, or `full`, gets every row pair, the oracle the CLI
offers; the other oracles are in `tests/oracles.py`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cyclotomic import zero_rows
from .errors import NonUnimodular
from .groups import (CHUNK_CELLS, FiniteGroup, GroupRingElt, Unimodular, _exponents, _frozen, as_unimodular,
                     difference_histograms, row_slices)


@dataclass(frozen=True, eq=False)
class BhMatrix:
    """Entry (g, k) is zeta_h^E[g, k]; E is read-only exponent_dtype(h) mod h, like a table."""

    h: int
    group: FiniteGroup
    E: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "E", _exponents(self.E, self.h))

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """E as tuples of ints, one row at a time, kept only for bench/workloads.py and tests that compare tuples."""
        return tuple(tuple(row.tolist()) for row in self.E)


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
    E = np.empty((G.order, G.order), dtype=U.e.dtype)
    for block in row_slices(G.order, G.order):  # cell (g, k) of a block is e[g k^(-1)]
        E[block] = U.e[G.rows(block)[:, G.inverse]]
    return BhMatrix(U.h, G, _frozen(E))


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
    """The g, ascending, whose coefficient in D D^(-1) - |G| is nonzero, for D = sum zeta_h^e[g] g.

    Rows g >= 1 (g = 0 gives |G|) go in batches of about CHUNK_CELLS cells, up to the first with a defect.
    """
    n = G.order
    step = max(1, CHUNK_CELLS // n)
    for g0 in range(1, n, step):
        hist = difference_histograms(e[G.rows(slice(g0, g0 + step))], e[None], h)[:, 0]
        bad = np.flatnonzero(~zero_rows(hist))
        if len(bad):
            return g0 + bad
    return np.zeros(0, dtype=np.intp)


def invariance_witness(M: BhMatrix) -> tuple[int, int, int] | None:
    """None if M is G-invariant, else (g, k, l) with E[g l][k l] != E[g][k]."""
    # invariant iff E[g][k] == E[g k^(-1)][0] for all g, k; blocks go in row-major order
    G, col0 = M.group, M.E[:, 0].copy()
    for block in row_slices(G.order, G.order):
        bad = np.argwhere(col0[G.rows(block)[:, G.inverse]] != M.E[block])
        if len(bad):
            g, k = block.start + int(bad[0][0]), int(bad[0][1])
            return g, k, G.inv(k)
    return None


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
    """Exact check of D D^(-1) = |G| in the group ring, by `correlation_defects`."""
    U = as_unimodular(D)
    if U is None:
        raise NonUnimodular("all coefficients must be single roots of unity")
    return len(correlation_defects(U.group, U.h, U.e)) == 0
