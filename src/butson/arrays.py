"""Perfect h-phase arrays and their exact cyclic autocorrelation.

An abelian-group BH element with factors (n_1, ..., n_k) is stored directly
as a k-dimensional exponent tensor: `PerfectArray.E` is the `Unimodular`'s
vector `e`, read-only int64 mod h, reshaped to (n_1, ..., n_k).  The array
is perfect exactly when the group-ring element verifies, and both
directions are testable here.  An array has at most `MAX_AXES` axes, numpy's
limit, and more raise `InvalidParams`.
`verify_perfect` gathers a batch of shifted copies at a time and zero-tests
their `groups.difference_histograms` against the array with
`cyclotomic.zero_rows`; `autocorrelation` computes one shift and is the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclotomic import CycInt, zero_rows
from .errors import InvalidParams, NonUnimodular, NotAbelianFactored
from .groups import CHUNK_CELLS, GroupRingElt, Unimodular, as_unimodular, difference_histograms

# numpy 2 holds at most 64 axes; an exported array has one per invariant factor
MAX_AXES = 64


@dataclass(frozen=True, eq=False)
class PerfectArray:
    """Entry x is zeta_h^E[x]; E is read-only int64 mod h, shaped dims."""

    dims: tuple[int, ...]
    h: int
    E: np.ndarray

    def __post_init__(self) -> None:
        if len(self.dims) > MAX_AXES:
            raise InvalidParams(f"an array has at most {MAX_AXES} axes (numpy's limit), got {len(self.dims)}")
        E = (np.asarray(self.E, dtype=np.int64) % self.h).reshape(self.dims)
        E.flags.writeable = False
        object.__setattr__(self, "E", E)

    def with_entry(self, flat_index: int, e: int) -> "PerfectArray":
        E = self.E.ravel().copy()
        E[flat_index] = e % self.h
        return PerfectArray(self.dims, self.h, E)


def to_array(D: Unimodular | GroupRingElt) -> PerfectArray:
    """Array entry at the coordinates of g = exponent of the coefficient of g."""
    if D.group.abelian_factors is None:
        raise NotAbelianFactored("array export needs an abelian group in factor form")
    U = as_unimodular(D)
    if U is None:
        raise NonUnimodular("all coefficients must be single roots of unity")
    # the group's element index is already row-major over its factors
    return PerfectArray(U.group.abelian_factors, U.h, U.e)


def autocorrelation(A: PerfectArray, shift) -> CycInt:
    """Exact cyclic autocorrelation sum a_i * conj(a_{i+shift}) as a CycInt."""
    shift = tuple(int(s) % d for s, d in zip(shift, A.dims))
    t = A.E
    shifted = np.roll(t, tuple(-s for s in shift), axis=tuple(range(len(A.dims))))
    hist = np.bincount(((t - shifted) % A.h).ravel(), minlength=A.h)
    return CycInt(A.h, tuple(int(c) for c in hist))


def verify_perfect(A: PerfectArray) -> bool:
    """True iff every nonzero cyclic shift has exactly zero autocorrelation."""
    h = A.h
    flat = A.E.reshape(-1)
    size = len(flat)
    # wrap[s, x] is the row-major offset of coordinate (s + x) mod d along an
    # axis: a (d, d) sliding window over 2d - 1 entries, so no table is stored
    wraps = [
        sliding_window_view(np.tile(np.arange(d) * math.prod(A.dims[ax + 1 :]), 2)[:-1], d)
        for ax, d in enumerate(A.dims)
    ]
    step = max(1, CHUNK_CELLS // max(size, 1))
    # a shift is a position too: its row-major index runs over 1..size-1
    for s0 in range(1, size, step):
        shifts = np.unravel_index(np.arange(s0, min(s0 + step, size)), A.dims)
        # the index of x + shift for every x, one axis at a time as an outer sum
        idx = wraps[0][shifts[0]]
        for wrap, s in zip(wraps[1:], shifts[1:]):
            idx = (idx[:, :, None] + wrap[s][:, None, :]).reshape(len(s), -1)
        # each row is the conjugate of the autocorrelation at its shift
        if not zero_rows(difference_histograms(flat[idx], flat[None], h)[:, 0]).all():
            return False
    return True
