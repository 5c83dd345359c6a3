"""Perfect h-phase arrays and their exact cyclic autocorrelation.

An abelian-group BH element with factors (n_1, ..., n_k) is stored directly
as a k-dimensional exponent tensor; the array is perfect exactly when the
group-ring element verifies, and both directions are testable here.
`verify_perfect` gathers a batch of shifted copies at a time and zero-tests
their `groups.difference_histograms` against the array with
`cyclotomic.zero_rows`; `autocorrelation` computes one shift and is the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt, zero_rows
from .errors import NonUnimodular, NotAbelianFactored
from .groups import CHUNK_CELLS, GroupRingElt, difference_histograms


@dataclass(frozen=True)
class PerfectArray:
    dims: tuple[int, ...]
    h: int
    exponents: tuple[int, ...]  # row-major over dims

    def __post_init__(self) -> None:
        if len(self.exponents) != math.prod(self.dims):
            raise ValueError("exponent count must match the dimensions")
        object.__setattr__(self, "exponents", tuple(e % self.h for e in self.exponents))

    def tensor(self) -> np.ndarray:
        return np.array(self.exponents, dtype=np.int64).reshape(self.dims)

    def with_entry(self, flat_index: int, e: int) -> "PerfectArray":
        exps = list(self.exponents)
        exps[flat_index] = e
        return PerfectArray(self.dims, self.h, tuple(exps))


def to_array(D: GroupRingElt) -> PerfectArray:
    """Array entry at the coordinates of g = exponent of the coefficient of g."""
    if D.group.abelian_factors is None:
        raise NotAbelianFactored("array export needs an abelian group in factor form")
    exps = D.monomial_exponents()
    if exps is None:
        raise NonUnimodular("all coefficients must be single roots of unity")
    # the group's element index is already row-major over its factors
    return PerfectArray(D.group.abelian_factors, D.h, tuple(exps))


def autocorrelation(A: PerfectArray, shift) -> CycInt:
    """Exact cyclic autocorrelation sum a_i * conj(a_{i+shift}) as a CycInt."""
    shift = tuple(int(s) % d for s, d in zip(shift, A.dims))
    t = A.tensor()
    shifted = np.roll(t, tuple(-s for s in shift), axis=tuple(range(len(A.dims))))
    hist = np.bincount(((t - shifted) % A.h).ravel(), minlength=A.h)
    return CycInt(A.h, tuple(int(c) for c in hist))


def verify_perfect(A: PerfectArray) -> bool:
    """True iff every nonzero cyclic shift has exactly zero autocorrelation."""
    h = A.h
    flat = np.array(A.exponents, dtype=np.int64)
    size = len(flat)
    coords = np.indices(A.dims).reshape(len(A.dims), size)
    step = max(1, CHUNK_CELLS // max(size, 1))
    # a shift is a position too: its row-major index runs over 1..size-1
    for s0 in range(1, size, step):
        shifts = coords[:, s0 : s0 + step]
        idx = np.zeros((shifts.shape[1], size), dtype=np.intp)
        for ax, d in enumerate(A.dims):
            idx *= d
            idx += (shifts[ax][:, None] + coords[ax]) % d
        # each row is the conjugate of the autocorrelation at its shift
        if not zero_rows(difference_histograms(flat[idx], flat[None], h)[:, 0]).all():
            return False
    return True
