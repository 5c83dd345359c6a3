"""Perfect h-phase arrays and their exact cyclic autocorrelation.

An abelian-group BH element with factors (n_1, ..., n_k) is stored directly
as a k-dimensional exponent tensor: `PerfectArray.E` is the `Unimodular`'s
vector `e`, read-only mod h in `groups.exponent_dtype(h)`, reshaped to
(n_1, ..., n_k).  The array is perfect exactly when the group-ring element
verifies, and both directions are testable here.  An array has at most
`MAX_AXES` axes, numpy's limit, and more raise `InvalidParams`.
`verify_perfect` is `verify.verify_group_ring` over the group of `dims` in
factor form, which computes its products and builds no Cayley table.  The
autocorrelation of one shift, the oracle, is in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotAbelianFactored
from .groups import FiniteGroup, Unimodular, _exponents, _frozen
from .verify import verify_group_ring

# numpy 2 holds at most 64 axes; an exported array has one per invariant factor
MAX_AXES = 64


def check_dims(dims: tuple[int, ...]) -> tuple[int, ...]:
    """dims, if an array may have them: at most MAX_AXES axes, each of length at least 1."""
    if len(dims) > MAX_AXES:
        raise InvalidParams(f"an array has at most {MAX_AXES} axes (numpy's limit), got {len(dims)}")
    if min(dims) < 1:
        raise InvalidParams(f"every dimension must be positive, got dims={dims}")
    return dims


@dataclass(frozen=True, eq=False)
class PerfectArray:
    """Entry x is zeta_h^E[x]; E is read-only exponent_dtype(h) mod h, shaped dims."""

    dims: tuple[int, ...]
    h: int
    E: np.ndarray

    def __post_init__(self) -> None:
        check_dims(self.dims)
        object.__setattr__(self, "E", _frozen(_exponents(self.E, self.h).reshape(self.dims)))

    def with_entry(self, flat_index: int, e: int) -> "PerfectArray":
        E = self.E.ravel().copy()
        E[flat_index] = int(e) % self.h  # a narrow numpy e % h raises when h does not fit e's dtype
        return PerfectArray(self.dims, self.h, E)


def to_array(D: Unimodular) -> PerfectArray:
    """Array entry at the coordinates of g = exponent of the coefficient of g."""
    if D.group.abelian_factors is None:
        raise NotAbelianFactored("array export needs an abelian group in factor form")
    # the group's element index is already row-major over its factors
    return PerfectArray(D.group.abelian_factors, D.h, D.e)


def verify_perfect(A: PerfectArray) -> bool:
    """True iff every nonzero cyclic shift has exactly zero autocorrelation."""
    # the autocorrelation at a shift is the conjugate of that shift's coefficient in D D^(-1)
    G = FiniteGroup(A.E.size, "abelian " + ",".join(map(str, A.dims)), A.dims)
    return verify_group_ring(Unimodular(G, A.h, A.E))
