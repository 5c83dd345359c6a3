"""The group of a perfect h-phase array, `make_abelian(dims)`: an array is a `Unimodular` over it.

For abelian G = Z_n1 x ... x Z_nk in factor form, a BH(G, h) matrix is
fixed by its first column D, and D read over the factors is a perfect
h-phase array of dims (n_1, ..., n_k): the group's element index is already
row-major over its factors, so the array file (`fileio.format_array`,
`fileio.read_array`) is D's exponent vector `e` in rows of n_k, and the
array is perfect exactly when `verify.verify_group_ring(D)` holds.  Its
autocorrelation at a shift is the conjugate of that shift's coefficient in
D D^(-1); the autocorrelation of one shift, the oracle, is in
`tests/oracles.py`.  An array has at most `MAX_AXES` axes, numpy's limit,
and more raise `InvalidParams`; no order is refused.
"""

from __future__ import annotations

from .errors import InvalidParams
from .groups import FiniteGroup, make_abelian

# numpy 2 holds at most 64 axes; an exported array has one per invariant factor
MAX_AXES = 64


def array_group(dims: tuple[int, ...]) -> FiniteGroup:
    """`make_abelian(dims)`, if an array may have dims: at most MAX_AXES axes, each of length at least 1."""
    if len(dims) > MAX_AXES:
        raise InvalidParams(f"an array has at most {MAX_AXES} axes (numpy's limit), got {len(dims)}")
    if min(dims) < 1:
        raise InvalidParams(f"every dimension must be positive, got dims={dims}")
    return make_abelian(dims)
