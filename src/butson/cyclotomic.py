"""Exact arithmetic in Z[zeta_h].

Values are integer coefficient vectors over the powers zeta_h^0..zeta_h^(h-1),
kept unreduced; reduction modulo the h-th cyclotomic polynomial happens only
inside the zero tests.  Coefficients are Python ints.  The library's one sum
of roots is `sums.SumWitness.value`, which counts exponents instead of adding
roots; `check` subtracts its target root, and `is_zero` reduces the difference
by exact polynomial division.  Products of `CycInt`s are test oracles, in
`tests/oracles.py`.

The batched test `zero_rows` reduces a whole (N, h) coefficient array at once
as `hist @ reduction_matrix(h)`, whose row j holds x^j mod Phi_h.  It runs in
int64 only when max_row sum|c_j| * max|Rm| < 2^62, which bounds every partial
sum of the product, and otherwise in Python ints, so it is exact either way.
numpy is imported by the three functions that build or reduce arrays, so
`CycInt` and `is_zero` load without it.  `is_zero` and `cyclotomic_poly`
divide with the helpers in `poly`, which also factors h for phi(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import OrderMismatch, SelfCheckFailed
from .poly import _poly_divmod_monic, _poly_mul, prime_divisors

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_h]: value = sum_j coeffs[j] * zeta_h^j."""

    h: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"root order must be positive, got {self.h}")
        if len(self.coeffs) != self.h:
            raise ValueError(
                f"need exactly {self.h} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def root(cls, h: int, e: int) -> "CycInt":
        """zeta_h^e, the exponent taken mod h."""
        c = [0] * h
        c[e % h] = 1
        return cls(h, tuple(c))

    def _check(self, other: "CycInt") -> None:
        if self.h != other.h:
            raise OrderMismatch(f"orders differ: {self.h} vs {other.h}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.h, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.h, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.h, tuple(-a for a in self.coeffs))

    def monomial_exponent(self) -> int | None:
        """If the value is written as a single root of unity, its exponent."""
        found = None
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if a != 1 or found is not None:
                return None
            found = j
        return found


def _totient(h: int) -> int:
    for p in prime_divisors(h):
        h -= h // p
    return h


@lru_cache(maxsize=None)
def cyclotomic_poly(h: int) -> tuple[int, ...]:
    """Phi_h = (x^h - 1) / prod of Phi_d over proper divisors d, exactly."""
    if h < 1:
        raise ValueError("h must be positive")
    num = [0] * (h + 1)
    num[0], num[h] = -1, 1
    den = [1]
    for d in range(1, h):
        if h % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r = _poly_divmod_monic(num, den)
    if r or len(q) - 1 != _totient(h):
        raise SelfCheckFailed(f"x^{h} - 1 over Phi_d, d a proper divisor, is not exact of degree phi({h})")
    return tuple(q)


def is_zero(x: CycInt) -> bool:
    phi = list(cyclotomic_poly(x.h))
    return not _poly_divmod_monic(list(x.coeffs), phi)[1]


_INT64_SAFE = 2**62


@lru_cache(maxsize=None)
def reduction_matrix(h: int) -> np.ndarray:
    """Read-only (h, phi(h)) integer array; row j holds x^j mod Phi_h.

    Distinct roots zeta_h^j have distinct rows, and a coefficient vector c is
    zero in Z[zeta_h] exactly when c @ reduction_matrix(h) is.
    """
    import numpy as np

    phi = cyclotomic_poly(h)
    d = len(phi) - 1
    low = [(i, c) for i, c in enumerate(phi[:-1]) if c]  # x^d = -sum c x^i
    row = [1] + [0] * (d - 1)
    rows = [row]
    # every entry is either shifted from the row before or just updated, so
    # the largest magnitude is the largest of the updated entries (or 1)
    big = False
    for _ in range(1, h):
        top, row = row[-1], [0] + row[:-1]
        if top:
            for i, c in low:
                row[i] -= top * c
            big = big or max(abs(row[i]) for i, _ in low) >= _INT64_SAFE
        rows.append(row)
    Rm = np.array(rows, dtype=object if big else np.int64)
    Rm.setflags(write=False)
    return Rm


def _max_row_l1(a: np.ndarray) -> int:
    """max over rows of sum |a_ij|, exactly, as a Python int."""
    import numpy as np

    if a.size == 0:
        return 0
    if a.dtype != object:
        lo, hi = int(a.min()), int(a.max())
        if max(hi, -lo) * a.shape[1] < 2**63:  # the row sums fit in int64
            return int((a if lo >= 0 else np.abs(a)).sum(axis=1).max())
    return int(np.abs(a.astype(object)).sum(axis=1).max())


def _reduce_exact(hist: np.ndarray, Rm: np.ndarray) -> np.ndarray:
    return hist.astype(object) @ Rm.astype(object)


def reduce_rows(hist) -> np.ndarray:
    """Each row of an (N, h) integer coefficient array reduced mod Phi_h.

    Row i of the (N, phi(h)) result is zero iff sum_j hist[i, j] zeta_h^j is.
    """
    import numpy as np

    hist = np.asarray(hist)
    Rm = reduction_matrix(hist.shape[1])
    if _max_row_l1(hist) * int(np.abs(Rm).max()) < _INT64_SAFE:
        return hist.astype(np.int64, copy=False) @ Rm
    return _reduce_exact(hist, Rm)


def zero_rows(hist) -> np.ndarray:
    """One bool per row of an (N, h) coefficient array: is that value zero?"""
    return ~(reduce_rows(hist) != 0).any(axis=1)
