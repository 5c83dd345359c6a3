"""Exact arithmetic in Z[zeta_h].

Values are integer coefficient vectors over the powers zeta_h^0..zeta_h^(h-1),
kept unreduced; reduction modulo the h-th cyclotomic polynomial happens only
inside the zero/integer tests.  `CycInt` coefficients are arbitrary-precision
Python ints, and `is_zero` reduces one value by exact polynomial division.

The batched test `zero_rows` reduces a whole (N, h) coefficient array at once
as `hist @ reduction_matrix(h)`, whose row j holds x^j mod Phi_h.  It runs in
int64 only when max_row sum|c_j| * max|Rm| < 2^62, which bounds every partial
sum of the product, and otherwise in Python ints, so it is exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotOdd, OrderMismatch


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
    def zero(cls, h: int) -> "CycInt":
        return cls(h, (0,) * h)

    @classmethod
    def integer(cls, h: int, n: int) -> "CycInt":
        return cls(h, (n,) + (0,) * (h - 1))

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

    def __mul__(self, other: "CycInt") -> "CycInt":
        # Index convolution mod h (zeta_h^h = 1); no Phi_h reduction here.
        self._check(other)
        h = self.h
        out = [0] * h
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = i + j
                out[k - h if k >= h else k] += a * b
        return CycInt(h, tuple(out))

    def conj(self) -> "CycInt":
        h = self.h
        out = [0] * h
        for j, a in enumerate(self.coeffs):
            out[(h - j) % h] = a
        return CycInt(h, tuple(out))

    def embed(self, new_h: int) -> "CycInt":
        """Re-express in Z[zeta_new_h]; requires h | new_h."""
        if new_h % self.h != 0:
            raise OrderMismatch(f"{self.h} does not divide {new_h}")
        s = new_h // self.h
        out = [0] * new_h
        for j, a in enumerate(self.coeffs):
            out[j * s] = a
        return CycInt(new_h, tuple(out))

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


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_monic(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by the monic polynomial d, exact over Z."""
    assert d and d[-1] == 1
    r = list(p)
    dd = len(d) - 1
    q = [0] * max(len(r) - dd, 0)
    while len(r) > dd:
        c = r.pop()
        if c == 0:
            continue
        off = len(r) - dd
        q[off] = c
        for i in range(dd):
            r[off + i] -= c * d[i]
    return _poly_trim(q), _poly_trim(r)


def _totient(h: int) -> int:
    result, m, p = h, h, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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
    assert not r and len(q) - 1 == _totient(h)
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
    hist = np.asarray(hist)
    Rm = reduction_matrix(hist.shape[1])
    if _max_row_l1(hist) * int(np.abs(Rm).max()) < _INT64_SAFE:
        return hist.astype(np.int64, copy=False) @ Rm
    return _reduce_exact(hist, Rm)


def zero_rows(hist) -> np.ndarray:
    """One bool per row of an (N, h) coefficient array: is that value zero?"""
    return ~(reduce_rows(hist) != 0).any(axis=1)


def equals_integer(x: CycInt, n: int) -> bool:
    return is_zero(x - CycInt.integer(x.h, n))


def norm_sq(x: CycInt) -> CycInt:
    return x * x.conj()


def gauss_sum(n: int, b: int, variant: str) -> CycInt:
    """Quadratic Gauss-type sums with square norm n (variant 'a') or 2n ('b')."""
    if n < 1 or n % 2 == 0:
        raise NotOdd(f"n must be odd and positive, got {n}")
    if variant == "a":
        out = [0] * n
        for i in range(n):
            out[(i * i + b * i) % n] += 1
        return CycInt(n, tuple(out))
    if variant == "b":
        h = 4 * n
        out = [0] * h
        for i in range(2 * n):
            out[(i * i + 2 * b * i) % h] += 1
        return CycInt(h, tuple(out))
    raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
