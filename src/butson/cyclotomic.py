"""Exact arithmetic in Z[zeta_h].

Values are integer coefficient vectors over the powers zeta_h^0..zeta_h^(h-1),
kept unreduced; reduction modulo the h-th cyclotomic polynomial happens only
inside the zero/integer tests.  Coefficients are arbitrary-precision Python
ints, so overflow is impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotOdd, OrderMismatch


@dataclass(frozen=True)
class RootExp:
    """A single root of unity zeta_h^e, stored with 0 <= e < h."""

    h: int
    e: int

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"root order must be positive, got {self.h}")
        object.__setattr__(self, "e", self.e % self.h)


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
    def from_root(cls, r: RootExp) -> "CycInt":
        c = [0] * r.h
        c[r.e] = 1
        return cls(r.h, tuple(c))

    @classmethod
    def root(cls, h: int, e: int) -> "CycInt":
        return cls.from_root(RootExp(h, e))

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


def equals_integer(x: CycInt, n: int) -> bool:
    return is_zero(x - CycInt.integer(x.h, n))


def cyc_equal(x: CycInt, y: CycInt) -> bool:
    return is_zero(x - y)


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
