"""Finite local chain rings: Galois rings and truncated field rings.

Two families are supported:

* galois:    GR(p^n, d) = Z_{p^n}[x]/(f), f monic degree d, irreducible mod p.
             Here pi = p, the chain has length n, and p = pi^1 * unit (m = 1).
* truncated: F_{p^d}[u]/(u^n).  Here pi = u, p = 0 = pi^n * unit (m = n).

Elements are canonical coordinate tuples: galois elements are d coefficients
mod p^n; truncated elements are n coefficients, each itself a degree-<d
coordinate tuple mod p.  All arithmetic is exact.  `elements` lists the
flattened coordinates in row-major order over `additive_factors`, so
`index` is also the element index of make_abelian(additive_factors).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import NotAUnit, UnsupportedRing


def _poly_mod_mul(a, b, modulus, p):
    """Multiply polynomials over Z_p and reduce by the monic modulus."""
    d = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for i in range(d + 1):
                out[k - d + i] = (out[k - d + i] - c * modulus[i]) % p
    out = out[:d] + [0] * max(0, d - len(out))
    return tuple(out)


def _has_root_free_factor(poly, p, degree):
    """True if poly (monic, coeffs mod p) has a monic divisor of given degree."""
    for cand in product(range(p), repeat=degree):
        div = list(cand) + [1]
        rem = list(poly)
        dd = degree
        while len(rem) > dd:
            c = rem.pop()
            if c % p:
                off = len(rem) - dd
                for i in range(dd):
                    rem[off + i] = (rem[off + i] - c * div[i]) % p
        if all(c % p == 0 for c in rem):
            return True
    return False


@lru_cache(maxsize=None)
def irreducible_poly(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic degree-d polynomial irreducible mod p."""
    if d == 1:
        return (0, 1)  # x
    for cand in product(range(p), repeat=d):
        poly = list(cand) + [1]
        if any(_has_root_free_factor(tuple(poly), p, k) for k in range(1, d // 2 + 1)):
            continue
        return tuple(poly)
    raise ValueError(f"no irreducible polynomial of degree {d} mod {p}")


class ChainRing:
    """A finite local chain ring from one of the two supported families."""

    def __init__(self, family: str, p: int, d: int, n: int):
        if family not in ("galois", "truncated"):
            raise UnsupportedRing(f"unknown family {family!r}")
        if p < 2 or d < 1 or n < 1 or not _is_prime(p):
            raise UnsupportedRing(f"bad parameters p={p}, d={d}, n={n}")
        self.family = family
        self.p, self.d, self.n = p, d, n
        self.size = p ** (d * n)
        if family == "galois":
            self.pa = p**n  # coordinate modulus
            self.modulus = irreducible_poly(p, d)
            self.additive_factors = (self.pa,) * d
        else:
            self.field_modulus = irreducible_poly(p, d)
            self.additive_factors = (p,) * (d * n)
        self.elements = self._enumerate()
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = self._make_one()
        self.pi = self._make_pi()
        self._inv_cache: dict = {}
        self._unit_count = self.size - p ** (d * (n - 1))

    # -- representation ------------------------------------------------

    def _enumerate(self):
        if self.family == "galois":
            return [tuple(c) for c in product(range(self.pa), repeat=self.d)]
        coords = [tuple(c) for c in product(range(self.p), repeat=self.d)]
        return [tuple(c) for c in product(coords, repeat=self.n)]

    def _make_one(self):
        if self.family == "galois":
            return (1,) + (0,) * (self.d - 1)
        fone = (1,) + (0,) * (self.d - 1)
        fzero = (0,) * self.d
        return (fone,) + (fzero,) * (self.n - 1)

    def _make_pi(self):
        if self.family == "galois":
            return ((self.p % self.pa),) + (0,) * (self.d - 1)
        fone = (1,) + (0,) * (self.d - 1)
        fzero = (0,) * self.d
        if self.n == 1:
            return (fzero,)  # u = 0 in a plain field
        return (fzero, fone) + (fzero,) * (self.n - 2)

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y):
        if self.family == "galois":
            return tuple((a + b) % self.pa for a, b in zip(x, y))
        return tuple(
            tuple((a + b) % self.p for a, b in zip(cx, cy)) for cx, cy in zip(x, y)
        )

    def neg(self, x):
        if self.family == "galois":
            return tuple((-a) % self.pa for a in x)
        return tuple(tuple((-a) % self.p for a in cx) for cx in x)

    def mul(self, x, y):
        if self.family == "galois":
            return _poly_mod_mul(x, y, self.modulus, self.pa)
        # convolution in u, truncated at u^n; coefficients in F_{p^d}
        fzero = (0,) * self.d
        out = [fzero] * self.n
        for i, cx in enumerate(x):
            if cx == fzero:
                continue
            for j, cy in enumerate(y):
                if i + j >= self.n or cy == fzero:
                    continue
                prod_ = _poly_mod_mul(cx, cy, self.field_modulus, self.p)
                out[i + j] = tuple((a + b) % self.p for a, b in zip(out[i + j], prod_))
        return tuple(out)

    def pow_pi(self, k: int):
        out = self.one
        for _ in range(k):
            out = self.mul(out, self.pi)
        return out

    def is_unit(self, x) -> bool:
        return self.val(x) == 0

    def unit_inverse(self, x):
        if not self.is_unit(x):
            raise NotAUnit(f"{x} is not a unit")
        if x in self._inv_cache:
            return self._inv_cache[x]
        # units form a group of order |R| - |I|, so x^(count-1) inverts x
        inv, base, e = self.one, x, self._unit_count - 1
        while e:
            if e & 1:
                inv = self.mul(inv, base)
            base = self.mul(base, base)
            e >>= 1
        assert self.mul(x, inv) == self.one
        self._inv_cache[x] = inv
        return inv

    # -- chain structure ---------------------------------------------------

    def val(self, x) -> int:
        """pi-adic valuation; val(0) = n by convention."""
        if self.family == "galois":
            if all(a == 0 for a in x):
                return self.n
            return min(_pval(a, self.p) for a in x if a != 0)
        fzero = (0,) * self.d
        for i, c in enumerate(x):
            if c != fzero:
                return i
        return self.n

    def unit_part(self, x):
        """Canonical u with x = pi^val(x) * u, by exact coordinate division."""
        t = self.val(x)
        if t == self.n:
            raise NotAUnit("zero has no unit part")
        if self.family == "galois":
            q = self.p**t
            return tuple(a // q for a in x)
        fzero = (0,) * self.d
        return tuple(x[t:]) + (fzero,) * t

    def phi(self, x):
        """x = pi^k u maps to pi^k u^{-1}; an involution fixing 0."""
        if x == self.zero:
            return self.zero
        k = self.val(x)
        return self.mul(self.pow_pi(k), self.unit_inverse(self.unit_part(x)))

    def ideal_elements(self, t: int):
        """All elements of I^t (t = 0 gives the whole ring)."""
        if not 0 <= t <= self.n:
            raise ValueError(f"t must be in 0..{self.n}")
        return [x for x in self.elements if self.val(x) >= t]

    def coset_transversal_R1(self):
        """Canonical transversal of I containing 0 (lex-minimal coordinates)."""
        if self.family == "galois":
            return [tuple(c) for c in product(range(self.p), repeat=self.d)]
        fzero = (0,) * self.d
        return [
            (tuple(c),) + (fzero,) * (self.n - 1)
            for c in product(range(self.p), repeat=self.d)
        ]

    def coset_chain(self):
        """R_0 = {0} up to R_n = R with R_i = R_1 + pi R_1 + ... + pi^(i-1) R_1."""
        r1 = self.coset_transversal_R1()
        chain = [[self.zero]]
        cur = [self.zero]
        for i in range(self.n):
            step = [self.mul(self.pow_pi(i), s) for s in r1]
            cur = [self.add(x, y) for x in cur for y in step]
            cur = sorted(set(cur), key=self.index.get)
            assert len(cur) == self.p ** (self.d * (i + 1))
            chain.append(cur)
        return chain

    def describe(self) -> str:
        if self.family == "galois":
            return f"GR({self.p}^{self.n}, {self.d})"
        return f"F_{self.p}^{self.d}[u]/(u^{self.n})"


def _pval(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def chain_ring(family: str, p: int, d: int, n: int) -> ChainRing:
    return ChainRing(family, p, d, n)
