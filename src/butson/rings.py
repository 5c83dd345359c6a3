"""Finite local chain rings: Galois rings and truncated field rings.

Two families are supported:

* galois:    GR(p^n, d) = Z_{p^n}[x]/(f), f monic degree d, irreducible mod p.
             Here pi = p, the chain has length n, and p = pi^1 * unit (m = 1).
* truncated: F_{p^d}[u]/(u^n).  Here pi = u, p = 0 = pi^n * unit (m = n).

Both families are free Z_q-modules, and every element is one flat tuple of
`len(additive_factors)` coordinates mod q: galois elements are the d
coefficients of a polynomial in x, with q = p^n; truncated elements are the
n coefficients of a polynomial in u, each a block of d coordinates of an
element of F_{p^d}, one block after the other, with q = p.  All arithmetic
is exact.  `elements` lists the tuples in row-major order over
`additive_factors`, so `index` is also the element index of
make_abelian(additive_factors).

Multiplication is bilinear over Z_q, so c^3 structure constants fix it
(c = len(additive_factors)): coordinates x^i u^a and x^j u^b multiply to
(x^(i+j) mod (f, q)) u^(a+b), or to 0 once a + b reaches the block count (1
for galois, n for truncated).  `mul_table`, the (|R|, |R|) table of product
indices built from those constants, is the one multiplication that `mul`,
`unit_inverse` and constructions 2 and 3 read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product

from .poly import _poly_divmod_monic
from .errors import NotAUnit, SelfCheckFailed, UnsupportedRing, _check_fits, _physical_memory


def _has_root_free_factor(poly, p, degree):
    """True if poly (monic, coeffs mod p) has a monic divisor of given degree."""
    # division by a monic divisor commutes with reduction mod p
    return any(
        all(c % p == 0 for c in _poly_divmod_monic(list(poly), list(cand) + [1])[1])
        for cand in product(range(p), repeat=degree)
    )


@lru_cache(maxsize=None)
def irreducible_poly(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic degree-d polynomial irreducible mod p."""
    if d == 1:
        return (0, 1)  # x
    for cand in product(range(p), repeat=d):
        poly = cand + (1,)
        if not any(_has_root_free_factor(poly, p, k) for k in range(1, d // 2 + 1)):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {d} mod {p}")


class ChainRing:
    """A finite local chain ring from one of the two supported families."""

    def __init__(self, family: str, p: int, d: int, n: int):
        if family not in ("galois", "truncated"):
            raise UnsupportedRing(f"unknown family {family!r}")
        if p < 2 or d < 1 or n < 1:
            raise UnsupportedRing(f"bad parameters p={p}, d={d}, n={n}")
        # refuse a ring too large to list before enumerating it: each element
        # is a tuple of at most d*n entries plus an index entry, under
        # 8*d*n + 160 bytes; d*n >= 64 alone means |R| >= 2^64, and p^(d*n)
        # is never formed for such an exponent
        phys = _physical_memory()
        if d * n >= 64 or (phys is not None and p ** (d * n) * (8 * d * n + 160) > phys):
            raise UnsupportedRing(
                f"{family} ring p={p}, d={d}, n={n} has {p}^{d * n} elements: too many to list in physical memory"
            )
        if not _is_prime(p):
            raise UnsupportedRing(f"bad parameters p={p}, d={d}, n={n}")
        self.family = family
        self.p, self.d, self.n = p, d, n
        self.size = p ** (d * n)
        self.modulus = irreducible_poly(p, d)
        if family == "galois":
            self.q = p**n  # coordinate modulus
            self.additive_factors = (self.q,) * d
            self.pi = (p % self.q,) + (0,) * (d - 1)
        else:
            self.q = p
            self.additive_factors = (p,) * (d * n)
            self.pi = ((0,) * d + (1,) + (0,) * (d * n))[: d * n]  # u, or 0 when n = 1
        self.elements = list(product(range(self.q), repeat=len(self.additive_factors)))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = (1,) + self.zero[1:]

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y):
        return tuple((a + b) % self.q for a, b in zip(x, y))

    @cached_property
    def mul_table(self):
        """Read-only (|R|, |R|) array of the index of elements[i] * elements[j]."""
        import numpy as np

        _check_fits(self.size, f"the product table of {self.describe()}")
        d, q, c = self.d, self.q, len(self.additive_factors)
        # x^k mod (f, q) for k < 2d - 1: the products of two coordinates of a block
        powers = np.zeros((2 * d - 1, d), dtype=np.int64)
        for k in range(2 * d - 1):
            rem = _poly_divmod_monic([0] * k + [1], list(self.modulus))[1]
            powers[k, : len(rem)] = rem
        block = powers[np.add.outer(range(d), range(d))] % q  # x^i x^j
        # C[a, b, k]: coordinate k of e_a e_b, e_a the a-th unit coordinate vector;
        # the blocks a // d and b // d (powers of u) convolve, cut off at the last block
        C = np.zeros((c, c, c), dtype=np.int64)
        for i, j in product(range(0, c, d), repeat=2):
            if i + j < c:
                C[i : i + d, j : j + d, i + j : i + j + d] = block
        X = np.array(self.elements, dtype=np.int64)
        table = np.zeros((self.size, self.size), dtype=np.intp)
        for k in range(c):  # row-major index: one coordinate of every product at a time
            coord = (X @ C[:, :, k] % q) @ X.T
            coord %= q
            table *= q
            table += coord
        table.flags.writeable = False
        return table

    def mul(self, x, y):
        return self.elements[self.mul_table.item(self.index[x], self.index[y])]

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
        hits = (self.mul_table[self.index[x]] == self.index[self.one]).nonzero()[0]
        if len(hits) != 1:
            raise SelfCheckFailed(f"{x} has {len(hits)} inverses in {self.describe()}")
        return self.elements[hits[0]]

    # -- chain structure ---------------------------------------------------

    def val(self, x) -> int:
        """pi-adic valuation; val(0) = n by convention."""
        if not any(x):
            return self.n
        if self.family == "galois":
            return min(_pval(a, self.p) for a in x if a != 0)
        return next(i for i, a in enumerate(x) if a) // self.d

    def unit_part(self, x):
        """Canonical u with x = pi^val(x) * u, by exact coordinate division."""
        t = self.val(x)
        if t == self.n:
            raise NotAUnit("zero has no unit part")
        if self.family == "galois":
            q = self.p**t
            return tuple(a // q for a in x)
        return x[t * self.d:] + self.zero[: t * self.d]

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
        """Canonical transversal of I containing 0: the first d coordinates run over 0..p-1."""
        rest = self.zero[self.d:]
        return [c + rest for c in product(range(self.p), repeat=self.d)]

    def coset_chain(self):
        """R_0 = {0} up to R_n = R with R_i = R_1 + pi R_1 + ... + pi^(i-1) R_1."""
        r1 = self.coset_transversal_R1()
        chain = [[self.zero]]
        cur = [self.zero]
        for i in range(self.n):
            step = [self.mul(self.pow_pi(i), s) for s in r1]
            cur = [self.add(x, y) for x in cur for y in step]
            cur = sorted(set(cur), key=self.index.get)
            if len(cur) != self.p ** (self.d * (i + 1)):
                raise SelfCheckFailed(f"level {i + 1} of the coset chain of {self.describe()} has {len(cur)} elements")
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
