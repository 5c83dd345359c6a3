"""Finite local chain rings: Galois rings and truncated field rings.

Two families are supported:

* galois:    GR(p^n, d) = Z_{p^n}[x]/(f), f monic degree d, irreducible mod p.
             Here pi = p, the chain has length n, and p = pi^1 * unit (m = 1).
* truncated: F_{p^d}[u]/(u^n).  Here pi = u, p = 0 = pi^n * unit (m = n).

An element of R is its index 0..|R|-1, 0 the zero, and all ring arithmetic
reads two read-only (|R|, |R|) index tables, `add_table` and `mul_table`.
An index numbers the flat coordinate tuples mod q in row-major order over
`additive_factors`, so `add_table` is the factor-form table of
make_abelian(additive_factors), and `elements` lists the tuples only for
`mul_table` and R_1 of the coset chain.  Galois elements are the d
coefficients of a polynomial in x, with q = p^n; truncated elements are the
n coefficients of a polynomial in u, each a block of d coordinates of an
element of F_{p^d}, the u^0 block first, with q = p.  `elements` and the
modulus f are computed when a table or the coset chain first needs them, so
a ring's parameters, which `ring-info` prints, cost nothing in |R|.

Multiplication is bilinear over Z_q, so c^3 structure constants fix it
(c = len(additive_factors)): coordinates x^i u^a and x^j u^b multiply to
(x^(i+j) mod (f, q)) u^(a+b), or to 0 once a + b reaches the block count (1
for galois, n for truncated).

In a chain ring I^t = pi^t R, so row pi^t of `mul_table` is I^t: `val` and
`phi` (pi^t u -> pi^t u^(-1)) are index arrays filled from those rows.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product

from .poly import _poly_divmod_monic, prime_divisors
from .errors import SelfCheckFailed, UnsupportedRing, _check_fits, _physical_memory


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
        # is a tuple of at most d*n entries, under 8*d*n + 160 bytes with its
        # list slot; d*n >= 64 alone means |R| >= 2^64, and p^(d*n) is never
        # formed for such an exponent
        phys = _physical_memory()
        if d * n >= 64 or (phys is not None and p ** (d * n) * (8 * d * n + 160) > phys):
            raise UnsupportedRing(
                f"{family} ring p={p}, d={d}, n={n} has {p}^{d * n} elements: too many to list in physical memory"
            )
        if prime_divisors(p) != (p,):
            raise UnsupportedRing(f"bad parameters p={p}, d={d}, n={n}")
        self.family = family
        self.p, self.d, self.n = p, d, n
        self.size = p ** (d * n)
        if family == "galois":
            self.q = p**n  # coordinate modulus
            self.additive_factors = (self.q,) * d
            pi = (p % self.q,) + (0,) * (d - 1)
        else:
            self.q = p
            self.additive_factors = (p,) * (d * n)
            pi = ((0,) * d + (1,) + (0,) * (d * n))[: d * n]  # u, or 0 when n = 1
        self.one = self.size // self.q  # (1, 0, ..., 0)
        self.pi = sum(a * self.q**k for k, a in enumerate(reversed(pi)))

    # -- elements ----------------------------------------------------------

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        """The monic degree-d polynomial mod p of the residue field, lowest coefficient first."""
        return irreducible_poly(self.p, self.d)

    @cached_property
    def elements(self) -> list[tuple[int, ...]]:
        """The coordinate tuples mod q in row-major order: elements[i] is the element of index i."""
        return list(product(range(self.q), repeat=len(self.additive_factors)))

    # -- arithmetic ------------------------------------------------------

    @cached_property
    def add_table(self):
        """Read-only (|R|, |R|) array of the index of elements[i] + elements[j]: the rows of Z_q^c in factor form."""
        import numpy as np

        from .groups import _frozen, _sum_rows

        _check_fits(self.size, f"the sum table of {self.describe()}")
        return _frozen(_sum_rows(self.additive_factors, np.arange(self.size)))

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

    # -- chain structure ---------------------------------------------------

    @cached_property
    def pi_powers(self) -> list[int]:
        """The indices of pi^0, ..., pi^n."""
        powers = [self.one]
        for _ in range(self.n):
            powers.append(self.mul_table.item(powers[-1], self.pi))
        return powers

    @cached_property
    def val(self):
        """Read-only (|R|,) pi-adic valuation of each element; val[0] = n."""
        import numpy as np

        val = np.zeros(self.size, dtype=np.intp)
        for t in range(1, self.n + 1):  # row pi^t is I^t, which holds I^(t+1)
            val[self.mul_table[self.pi_powers[t]]] = t
        val.flags.writeable = False
        return val

    @cached_property
    def phi(self):
        """Read-only (|R|,) index of pi^t u^(-1) for each pi^t u, u a unit; an involution fixing 0.

        It is well defined: pi^t u = pi^t u' implies pi^t u^(-1) = pi^t u'^(-1).
        """
        import numpy as np

        T = self.mul_table
        units = np.flatnonzero(self.val == 0)
        hits = T[units] == self.one
        if (hits.sum(axis=1) != 1).any():
            raise SelfCheckFailed(f"a unit of {self.describe()} has no single inverse in its product table row")
        inverse = hits.argmax(axis=1)
        phi = np.zeros(self.size, dtype=np.intp)
        for t in range(self.n):  # pi^t times the units is the set of valuation t
            row = T[self.pi_powers[t]]
            phi[row[units]] = row[inverse]
        phi.flags.writeable = False
        return phi

    def ideal_elements(self, t: int):
        """The indices of I^t, ascending (t = 0 gives the whole ring): row pi^t of the product table."""
        if not 0 <= t <= self.n:
            raise ValueError(f"t must be in 0..{self.n}")
        return _distinct(self.mul_table[self.pi_powers[t]])

    def coset_chain(self) -> list:
        """R_0 = {0} up to R_n = R, R_(i+1) = R_i + pi^i R_1, each an ascending index array.

        R_1, a transversal of I containing 0, holds the elements whose first
        d coordinates run over 0..p-1 and whose others are 0.
        """
        import numpy as np

        X = np.array(self.elements, dtype=np.int64)
        r1 = np.flatnonzero((X[:, : self.d] < self.p).all(axis=1) & (X[:, self.d :] == 0).all(axis=1))
        A, T = self.add_table, self.mul_table
        chain = [np.zeros(1, dtype=np.intp)]
        for i in range(self.n):
            level = _distinct(A[chain[-1]][:, T[self.pi_powers[i], r1]])
            if len(level) != self.p ** (self.d * (i + 1)):
                raise SelfCheckFailed(f"level {i + 1} of the coset chain of {self.describe()} "
                                      f"has {len(level)} elements")
            chain.append(level)
        return chain

    def describe(self) -> str:
        if self.family == "galois":
            return f"GR({self.p}^{self.n}, {self.d})"
        return f"F_{self.p}^{self.d}[u]/(u^{self.n})"


def _distinct(a):
    """The distinct entries of an index array, ascending (np.unique would load numpy.ma)."""
    import numpy as np

    return np.flatnonzero(np.bincount(a.ravel()))


def chain_ring(family: str, p: int, d: int, n: int) -> ChainRing:
    return ChainRing(family, p, d, n)
