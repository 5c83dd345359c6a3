"""Integer and polynomial helpers: the prime divisors of an integer, and
polynomials with integer coefficients, as lists of ints, lowest degree first.

`prime_divisors`, the one factorizer, serves `sums`, `cyclotomic` (phi(h))
and `rings` (is p prime).  `cyclotomic` divides by cyclotomic polynomials
with the polynomial helpers and `rings` by candidate factors of its moduli.
All live apart from `cyclotomic` so that `rings`, and with it `ring-info`,
loads neither `cyclotomic` nor `dataclasses`.
"""

from __future__ import annotations

from .errors import SelfCheckFailed


def prime_divisors(h: int) -> tuple[int, ...]:
    """The distinct primes dividing h, ascending, by trial division; () for h = 1."""
    out, m, p = [], h, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


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
    if not d or d[-1] != 1:
        raise SelfCheckFailed(f"the divisor {d!r} is not monic")
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
