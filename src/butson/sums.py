"""Vanishing sums and unit sums of h-th roots of unity.

A sum of h-th roots of unity of length L vanishes only if L lies in the
numerical semigroup generated by the prime divisors of h; conversely such an
L always admits a sum built from full prime cycles.  Witnesses returned here
are deterministic and verified exactly before being handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cyclotomic import CycInt, is_zero
from .errors import InvalidParams, NoDecomposition, NoSolution, SelfCheckFailed

_SEARCH_CAP = 10**7
_SEARCH_MAX_LEN = 6


@dataclass(frozen=True)
class SemigroupCert:
    """Witness that L = sum(multipliers[i] * primes[i])."""

    L: int
    primes: tuple[int, ...]
    multipliers: tuple[int, ...]


@dataclass(frozen=True)
class SumWitness:
    """Exponents of order-h roots whose sum equals zeta_h^target (or 0)."""

    h: int
    exps: tuple[int, ...]
    target: int | None  # None means the sum vanishes

    def value(self) -> CycInt:
        acc = CycInt.zero(self.h)
        for e in self.exps:
            acc = acc + CycInt.root(self.h, e)
        return acc

    def check(self) -> bool:
        v = self.value()
        if self.target is None:
            return is_zero(v)
        return is_zero(v - CycInt.root(self.h, self.target))


def _checked(w: SumWitness) -> SumWitness:
    """w itself, once its sum holds exactly; survives python -O."""
    if not w.check():
        raise SelfCheckFailed(f"roots {w.exps} of order {w.h} miss their target {w.target}")
    return w


def prime_divisors(h: int) -> tuple[int, ...]:
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


def semigroup_member(L: int, primes) -> SemigroupCert | None:
    """Nonnegative multipliers with sum(a_i * p_i) = L, or None."""
    primes = tuple(sorted(primes))
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    if L < 0:
        return None
    # reachable[l] = smallest prime usable as the last step to reach l
    reachable: list[int | None] = [None] * (L + 1)
    reachable[0] = 0
    for l in range(1, L + 1):
        for p in primes:
            if l >= p and reachable[l - p] is not None:
                reachable[l] = p
                break
    if reachable[L] is None:
        return None
    mult = {p: 0 for p in primes}
    l = L
    while l > 0:
        p = reachable[l]
        mult[p] += 1
        l -= p
    return SemigroupCert(L, primes, tuple(mult[p] for p in primes))


def zero_sum(L: int, h: int) -> SumWitness:
    """L order-h roots summing to zero, built from full prime cycles."""
    if L < 1 or h < 1:
        raise InvalidParams(f"need L >= 1 and h >= 1, got L={L}, h={h}")
    primes = prime_divisors(h)
    cert = semigroup_member(L, primes)
    if cert is None:
        raise NoDecomposition(f"{L} is not in the semigroup generated by {primes}")
    exps: list[int] = []
    for p, a in zip(cert.primes, cert.multipliers):
        cycle = [j * h // p for j in range(p)]
        exps.extend(cycle * a)
    return _checked(SumWitness(h, tuple(exps), None))


def unit_sum(L: int, h: int, target: int) -> SumWitness:
    """L order-h roots summing to zeta_h^target."""
    if L < 1 or h < 1:
        raise InvalidParams(f"need L >= 1 and h >= 1, got L={L}, h={h}")
    target %= h
    if L == 1:
        return SumWitness(h, (target,), target)
    try:
        zs = zero_sum(L - 1, h)
        return _checked(SumWitness(h, (target,) + zs.exps, target))
    except NoDecomposition:
        pass
    if h % 6 == 0:
        # zeta_6 + zeta_6^5 = 1 covers L = 2; longer sums append zero cycles.
        exps = [(target + h // 6) % h, (target + 5 * h // 6) % h]
        rest = L - 2
        if rest > 0:
            try:
                exps.extend(zero_sum(rest, h).exps)
            except NoDecomposition:
                exps = None
        if exps is not None:
            return _checked(SumWitness(h, tuple(exps), target))
    if L <= _SEARCH_MAX_LEN and h**L <= _SEARCH_CAP:
        goal = CycInt.root(h, target)
        for combo in combinations_with_replacement(range(h), L):
            acc = CycInt.zero(h)
            for e in combo:
                acc = acc + CycInt.root(h, e)
            if is_zero(acc - goal):
                return SumWitness(h, combo, target)
    raise NoSolution(f"no sum of {L} order-{h} roots equal to zeta^{target} found")
