"""Vanishing and unit sums of roots of unity against exhaustive oracles."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butson.cyclotomic import CycInt, is_zero
from butson.errors import InvalidParams, NoDecomposition, NoSolution, SelfCheckFailed
from butson.sums import SumWitness, prime_divisors, semigroup_member, unit_sum, zero_sum


def reachable_lengths(primes, limit):
    """Exhaustive oracle for membership in p1*N + ... + pr*N."""
    seen = {0}
    for L in range(1, limit + 1):
        if any(L - p in seen for p in primes if L >= p):
            seen.add(L)
    return seen


def test_prime_divisors():
    assert prime_divisors(1) == ()
    assert prime_divisors(2) == (2,)
    assert prime_divisors(12) == (2, 3)
    assert prime_divisors(30) == (2, 3, 5)


@pytest.mark.parametrize("primes", [(2,), (3,), (2, 3), (2, 5), (3, 5)])
def test_semigroup_member_matches_exhaustive(primes):
    oracle = reachable_lengths(primes, 30)
    for L in range(31):
        cert = semigroup_member(L, primes)
        assert (cert is not None) == (L in oracle)
        if cert is not None:
            assert sum(p * m for p, m in zip(cert.primes, cert.multipliers)) == L


def test_frobenius_style_bound():
    # beyond (p1-1)*(p2-1) every length is representable over two primes
    for p1, p2 in [(2, 3), (2, 5), (3, 5), (3, 7), (5, 7)]:
        bound = (p1 - 1) * (p2 - 1)
        for L in range(bound, 51):
            assert semigroup_member(L, (p1, p2)) is not None


@pytest.mark.parametrize("h", [2, 3, 4, 6, 10, 12, 30])
def test_zero_sum_iff_semigroup(h):
    primes = prime_divisors(h)
    oracle = reachable_lengths(primes, 30)
    for L in range(1, 31):
        if L in oracle:
            w = zero_sum(L, h)
            assert len(w.exps) == L and w.h == h and w.target is None
            assert is_zero(w.value())
            assert w.check()
        else:
            with pytest.raises(NoDecomposition):
                zero_sum(L, h)


def test_zero_sum_is_deterministic():
    assert zero_sum(5, 6).exps == zero_sum(5, 6).exps


def unit_sum_feasible_brute(L, h, target):
    root = CycInt.root(h, target)
    for exps in itertools.product(range(h), repeat=L):
        acc = CycInt.zero(h)
        for e in exps:
            acc = acc + CycInt.root(h, e)
        if is_zero(acc - root):
            return True
    return False


@pytest.mark.parametrize("h", [2, 3, 4, 6])
def test_unit_sum_matches_brute_force(h):
    for L in range(1, 5):
        for target in range(h):
            feasible = unit_sum_feasible_brute(L, h, target)
            try:
                w = unit_sum(L, h, target)
            except NoSolution:
                assert not feasible
            else:
                assert feasible
                assert len(w.exps) == L and w.target == target
                assert w.check()
                assert is_zero(w.value() - CycInt.root(h, target))


def test_unit_sum_singleton():
    w = unit_sum(1, 12, 7)
    assert w.exps == (7,)


def test_unit_sum_pair_needs_sixth_roots():
    with pytest.raises(NoSolution):
        unit_sum(2, 4, 0)
    w = unit_sum(2, 6, 0)
    assert is_zero(w.value() - CycInt.root(6, 0))


@given(st.integers(1, 12), st.sampled_from([2, 3, 4, 6, 12]), st.integers(0, 11))
@settings(max_examples=80, deadline=None)
def test_unit_sum_witnesses_always_check(L, h, target):
    target %= h
    try:
        w = unit_sum(L, h, target)
    except NoSolution:
        return
    assert w.check()
    assert is_zero(w.value() - CycInt.root(h, target))


@given(st.integers(1, 40), st.sampled_from([2, 3, 4, 5, 6, 10, 12, 15, 30]))
@settings(max_examples=80, deadline=None)
def test_zero_sum_witnesses_always_check(L, h):
    try:
        w = zero_sum(L, h)
    except NoDecomposition:
        assert semigroup_member(L, prime_divisors(h)) is None
        return
    assert w.check() and is_zero(w.value())


@pytest.mark.parametrize("call,passes", [
    (lambda: zero_sum(4, 2), lambda w: False),
    (lambda: unit_sum(3, 2, 0), lambda w: w.target is None),  # target + zero sum
    (lambda: unit_sum(2, 6, 0), lambda w: w.target is None),  # the sixth-root pair
], ids=["zero-sum", "unit-sum-padded", "unit-sum-sixth-roots"])
def test_failed_witness_check_raises(call, passes, monkeypatch):
    call()
    monkeypatch.setattr(SumWitness, "check", passes)
    with pytest.raises(SelfCheckFailed):
        call()


def test_sums_reject_nonpositive_length_and_order():
    for call in (lambda: zero_sum(0, 6), lambda: unit_sum(0, 6, 0),
                 lambda: zero_sum(2, 0), lambda: unit_sum(3, 0, 0)):
        with pytest.raises(InvalidParams):
            call()
