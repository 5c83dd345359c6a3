"""Perfect-autocorrelation arrays and their equivalence with invariant matrices."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from butson.arrays import PerfectArray, to_array, verify_perfect
from butson.cyclotomic import is_zero
from butson.errors import InvalidParams, NotAbelianFactored
from butson.fileio import read_array
from butson.groups import Unimodular, make_abelian, make_semidirect
from butson.verify import verify_group_ring

from oracles import autocorrelation, conj, equals_integer


def circulant_sign_array():
    return PerfectArray((4,), 2, (0, 0, 0, 1))


def test_zero_shift_autocorrelation_is_the_size():
    A = circulant_sign_array()
    assert equals_integer(autocorrelation(A, (0,)), 4)


def test_circulant_sign_array_is_perfect():
    A = circulant_sign_array()
    for s in range(1, 4):
        assert equals_integer(autocorrelation(A, (s,)), 0)
    assert verify_perfect(A)


def test_autocorrelation_conjugate_symmetry():
    A = PerfectArray((2, 4), 4, (0, 1, 2, 3, 1, 0, 3, 2))
    for shift in itertools.product(range(2), range(4)):
        neg = tuple((-s) % d for s, d in zip(shift, A.dims))
        assert is_zero(autocorrelation(A, neg) - conj(autocorrelation(A, shift)))


def test_to_array_of_group_element():
    G = make_abelian([4])
    D = Unimodular(G, 2, [0, 0, 0, 1])
    A = to_array(D)
    assert A.dims == (4,) and A.h == 2 and A.E.tolist() == [0, 0, 0, 1]
    assert verify_perfect(A)


def test_to_array_requires_abelian_factors():
    D4 = make_semidirect(4, 2, 3)
    D = Unimodular(D4, 2, [0] * 8)
    with pytest.raises(NotAbelianFactored):
        to_array(D)


def test_perfect_iff_matrix_valid(instance_gallery):
    rng = random.Random(99)
    for name, D in instance_gallery:
        if D.group.abelian_factors is None:
            continue
        A = to_array(D)
        assert verify_perfect(A), name

        exps = D.e.tolist()
        g = rng.randrange(D.group.order)
        exps[g] = (exps[g] + rng.randrange(1, D.h)) % D.h
        bad = Unimodular(D.group, D.h, exps)
        assert not verify_group_ring(bad), name
        assert not verify_perfect(to_array(bad)), name


def test_with_entry_breaks_perfection():
    A = circulant_sign_array()
    B = A.with_entry(2, 1)
    assert not verify_perfect(B)


def test_multidimensional_perfect_array():
    G = make_abelian([2, 2, 2, 2])
    # row of the F2[u]/(u^2) partition instance, rebuilt directly
    from butson.construct import construct_partition_bh
    from butson.rings import chain_ring
    from butson.sums import zero_sum

    R = chain_ring("truncated", 2, 1, 2)
    D = construct_partition_bh(R, 1, list(zero_sum(2, 2).exps), 2)
    A = to_array(D)
    assert A.dims == (2, 2, 2, 2) and A.E.shape == (2, 2, 2, 2)
    assert verify_perfect(A)


@pytest.mark.parametrize("dims, h, stride", [
    ((4,), 2, 1), ((2, 2), 2, 1), ((2, 4), 2, 1), ((4, 2), 2, 1), ((3, 3), 3, 37),
])
def test_batched_verify_perfect_matches_autocorrelation_oracle(dims, h, stride):
    # every array (every stride-th for 3^9) against one shift at a time
    shifts = [s for s in itertools.product(*map(range, dims)) if any(s)]
    size = math.prod(dims)
    perfect = 0
    for exps in itertools.islice(itertools.product(range(h), repeat=size), 0, None, stride):
        A = PerfectArray(dims, h, exps)
        expected = all(is_zero(autocorrelation(A, s)) for s in shifts)
        assert verify_perfect(A) == expected, exps
        perfect += expected
    assert perfect > 0 or dims in ((2, 4), (4, 2))


def test_verify_perfect_takes_as_many_axes_as_numpy():
    # 64 axes, numpy's limit: trailing axes of length 1 change nothing
    A = PerfectArray((4,) + (1,) * 63, 2, [0, 0, 0, 1])
    assert verify_perfect(A)
    assert not verify_perfect(A.with_entry(0, 1))


def test_arrays_beyond_numpy_axes_are_refused(tmp_path):
    with pytest.raises(InvalidParams, match="at most 64 axes"):
        PerfectArray((1,) * 65, 2, [0])
    path = tmp_path / "a.arr"
    path.write_text("array h=2 dims=" + ",".join(["1"] * 65) + "\n0\n")
    with pytest.raises(InvalidParams, match="at most 64 axes"):
        read_array(path)


@pytest.mark.parametrize("dims", [(0,), (2, 0), (-1,), (-2, -1)])
def test_dimensions_below_1_are_refused(dims):
    with pytest.raises(InvalidParams, match="every dimension must be positive"):
        PerfectArray(dims, 2, [])
