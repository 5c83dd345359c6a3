"""Three independent verification routes and their agreement."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from butson import arrays, groups, verify
from butson.arrays import PerfectArray, to_array, verify_perfect
from butson.construct import (
    block_count,
    construct_group_bh,
    find_normal_cyclic_generator,
    min_h,
)
from butson.errors import NonUnimodular
from butson.groups import (
    GroupRingElt, Unimodular, as_unimodular, exponent_dtype, make_abelian, make_cyclic, make_from_table,
    make_semidirect,
)
from butson.cyclotomic import CycInt, is_zero
from butson.verify import BhMatrix, invariance_witness, materialize, verify_bh, verify_group_ring

from oracles import (
    autocorrelation, coeffs, gr_conj_inv, gr_mul, integer, unimodular_products, verify_by_characters, verify_by_gr_mul,
    with_entry,
)


def test_materialize_frozen_example():
    G = make_cyclic(2)
    D = GroupRingElt.from_exponents(G, 4, [0, 1])
    M = materialize(G, D)
    assert M.h == 4
    assert [list(r) for r in M.exponents] == [[0, 1], [1, 0]]
    assert verify_bh(M).ok


def test_materialize_matches_definition():
    G = make_semidirect(4, 2, 3)  # D4: g k^(-1) differs from k^(-1) g
    exps = [0, 3, 1, 2, 2, 0, 3, 1]
    M = materialize(G, GroupRingElt.from_exponents(G, 4, exps))
    assert M.exponents == tuple(
        tuple(exps[G.mul(g, G.inv(k))] for k in G.elements()) for g in G.elements()
    )
    assert all(type(e) is int for row in M.exponents for e in row)


@pytest.mark.parametrize("cells", [1, 20, 1 << 16])
def test_row_blocks_answer_as_the_whole_matrix(monkeypatch, cells):
    monkeypatch.setattr(groups, "BLOCK_CELLS", cells)  # one row, two or three rows, or all rows per block
    for G in (make_semidirect(4, 2, 3), make_abelian([3, 4])):
        n, exps = G.order, [(g * g + 1) % 4 for g in G.elements()]
        M = materialize(G, Unimodular(G, 4, exps))
        assert M.E.tolist() == [[exps[G.mul(g, G.inv(k))] for k in G.elements()] for g in G.elements()]
        for r, c in [(n - 1, n - 1), (n // 2, 1), (1, 0)]:
            bad = with_entry(M, r, c, M.E[r, c] + 1)
            # the witness is the first mismatch in row-major order, whichever block holds it
            first = next((g, k) for g in G.elements() for k in G.elements()
                         if bad.E[g, k] != bad.E[G.mul(g, G.inv(k)), 0])
            assert invariance_witness(bad) == (*first, G.inv(first[1])), (G.descriptor, r, c)


def test_bh_matrix_holds_one_read_only_reduced_array():
    G = make_cyclic(2)
    rows = [[0, -1], [5, 2]]
    M = BhMatrix(4, G, rows)
    assert M.E.dtype == exponent_dtype(4) == np.uint8 and not M.E.flags.writeable
    assert M.E.tolist() == [[0, 3], [1, 2]]
    assert M.exponents == ((0, 3), (1, 2))
    assert all(type(e) is int for row in M.exponents for e in row)
    src = np.array(rows)
    assert BhMatrix(4, G, src).E.tolist() == [[0, 3], [1, 2]]
    assert src.flags.writeable and src.tolist() == rows  # the caller's array is untouched
    writable, wide = np.array([[0, 3], [1, 2]], dtype=np.uint8), np.array([[0, 3], [1, 2]])
    wide.flags.writeable = False
    for A in (writable, wide):  # writable, or not of the rule's dtype: copied, never frozen in place
        E = BhMatrix(4, G, A).E
        assert E is not A and E.dtype == np.uint8 and not E.flags.writeable
    assert writable.flags.writeable
    A = np.array([[0, 3], [1, 2]], dtype=np.uint8)
    A.flags.writeable = False
    assert BhMatrix(4, G, A).E is A  # read-only, of the rule's dtype and in range: kept as is
    assert BhMatrix(3, G, A).E.tolist() == [[0, 0], [1, 2]]  # 3 is out of range for h = 3
    assert BhMatrix(300, G, A).E.dtype == exponent_dtype(300) == np.uint16  # h - 1 needs two bytes
    bad = with_entry(M, 0, 1, 6)
    assert bad.E.tolist() == [[0, 2], [1, 2]] and M.E.tolist() == [[0, 3], [1, 2]]
    assert not bad.E.flags.writeable


def test_materialize_rejects_non_unimodular():
    G = make_cyclic(2)
    D = GroupRingElt(G, 4, (integer(4, 2), CycInt.root(4, 1)))
    with pytest.raises(NonUnimodular):
        materialize(G, D)


def test_verify_flags_broken_row_pair():
    G = make_cyclic(2)
    M = materialize(G, GroupRingElt.from_exponents(G, 4, [0, 1]))
    bad = with_entry(M, 1, 0, 3)  # still invariant? no: single entry changed
    report = verify_bh(bad)
    assert not report.ok
    assert report.first_failure is not None


def test_verify_detects_non_invariance():
    G = make_cyclic(4)
    M = materialize(G, GroupRingElt.from_exponents(G, 2, [0, 0, 0, 1]))
    bad = with_entry(M, 2, 1, 1)
    report = verify_bh(bad)
    assert not report.is_invariant and not report.ok


def test_verify_full_and_jobs_agree():
    G = make_abelian([4])
    M = materialize(G, GroupRingElt.from_exponents(G, 2, [0, 0, 0, 1]))
    assert verify_bh(M).ok
    assert verify_bh(M, full=True).ok
    assert verify_bh(M, full=True).pairs_checked == 6
    bad = with_entry(M, 0, 0, 1)
    assert not verify_bh(bad, full=True).ok
    assert verify_bh(bad).first_failure == verify_bh(bad, full=True).first_failure


def test_all_verifiers_agree_on_gallery(instance_gallery):
    for name, D in instance_gallery:
        assert verify_group_ring(D), name
        assert verify_bh(materialize(D.group, D)).ok, name
        if D.group.abelian_factors is not None:
            assert verify_by_characters(D), name


def test_all_verifiers_agree_on_mutations(instance_gallery):
    rng = random.Random(20240817)
    for name, D in instance_gallery:
        exps = D.e.tolist()
        for _ in range(5):
            g = rng.randrange(D.group.order)
            delta = rng.randrange(1, D.h)
            bad_exps = list(exps)
            bad_exps[g] = (bad_exps[g] + delta) % D.h
            bad = GroupRingElt.from_exponents(D.group, D.h, bad_exps)
            assert not verify_group_ring(bad), name
            assert not verify_bh(materialize(bad.group, bad)).ok, name
            if D.group.abelian_factors is not None:
                assert not verify_by_characters(bad), name


def test_character_route_rejects_wrong_constant():
    G = make_abelian([2, 2])
    D = GroupRingElt.from_exponents(G, 2, [0, 0, 0, 0])  # all-ones row
    assert not verify_by_characters(D)
    assert not verify_group_ring(D)


def test_timing_reported():
    G = make_cyclic(4)
    M = materialize(G, GroupRingElt.from_exponents(G, 2, [0, 0, 0, 1]))
    report = verify_bh(M)
    assert report.timing_ms >= 0.0


def _group_instance(G):
    n = G.order
    h = min_h(n)
    gen = find_normal_cyclic_generator(G, n // block_count(n, h))
    return construct_group_bh(G, gen, h)


def _relabelled(D, rng):
    """D carried to a copy of its group relabelled by a bijection fixing 0."""
    G, n = D.group, D.group.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    out, old = [None] * n, coeffs(D)
    for g in range(n):
        out[perm[g]] = old[g]
    return GroupRingElt(make_from_table(table, "table relabelled"), D.h, tuple(out))


@pytest.fixture(scope="module")
def shortcut_cases(instance_gallery):
    """Valid instances plus an extra non-abelian and a relabelled table group."""
    semi = _group_instance(make_semidirect(16, 4, 15))
    return list(instance_gallery) + [
        ("semidirect-64", semi),
        ("relabelled-semidirect-64", _relabelled(semi, random.Random(7))),
    ]


def _coefficient_mutants(D, rng, count):
    exps = as_unimodular(D).e.tolist()
    for _ in range(count):
        bad = list(exps)
        g = rng.randrange(len(bad))
        bad[g] = (bad[g] + rng.randrange(1, D.h)) % D.h
        yield GroupRingElt.from_exponents(D.group, D.h, bad)


def _same_verdict(a, b):
    return (a.is_bh, a.is_invariant, a.first_failure) == (b.is_bh, b.is_invariant, b.first_failure)


def test_shortcut_agrees_with_all_pairs_oracle(shortcut_cases):
    rng = random.Random(20261018)
    for name, D in shortcut_cases:
        n = D.group.order
        M = materialize(D.group, D)
        fast, oracle = verify_bh(M), verify_bh(M, full=True)
        assert fast.ok and _same_verdict(fast, oracle), name
        assert fast.pairs_checked == n - 1, name
        assert oracle.pairs_checked == n * (n - 1) // 2, name
        for bad in _coefficient_mutants(D, rng, 3):
            Mb = materialize(bad.group, bad)
            fast, oracle = verify_bh(Mb), verify_bh(Mb, full=True)
            assert fast.is_invariant and not fast.is_bh, name
            assert _same_verdict(fast, oracle), name
            assert fast.first_failure[:2] == ("rows", 0), name


def _swap_rows(M, a, b):
    rows = list(M.exponents)
    rows[a], rows[b] = rows[b], rows[a]
    return BhMatrix(M.h, M.group, tuple(rows))


def _assert_genuine(M, witness):
    g, k, l = witness
    G, E = M.group, M.exponents
    assert l == G.inv(k)
    assert E[G.mul(g, l)][G.mul(k, l)] != E[g][k]


def test_shortcut_needs_invariance(shortcut_cases):
    # swapping two rows keeps the matrix BH but breaks invariance, so the
    # n-1 shortcut must not run: every row pair is checked
    for name, D in shortcut_cases:
        n = D.group.order
        swapped = _swap_rows(materialize(D.group, D), 1, 2)
        report = verify_bh(swapped)
        assert report.is_bh and not report.is_invariant, name
        assert report.pairs_checked == n * (n - 1) // 2, name
        assert report.first_failure[0] == "invariance", name
        _assert_genuine(swapped, report.first_failure[1:])
        assert invariance_witness(swapped) == report.first_failure[1:], name


def test_invariance_witnesses_are_genuine(shortcut_cases):
    rng = random.Random(5)
    for name, D in shortcut_cases:
        M = materialize(D.group, D)
        assert invariance_witness(M) is None, name
        n = D.group.order
        for _ in range(5):
            r, c = rng.randrange(n), rng.randrange(n)
            bad = with_entry(M, r, c, M.exponents[r][c] + rng.randrange(1, D.h))
            witness = invariance_witness(bad)
            assert witness is not None, name
            _assert_genuine(bad, witness)
            assert verify_bh(bad).first_failure == ("invariance",) + witness, name


def test_kernel_group_ring_matches_generic_oracle():
    rng = random.Random(20261019)
    c6 = make_cyclic(6)
    cases = [
        (c6, construct_group_bh(c6, find_normal_cyclic_generator(c6, 6), 12)),
        (make_semidirect(3, 2, 2), None),  # S3: no BH(S3, h) from construction 1
        (make_semidirect(4, 2, 3), _group_instance(make_semidirect(4, 2, 3))),
    ]
    for G, valid in cases:
        h = valid.h if valid is not None else 12
        elements = [] if valid is None else [valid, *_coefficient_mutants(valid, rng, 6)]
        elements += [
            GroupRingElt.from_exponents(G, h, [rng.randrange(h) for _ in G.elements()])
            for _ in range(6)
        ]
        for D in elements:
            assert verify_group_ring(D) == verify_by_gr_mul(D), G.descriptor
            # the histograms carry every coefficient of D D^(-1), not only the verdict
            e = as_unimodular(D).e
            hist = unimodular_products(G, h, e, e[None])[0]
            prod = gr_mul(D, gr_conj_inv(D))
            for g in G.elements():
                assert is_zero(CycInt(h, tuple(hist[g].tolist())) - prod.coeffs[g])
        if valid is not None:
            assert verify_group_ring(valid)


def test_group_ring_check_of_non_unimodular_element():
    G = make_cyclic(2)
    # (1 + zeta_4^2) + zeta_4 * g has the value of zeta_4 g alone: not BH
    D = GroupRingElt(G, 4, (CycInt(4, (1, 0, 1, 0)), CycInt.root(4, 1)))
    assert D.monomial_exponents() is None
    assert verify_by_gr_mul(D) is False
    E = GroupRingElt(G, 4, (CycInt(4, (2, 0, 1, 0)), CycInt.root(4, 1)))
    assert verify_by_gr_mul(E) is True
    # the library takes unimodular elements only
    for X in (D, E):
        with pytest.raises(NonUnimodular):
            verify_group_ring(X)


def _scalar_verdict(M, full):
    """verify_bh's report fields from one pair at a time and scalar is_zero."""
    n, h, E = M.group.order, M.h, M.exponents
    witness = invariance_witness(M)
    first = None if witness is None else ("invariance",) + witness
    if witness is None and not full:
        pairs, total = [(0, g) for g in range(1, n)], n - 1
    else:
        pairs, total = itertools.combinations(range(n), 2), n * (n - 1) // 2
    for checked, (a, b) in enumerate(pairs, 1):
        hist = [0] * h
        for x, y in zip(E[a], E[b]):
            hist[(x - y) % h] += 1
        if not is_zero(CycInt(h, tuple(hist))):
            return False, witness is None, first or ("rows", a, b), total if full else checked
    return True, witness is None, first, total


@pytest.fixture(scope="module")
def large_cases():
    return [_group_instance(make_semidirect(64, 4, 31)), _group_instance(make_cyclic(256))]


def test_batched_verdicts_match_scalar_reference(large_cases):
    rng = random.Random(256)
    for D in large_cases:
        n = D.group.order
        M = materialize(D.group, D)
        mutants = [materialize(bad.group, bad) for bad in _coefficient_mutants(D, rng, 2)]
        for _ in range(3):
            r, c = rng.randrange(n), rng.randrange(n)
            mutants.append(with_entry(M, r, c, M.exponents[r][c] + rng.randrange(1, D.h)))
        assert verify_bh(M).pairs_checked == n - 1
        for bad in mutants:
            for full in (False, True):
                report = verify_bh(bad, full=full)
                got = (report.is_bh, report.is_invariant, report.first_failure, report.pairs_checked)
                assert got == _scalar_verdict(bad, full), (D.group.descriptor, full)
                assert not report.is_bh


def test_kernels_match_oracles_across_chunk_boundaries(monkeypatch, instance_gallery):
    # small chunks, so that every batched kernel runs several, the last one short
    for mod in (groups, verify):
        monkeypatch.setattr(mod, "CHUNK_CELLS", 1000)
    rng = random.Random(1000)
    semi = _group_instance(make_semidirect(16, 4, 15))
    for D in (semi, _relabelled(semi, random.Random(16))):
        G, h = D.group, 12
        x = np.array([rng.randrange(h) for _ in G.elements()])
        Y = np.array([[rng.randrange(h) for _ in G.elements()] for _ in range(3)])
        hist = unimodular_products(G, h, x, Y)
        X = GroupRingElt.from_exponents(G, h, x.tolist())
        for j, y in enumerate(Y):
            prod = gr_mul(X, gr_conj_inv(GroupRingElt.from_exponents(G, h, y.tolist())))
            for g in G.elements():
                assert is_zero(CycInt(h, tuple(hist[j, g].tolist())) - prod.coeffs[g]), (j, g)
        M = materialize(G, D)
        n = G.order
        mutants = [materialize(G, bad) for bad in _coefficient_mutants(D, rng, 2)]
        # not invariant, and its first failing pair (0, n - 1) lies in a later chunk
        mutants.append(with_entry(M, n - 1, n - 2, M.E[n - 1, n - 2] + 1))
        for bad in [M, *mutants]:
            for full in (False, True):
                report = verify_bh(bad, full=full)
                got = (report.is_bh, report.is_invariant, report.first_failure, report.pairs_checked)
                assert got == _scalar_verdict(bad, full), (G.descriptor, full)
    A = to_array(dict(instance_gallery)["partition-galois-3-1-2-h3"])
    assert A.dims == (9, 9)
    size = A.E.size
    shifts = [s for s in itertools.product(*map(range, A.dims)) if any(s)]
    for B in [A, A.with_entry(size - 1, A.E.flat[-1] + 1),
              PerfectArray(A.dims, A.h, tuple(rng.randrange(A.h) for _ in range(size)))]:
        assert verify_perfect(B) == all(is_zero(autocorrelation(B, s)) for s in shifts)
    assert verify_perfect(A)


def test_verify_perfect_builds_no_cayley_table(monkeypatch, instance_gallery):
    monkeypatch.setattr(verify, "CHUNK_CELLS", 1000)
    monkeypatch.setattr(groups.FiniteGroup, "table", property(lambda G: pytest.fail("a Cayley table was built")))
    blocks = []
    rows = groups.FiniteGroup.rows

    def spy(G, r):
        block = rows(G, r)
        blocks.append(len(block))
        return block

    monkeypatch.setattr(groups.FiniteGroup, "rows", spy)
    A = to_array(dict(instance_gallery)["partition-galois-3-1-2-h3"])
    assert arrays.verify_perfect(A) and not arrays.verify_perfect(A.with_entry(40, A.E.flat[40] + 1))
    assert blocks and max(blocks) == 1000 // A.E.size < A.E.size


def test_a_defect_in_the_first_batch_ends_the_check(monkeypatch, instance_gallery):
    monkeypatch.setattr(verify, "CHUNK_CELLS", 1000)
    calls = []
    kernel = verify.difference_histograms
    monkeypatch.setattr(verify, "difference_histograms", lambda *args: calls.append(1) or kernel(*args))
    A = to_array(dict(instance_gallery)["partition-galois-3-1-2-h3"])
    step = 1000 // A.E.size
    assert arrays.verify_perfect(A) and len(calls) == -(-(A.E.size - 1) // step)  # g = 1..n-1
    mutant = A.with_entry(0, A.E.flat[0] + 1)
    assert verify.correlation_defects(make_abelian(A.dims), A.h, mutant.E.ravel())[0] < 1 + step
    calls.clear()
    assert not arrays.verify_perfect(mutant) and len(calls) == 1


def _as_int64(x, name):
    """x with its exponent array `name` as int64, the dtype before the narrow rule.

    The constructors reduce int64 into the narrow dtype, so the array is set
    past them: the kernels then run on int64 exponents as they used to.
    """
    wide = getattr(x, name).astype(np.int64)
    wide.flags.writeable = False
    object.__setattr__(x, name, wide)
    return x


def _fields(report):
    return report.is_bh, report.is_invariant, report.first_failure, report.pairs_checked


@pytest.fixture(scope="module")
def dtype_cases(instance_gallery):
    """The gallery, plus h = 256 (uint8 up to 255), 260 (uint16) and 512 (block exponents times 256)."""
    extra = []
    for G, h in [(make_semidirect(4, 2, 3), 256), (make_cyclic(16), 260), (make_cyclic(4), 512)]:
        gen = find_normal_cyclic_generator(G, G.order // block_count(G.order, min_h(G.order)))
        extra.append((f"{G.descriptor}-h{h}", construct_group_bh(G, gen, h)))
    return list(instance_gallery) + extra


def test_narrow_and_int64_exponents_give_equal_reports(dtype_cases):
    rng = random.Random(19)
    for name, D in dtype_cases:
        D, n = as_unimodular(D), D.group.order
        assert D.e.dtype == exponent_dtype(D.h), name
        M = materialize(D.group, D)
        elements = [D, *map(as_unimodular, _coefficient_mutants(D, rng, 2))]
        matrices = [materialize(D.group, U) for U in elements]
        r, c = rng.randrange(n), rng.randrange(n)
        matrices.append(with_entry(M, r, c, int(M.E[r, c]) + rng.randrange(1, D.h)))
        for i, U in enumerate(elements):
            wide = Unimodular(D.group, D.h, U.e.astype(np.int64))
            assert np.array_equal(wide.e, U.e) and wide.e.dtype == U.e.dtype, name
            defects = verify.correlation_defects(D.group, D.h, U.e)
            assert np.array_equal(verify.correlation_defects(D.group, D.h, U.e.astype(np.int64)), defects), name
            assert verify_group_ring(U) == verify_group_ring(_as_int64(wide, "e")) == (i == 0), name
            if D.group.abelian_factors is not None:
                A = to_array(U)
                B = PerfectArray(A.dims, A.h, A.E.astype(np.int64))
                assert B.E.dtype == A.E.dtype, name
                assert verify_perfect(A) == verify_perfect(_as_int64(B, "E")) == (i == 0), name
        for i, X in enumerate(matrices):
            wide = BhMatrix(X.h, X.group, X.E.astype(np.int64))
            assert np.array_equal(wide.E, X.E) and wide.E.dtype == X.E.dtype, name
            _as_int64(wide, "E")
            for full in (False, True):
                report = verify_bh(X, full=full)
                assert _fields(report) == _fields(verify_bh(wide, full=full)), (name, full)
                assert report.ok == (i == 0), (name, full)
