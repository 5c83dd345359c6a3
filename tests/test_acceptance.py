"""Acceptance suite: ten end-to-end criteria and a table-group load, with pinned runtime bounds.

Each test prints a single PASS line when its criterion holds; a failing
criterion fails the test outright.  All checks are exact integer
computations — tolerance is literal equality.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from butson.construct import (
    BlockParams,
    build_blocks,
    construct_group_bh,
    construct_line_bh,
    construct_partition_bh,
    find_normal_cyclic_generator,
    min_h,
    solve_coefficient_scheme,
)
from butson.cyclotomic import CycInt, is_zero
from butson.errors import WrongSubgroupOrder
from butson.groups import GroupRingElt, make_abelian, make_from_table, make_semidirect
from butson.fileio import format_array, read_array
from butson.rings import chain_ring
from butson.sums import prime_divisors, semigroup_member, unit_sum, zero_sum
from butson.verify import materialize, verify_bh, verify_group_ring

from conftest import build_instance_gallery, quaternion_table
from oracles import (autocorrelation, block_defect, equals_integer, gauss_sum, integer, norm_sq, verify_by_characters,
                     with_coefficient)


def timed(budget_s, fn):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"took {elapsed:.3f}s, budget {budget_s}s"
    return result, elapsed


def test_criterion_01_circulant_order_four():
    def build():
        G = make_abelian([4])
        assert min_h(4) == 2
        return construct_group_bh(G, find_normal_cyclic_generator(G, 2), 2)

    D, elapsed = timed(0.1, build)
    assert D.e.tolist() == [0, 0, 0, 1]  # signs (+, +, +, -)
    assert verify_bh(materialize(D.group, D)).ok
    print(f"\nPASS criterion 1: circulant order 4, h=2, signs (+,+,+,-) "
          f"[{elapsed * 1000:.1f} ms]")


def test_criterion_02_nonabelian_order_eight(q8_table):
    def build_d4():
        G = make_semidirect(4, 2, 3)
        return construct_group_bh(G, find_normal_cyclic_generator(G, 4), 4)

    def build_q8():
        G = make_from_table(q8_table)
        return construct_group_bh(G, find_normal_cyclic_generator(G, 4), 4)

    d4, t1 = timed(0.1, build_d4)
    q8, t2 = timed(0.1, build_q8)
    for D in (d4, q8):
        assert verify_group_ring(D)
        assert verify_bh(materialize(D.group, D)).ok
    print(f"\nPASS criterion 2: dihedral and quaternion order 8 at h=4 "
          f"[{t1 * 1000:.1f} / {t2 * 1000:.1f} ms]")


def test_criterion_03_symmetric_group_rejected():
    S3 = make_semidirect(3, 2, 2)
    with pytest.raises(WrongSubgroupOrder):
        find_normal_cyclic_generator(S3, 6)
    print("\nPASS criterion 3: order-6 nonabelian group rejected "
          "(no normal cyclic subgroup of order 6)")


def test_criterion_04_block_sweep():
    def sweep():
        cases = set()
        for n in range(1, 65):
            params = BlockParams.plan(n)
            # the pairwise and diagonal identities, exactly
            assert block_defect(build_blocks(params), params.h) is None, n
            cases.add(params.case)
        return cases

    cases, elapsed = timed(10.0, sweep)
    assert cases == {"EvenVal", "OddValGe3", "Val1"}
    print(f"\nPASS criterion 4: block identities hold for all n <= 64 at "
          f"minimal h, all three 2-adic cases [{elapsed:.2f} s]")


def test_criterion_05_gauss_sum_norms():
    def sweep():
        for n in range(1, 26, 2):
            for b in range(n):
                assert equals_integer(norm_sq(gauss_sum(n, b, "a")), n)
        for n in range(1, 16, 2):
            for b in range(2 * n):
                assert equals_integer(norm_sq(gauss_sum(n, b, "b")), 2 * n)

    _, elapsed = timed(5.0, sweep)
    print(f"\nPASS criterion 5: quadratic sum norms n (odd n <= 25) and 2n "
          f"(odd n <= 15), all shifts [{elapsed:.2f} s]")


def test_criterion_06_partition_instances():
    specs = [("galois", 2, 2, 16), ("truncated", 2, 2, 16), ("galois", 3, 3, 81)]
    total = 0.0
    for family, p, h, order in specs:
        R = chain_ring(family, p, 1, 2)

        def build():
            D = construct_partition_bh(R, 1, list(zero_sum(p, h).exps), h)
            assert verify_bh(materialize(D.group, D)).ok
            return D

        D, elapsed = timed(5.0, build)
        total += elapsed
        assert D.group.order == order and D.h == h
    print(f"\nPASS criterion 6: partition instances of orders 16, 16, 81 "
          f"[{total:.2f} s total]")


def test_criterion_07_line_instances():
    total = 0.0
    for p, order in [(2, 16), (3, 81)]:
        R = chain_ring("galois", p, 1, 2)

        def build():
            scheme = solve_coefficient_scheme(R, 6)
            D = construct_line_bh(R, scheme)
            assert verify_bh(materialize(D.group, D)).ok
            return scheme, D

        (scheme, D), elapsed = timed(5.0, build)
        total += elapsed
        assert D.group.order == order and D.h == 6

        # re-verify every constraint instance with sums coded in this test
        def root_sum(exponents):
            acc = integer(6, 0)
            for e in exponents:
                acc = acc + CycInt.root(6, e)
            return acc

        A, T = R.add_table, R.mul_table
        chain = [level.tolist() for level in R.coset_chain()]
        for i in range(1, R.n):
            for u in chain[i]:
                lhs = root_sum(scheme.eta_r[x]
                               for x in A[u, R.ideal_elements(i)].tolist())
                assert is_zero(lhs - CycInt.root(6, scheme.delta_u[u]))
        for j in range(R.n - 1):
            for v in set(T[R.pi, chain[j]].tolist()):
                lhs = root_sum(scheme.mu_s[x]
                               for x in A[v, R.ideal_elements(j + 1)].tolist())
                assert is_zero(lhs - CycInt.root(6, scheme.gamma_v[v]))
        top = root_sum([scheme.delta_u[u] for u in chain[1]] +
                       [scheme.gamma_v[v] if R.n > 2 else scheme.mu_s[v]
                        for v in set(T[R.pi, chain[1]].tolist())])
        assert is_zero(top - CycInt.root(6, scheme.eta))
    print(f"\nPASS criterion 7: line instances of orders 16 and 81 at h=6, "
          f"all constraint families re-verified [{total:.2f} s total]")


def test_criterion_08_perfect_array_export(tmp_path):
    R = chain_ring("galois", 2, 1, 2)
    D = construct_partition_bh(R, 1, [0, 1], 2)
    (tmp_path / "d.arr").write_text(format_array(D))
    A = read_array(tmp_path / "d.arr")
    assert A.group.abelian_factors == (4, 4)
    shifts = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
    assert len(shifts) == 15
    for s in shifts:
        assert equals_integer(autocorrelation(A, s), 0)
    mutated = with_coefficient(A, 5, int(A.e[5]) + 1)
    assert any(not is_zero(autocorrelation(mutated, s)) for s in shifts)
    print("\nPASS criterion 8: 4x4 two-phase array perfect at all 15 shifts; "
          "mutation breaks it")


def test_criterion_09_semigroup_oracle():
    def reachable(primes, limit):
        seen = {0}
        for L in range(1, limit + 1):
            if any(L - p in seen for p in primes if L >= p):
                seen.add(L)
        return seen

    for primes in [(2,), (3,), (2, 3), (2, 5), (3, 5)]:
        oracle = reachable(primes, 30)
        for L in range(31):
            assert (semigroup_member(L, primes) is not None) == (L in oracle)

    for h in (2, 3, 4, 6, 10, 12, 30):
        for L in range(1, 31):
            if semigroup_member(L, prime_divisors(h)) is None:
                continue
            assert is_zero(zero_sum(L, h).value())
    for h in (4, 6, 12):
        for L in range(1, 8):
            for target in (0, 1):
                try:
                    w = unit_sum(L, h, target)
                except Exception:
                    continue
                assert is_zero(w.value() - CycInt.root(h, target))
    print("\nPASS criterion 9: semigroup membership matches exhaustive "
          "enumeration; all emitted witnesses verify exactly")


def test_criterion_10_cross_oracle_consistency():
    gallery = build_instance_gallery()
    rng = random.Random(42)
    mutations = 0
    for name, D in gallery:
        M = materialize(D.group, D)
        verdicts = [verify_bh(M).ok, verify_group_ring(D)]
        if D.group.abelian_factors is not None:
            verdicts.append(verify_by_characters(D))
        assert all(verdicts), name

        exps = D.e.tolist()
        for _ in range(20):
            g = rng.randrange(D.group.order)
            bad_exps = list(exps)
            bad_exps[g] = (bad_exps[g] + rng.randrange(1, D.h)) % D.h
            bad = GroupRingElt.from_exponents(D.group, D.h, bad_exps)
            verdicts = [verify_bh(materialize(bad.group, bad)).ok,
                        verify_group_ring(bad)]
            if D.group.abelian_factors is not None:
                verdicts.append(verify_by_characters(bad))
            assert not any(verdicts), name
            mutations += 1
    print(f"\nPASS criterion 10: {len(gallery)} instances x 3 verifiers agree, "
          f"and on all {mutations} random mutations all verifiers reject")


def test_relabelled_table_group_of_order_1024_loads_within_budget():
    # Light's associativity test: one n^2 gather per generator, not per element
    table = make_semidirect(256, 4, 255).table
    rng = random.Random(1024)
    perm = np.array([0] + rng.sample(range(1, 1024), 1023))
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    G, elapsed = timed(1.0, lambda: make_from_table(relabelled))
    assert np.array_equal(G.table, relabelled)
    print(f"\nPASS: relabelled semidirect 256,4,255 (order 1024) passes the group axioms "
          f"[{elapsed * 1000:.0f} ms]")
