#!/usr/bin/env python3
"""Build a small gallery of group-invariant Butson matrices and verify each
one by both library routes (matrix rows, group-ring product).
"""

from __future__ import annotations

import time

from butson.construct import (
    construct_group_bh,
    construct_line_bh,
    construct_partition_bh,
    find_normal_cyclic_generator,
    partition_R,
    solve_coefficient_scheme,
)
from butson.groups import make_abelian, make_semidirect
from butson.rings import chain_ring
from butson.sums import zero_sum
from butson.verify import materialize, verify_bh, verify_group_ring


def report(name, D):
    group = D.group
    t0 = time.perf_counter()
    ok_gr = verify_group_ring(D)
    rep = verify_bh(materialize(group, D))
    ms = (time.perf_counter() - t0) * 1000.0
    print(f"{name:<34} order={group.order:<4} h={D.h:<3} rows={rep.ok} ring={ok_gr} ({ms:.1f} ms)")


def main() -> None:
    z4 = make_abelian([4])
    report("circulant BH(Z4, 2)", construct_group_bh(z4, find_normal_cyclic_generator(z4, 2), 2))

    d4 = make_semidirect(4, 2, 3)
    report("BH(D4, 4)", construct_group_bh(d4, find_normal_cyclic_generator(d4, 4), 4))

    for family, p, d, n, t, h in [("galois", 2, 1, 2, 1, 2),
                                  ("galois", 3, 1, 2, 1, 3),
                                  ("truncated", 2, 1, 2, 1, 2)]:
        ring = chain_ring(family, p, d, n)
        etas = zero_sum(p**t, h)
        D = construct_partition_bh(ring, t, etas.exps, h)
        report(f"partition {ring.describe()} t={t} h={h}", D)

    for family, p, d, n, h in [("galois", 2, 1, 2, 6),
                               ("galois", 3, 1, 2, 6),
                               ("truncated", 3, 1, 2, 6)]:
        ring = chain_ring(family, p, d, n)
        scheme = solve_coefficient_scheme(ring, h)
        D = construct_line_bh(ring, scheme)
        report(f"lines {ring.describe()} h={h}", D)


if __name__ == "__main__":
    main()
