"""The three constructions of group-invariant Butson Hadamard matrices.

1. Gauss-sum building blocks over a cyclic group, assembled along coset
   representatives of a normal cyclic subgroup (works for non-abelian G).
2. A partition of R x R induced by the map x = pi^k u -> pi^k u^{-1} over a
   finite local chain ring R, weighted by a vanishing sum of roots of unity.
3. A cover of R x R by the line subgroups {(x, xr)} and {(xs, x)}, weighted
   by a coefficient scheme solved over the coset chain of R.

Every constructor returns a `groups.Unimodular`, one exponent per element of
the group, and verifies it exactly before returning it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cyclotomic import CycInt, is_zero, reduce_rows, reduction_matrix
from .errors import (
    BadEtaSum,
    BadH,
    BadT,
    InvalidParams,
    NoDecomposition,
    NoScheme,
    NoSolution,
    NotNormal,
    SchemeViolation,
    SelfCheckFailed,
    UnsupportedAction,
    UnsupportedRing,
    WrongSubgroupOrder,
    _check_fits,
)
from .groups import FiniteGroup, Unimodular, make_abelian, make_cyclic
from .verify import verify_group_ring

if TYPE_CHECKING:  # constructions 2 and 3 take a ring; construction 1 loads neither module
    from .rings import ChainRing


def _nu2(x: int) -> int:
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


def min_h(n: int) -> int:
    """Smallest h with h^2 = 0 mod n, excluding the 2-adic pair (1,1)."""
    h = 1
    while True:
        if (h * h) % n == 0 and not (_nu2(n) == 1 and _nu2(h) == 1):
            return h
        h += 1


def block_count(n: int, h: int) -> int:
    return n // h if _nu2(n) != 1 else 2 * n // h


@dataclass(frozen=True)
class BlockParams:
    n: int
    h: int
    k: int
    case: str  # EvenVal | OddValGe3 | Val1
    l: int
    m: int

    @classmethod
    def plan(cls, n: int, m: int = 1) -> "BlockParams":
        if n < 1:
            raise InvalidParams("n must be positive")
        if math.gcd(m, n) != 1:
            raise InvalidParams(f"multiplier m={m} not coprime to n={n}")
        h = min_h(n)
        v = _nu2(n)
        k = block_count(n, h)
        if v == 1:
            case, l = "Val1", h // (4 * k)
        elif v % 2 == 0:
            case, l = "EvenVal", h // k
        else:
            case, l = "OddValGe3", h // (2 * k)
        if l % 2 != 1:
            raise SelfCheckFailed(f"block plan for n={n} has even l={l}")
        return cls(n, h, k, case, l, m)


def build_blocks(params: BlockParams) -> list[Unimodular]:
    """k blocks over Z_{n/k} with pairwise-vanishing cross products."""
    n, h, k, m = params.n, params.h, params.k, params.m
    group = make_cyclic(n // k)
    blocks = []
    for i in range(k):
        if params.case == "EvenVal":
            exps = [(j * j * k + m * i * j) % h for j in range(h)]
        elif params.case == "OddValGe3":
            exps = [(j * j * k // 2 + m * i * j) % h for j in range(h)]
        else:  # Val1: group order h/2, doubled off-diagonal term
            exps = [(j * j * k + 2 * m * i * j) % h for j in range(h // 2)]
        blocks.append(Unimodular(group, h, exps))
    return blocks


def construct_group_bh(
    G: FiniteGroup, subgroup_generator: int, h: int, m: int = 1
) -> Unimodular:
    """BH element over G from blocks along a normal cyclic subgroup."""
    n = G.order
    h0 = min_h(n)
    if h < 1 or h % h0 != 0:
        raise BadH(f"h={h} is not a positive multiple of the minimal order {h0} for n={n}")
    _check_fits(h, f"the reduction matrix for h={h}")
    k = block_count(n, h0)
    S, reps, t = _right_cosets(G, subgroup_generator, n // k)
    if len(reps) != k:
        raise SelfCheckFailed(f"{len(reps)} coset representatives for {k} blocks")
    deal = deal_blocks(t, k)
    B = np.array([b.e for b in build_blocks(BlockParams.plan(n, m))], dtype=np.int64)  # scaled by h / h0 below
    # entry j of the block dealt to coset a is the coefficient of g^j r_a, g the generator
    e = np.zeros(n, dtype=np.int64)
    e[S[:, reps]] = B[deal].T * (h // h0)
    return _self_checked(Unimodular(G, h, e))


def _right_cosets(G: FiniteGroup, g: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, reps, t for the right cosets <g> x of a normal <g> of the given order.

    S[j, x] = g^j x, so column x is the coset of x.  reps holds the least
    element of each coset, ascending, and t_a is the j with r_a g = g^j r_a.
    Raises WrongSubgroupOrder or NotNormal.  Conjugation by the
    representatives is the whole test of normality: they and g generate G.
    """
    step = G.rows([g])[0].tolist()  # x -> g x
    powers, x = [0], g
    while x != 0:
        powers.append(x)
        x = step[x]
    if len(powers) != order:
        raise WrongSubgroupOrder(f"need a cyclic subgroup of order {order}, got order {len(powers)}")
    S = G.rows(powers)
    reps = np.flatnonzero(np.bincount(S.min(axis=0), minlength=G.order))  # np.unique would load numpy.ma
    rg = G.inverse[S[-1, G.inverse[reps]]]  # r g, as S[-1, r^(-1)] = g^(-1) r^(-1) = (r g)^(-1)
    hits = S[:, reps] == rg
    if not hits.any(axis=0).all():
        raise NotNormal("the chosen cyclic subgroup is not normal")
    return S, reps, hits.argmax(axis=0)


def deal_blocks(t, k: int) -> list[int]:
    """Block index i_a for each coset a, with the t_a i_a pairwise distinct mod k.

    Block i has nonzero character values only at the characters w = -m i
    (mod k) of <g>, and conjugating by r_a moves them to w = -m t_a i, so the
    cross term of cosets a != b vanishes when t_a i_a != t_b i_b (mod k).
    The deal i_a = a is kept where it meets this.  Otherwise each fibre
    {a : t_a = u}, u != 1, gets a set of indices closed under multiplication
    by u, which u then permutes, and the fibre u = 1 takes the rest.
    """
    t = [int(u) % k for u in t]
    if len({u * a % k for a, u in enumerate(t)}) == k:
        return list(range(k))
    fibres: dict[int, list[int]] = {}
    for a, u in enumerate(t):
        fibres.setdefault(u, []).append(a)
    units = [u for u in fibres if u != 1]  # k > 1 here: k = 1 keeps the deal above
    failed: set = set()

    def place(j: int, free: frozenset) -> dict | None:
        if j == len(units):
            return {1: free}
        if (j, free) not in failed:
            for S in _closed_subsets(units[j], k, free, len(fibres[units[j]])):
                rest = place(j + 1, free - S)
                if rest is not None:
                    return {units[j]: S, **rest}
            failed.add((j, free))
        return None

    sets = place(0, frozenset(range(k)))
    if sets is None:
        raise UnsupportedAction(
            f"no deal of the {k} blocks gives each action in {sorted(fibres)} mod {k} a set of blocks it permutes"
        )
    deal = [0] * k
    for u, cosets in fibres.items():
        for a, i in zip(cosets, sorted(sets[u])):
            deal[a] = i
    return deal


def _closed_subsets(u: int, k: int, free: frozenset, size: int):
    """Each union of the orbits of x -> u x inside `free` that has `size` elements."""
    orbits, seen = [], set()
    for x in sorted(free):
        if x not in seen:
            orbit, y = {x}, u * x % k
            while y != x:
                orbit.add(y)
                y = u * y % k
            seen |= orbit
            if orbit <= free:
                orbits.append(frozenset(orbit))
    orbits.sort(key=len, reverse=True)
    reach = [1] * (len(orbits) + 1)  # bit s of reach[j]: some orbits[j:] sum to s
    for j in range(len(orbits) - 1, -1, -1):
        reach[j] = reach[j + 1] | reach[j + 1] << len(orbits[j])

    def pick(j: int, r: int):
        if r == 0:
            yield frozenset()
        elif reach[j] >> r & 1:
            if len(orbits[j]) <= r and reach[j + 1] >> (r - len(orbits[j])) & 1:
                for rest in pick(j + 1, r - len(orbits[j])):
                    yield orbits[j] | rest
            yield from pick(j + 1, r)

    yield from pick(0, size)


def _self_checked(D: Unimodular) -> Unimodular:
    """D itself, once D D^(-1) = |G| holds exactly; survives python -O."""
    if not verify_group_ring(D):
        raise SelfCheckFailed(f"the element built over {D.group.descriptor} fails D D^(-1) = |G|")
    return D


def find_normal_cyclic_generator(G: FiniteGroup, order: int) -> int:
    """Generator of a normal cyclic subgroup of the given order, or raise."""
    for g in G.elements():
        try:
            _right_cosets(G, g, order)
        except (WrongSubgroupOrder, NotNormal):
            continue
        return g
    raise WrongSubgroupOrder(f"no normal cyclic subgroup of order {order} in G")


# -- construction 2: partition of R x R --------------------------------------


def partition_R(R: ChainRing, t: int, seed: int | None = None) -> list[list]:
    """Partition R into p^t parts meeting every coset of I^(n-1) equally.

    Cosets are enumerated canonically and their elements dealt round-robin;
    a seed shuffles the within-coset order to explore alternative partitions.
    """
    check_t(R, t)
    parts: list[list] = [[] for _ in range(R.p**t)]
    cosets = _top_ideal_cosets(R)
    rng = random.Random(seed) if seed is not None else None
    slot = 0
    for coset in cosets:
        if rng is not None:
            rng.shuffle(coset)
        for y in coset:
            parts[slot % len(parts)].append(y)
            slot += 1
    _check_partition(cosets, parts, R.p ** (R.d - t))
    return parts


def check_t(R: ChainRing, t: int) -> None:
    """Refuse a partition parameter t outside 1..d."""
    if not 1 <= t <= R.d:
        raise BadT(f"t must be in 1..{R.d}, got {t}")


def _top_ideal_cosets(R: ChainRing) -> list[list]:
    """The cosets of I^(n-1), ordered by their first element, each sorted by R.index."""
    ideal = R.ideal_elements(R.n - 1)
    cosets: list[list] = []
    seen = set()
    for x in R.elements:
        if x in seen:
            continue
        coset = sorted((R.add(x, j) for j in ideal), key=R.index.get)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def _check_partition(cosets, parts, expected: int) -> None:
    for part in parts:
        pset = set(part)
        for coset in cosets:
            if sum(1 for y in coset if y in pset) != expected:
                raise BadT("partition does not meet a coset of I^(n-1) evenly")


def ring_square_group(R: ChainRing):
    """Additive group of R x R with element index (x, y) -> idx(x)*|R|+idx(y)."""
    G = make_abelian(R.additive_factors * 2)
    index = R.index

    def pair_index(x, y) -> int:
        return index[x] * R.size + index[y]

    return G, pair_index


def construct_partition_bh(
    R: ChainRing, t: int, etas: list[int], h: int, seed: int | None = None
) -> Unimodular:
    """BH element over (R x R, +) from a vanishing sum of p^t roots."""
    from .sums import SumWitness

    if len(etas) != R.p**t:
        raise BadEtaSum(f"need {R.p ** t} roots, got {len(etas)}")
    if not SumWitness(h, tuple(etas), None).check():
        raise BadEtaSum("the supplied roots do not sum to zero")
    G, _ = ring_square_group(R)  # refuses a too-large R x R first
    part_of = np.zeros(R.size, dtype=np.intp)
    for i, part in enumerate(partition_R(R, t, seed=seed)):
        part_of[[R.index[x] for x in part]] = i
    phi_idx = [R.index[R.phi(x)] for x in R.elements]
    # row x of the gather holds phi(x) y for every y: the entries (x, y), at idx(x) |R| + idx(y)
    e = np.array(etas)[part_of[R.mul_table[phi_idx]]]
    return _self_checked(Unimodular(G, h, e))


# -- construction 3: line family over R x R ----------------------------------


@dataclass(frozen=True)
class CoefficientScheme:
    """Root-of-unity families tied together over the coset chain of R.

    eta_r covers R, mu_s covers I, delta_u covers the transversals R_1..R_(n-1),
    and gamma_v covers pi R_0..pi R_(n-2) plus the extension gamma_v = mu_v on
    pi R_(n-1), which makes the top-level equation well defined when n = 2.
    """

    h: int
    eta: int
    eta_r: dict
    delta_u: dict
    mu_s: dict
    gamma_v: dict

    def gamma_extended(self, v) -> int:
        if v in self.gamma_v:
            return self.gamma_v[v]
        return self.mu_s[v]


def solve_coefficient_scheme(R: ChainRing, h: int) -> CoefficientScheme:
    """Top-down tree refinement of the scheme equations, verified exactly.

    The root values eta, delta_u (u in R_1) and gamma_0 come from one unit sum
    of length p^d + 1 (gamma_0 = sum of all mu_s must itself be a root of
    unity).  Refining a transversal node into the next level keeps the node's
    own value and gives its siblings a vanishing sum; the leaf levels eta_r
    and mu_s are free unit sums splitting their parent's value.
    """
    from .sums import unit_sum, zero_sum

    if R.n < 2:
        raise UnsupportedRing("the line-family construction needs chain length >= 2")
    ring_square_group(R)  # refuses a too-large R x R before the coset chain builds R's product table
    n, q = R.n, R.p**R.d
    chain = R.coset_chain()
    r1 = chain[1]
    pi_chain = [
        sorted({R.mul(R.pi, x) for x in level}, key=R.index.get) for level in chain
    ]

    try:
        top = unit_sum(q + 1, h, 0)
    except NoSolution as exc:
        raise NoScheme(f"no top-level split for h={h}: {exc}") from exc
    eta = 0
    delta = {u: top.exps[i] for i, u in enumerate(r1)}
    gamma = {R.zero: top.exps[q]}

    def children(node, level):
        return [R.add(node, R.mul(R.pow_pi(level), s)) for s in r1]

    def refine_internal(values: dict, nodes, level: int, step: int) -> None:
        # siblings of the node itself must carry a vanishing sum
        try:
            sibs = zero_sum(q - 1, h) if q > 1 else None
        except NoDecomposition as exc:
            raise NoScheme(
                f"no vanishing sum of length {q - 1} for h={h}: {exc}"
            ) from exc
        for node in list(nodes):
            kids = children(node, level + step)
            if kids[0] != node:
                raise SelfCheckFailed(f"the first child of node {node} at level {level + step} is not the node")
            for idx, kid in enumerate(kids[1:]):
                values[kid] = sibs.exps[idx]

    # delta tree: levels 1..n-1 over the transversal chain
    for i in range(1, n - 1):
        refine_internal(delta, chain[i], i, 0)
    # gamma tree: levels 0..n-2 over the pi-shifted chain
    for j in range(0, n - 2):
        refine_internal(gamma, pi_chain[j], j, 1)

    # leaves: eta_r on cosets u + I^(n-1), mu_s on cosets v + I^(n-1)
    ideal_min = sorted(R.ideal_elements(n - 1), key=R.index.get)
    eta_r: dict = {}
    for u in chain[n - 1]:
        try:
            w = unit_sum(q, h, delta[u])
        except NoSolution as exc:
            raise NoScheme(f"no unit sum of length {q} for h={h}: {exc}") from exc
        for idx, j in enumerate(ideal_min):
            eta_r[R.add(u, j)] = w.exps[idx]
    mu_s: dict = {}
    for v in pi_chain[n - 2]:
        try:
            w = unit_sum(q, h, gamma[v])
        except NoSolution as exc:
            raise NoScheme(f"no unit sum of length {q} for h={h}: {exc}") from exc
        for idx, j in enumerate(ideal_min):
            mu_s[R.add(v, j)] = w.exps[idx]

    scheme = CoefficientScheme(h, eta, eta_r, delta, mu_s, gamma)
    _check_scheme(R, scheme, chain, pi_chain)
    return scheme


def _check_scheme(R: ChainRing, s: CoefficientScheme, chain, pi_chain) -> None:
    """Re-verify every instance of the three equation families by is_zero."""
    h, n = s.h, R.n

    def root(e):
        return CycInt.root(h, e)

    for i in range(1, n):
        ideal = R.ideal_elements(i)
        for u in chain[i]:
            acc = CycInt.zero(h)
            for j in ideal:
                acc = acc + root(s.eta_r[R.add(u, j)])
            if not is_zero(acc - root(s.delta_u[u])):
                raise NoScheme(f"first-family equation fails at level {i}")
    for j in range(0, n - 1):
        ideal = R.ideal_elements(j + 1)
        for v in pi_chain[j]:
            acc = CycInt.zero(h)
            for w in ideal:
                acc = acc + root(s.mu_s[R.add(v, w)])
            if not is_zero(acc - root(s.gamma_extended(v))):
                raise NoScheme(f"second-family equation fails at level {j}")
    acc = CycInt.zero(h)
    for u in chain[1]:
        acc = acc + root(s.delta_u[u])
    # for n = 2 the sum over pi R_1 reads through the extension gamma_v = mu_v
    for v in pi_chain[1]:
        acc = acc + root(s.gamma_v[v] if n > 2 else s.mu_s[v])
    if not is_zero(acc - root(s.eta)):
        raise NoScheme("top-level equation fails")


def construct_line_bh(R: ChainRing, scheme: CoefficientScheme) -> Unimodular:
    """BH element over (R x R, +) from the weighted line family."""
    h = scheme.h
    G, pair_index = ring_square_group(R)
    n, T = R.size, R.mul_table
    x = np.arange(n)[:, None]
    I = [R.index[r] for r in scheme.eta_r]
    J = [R.index[s] for s in scheme.mu_s]
    # column r of the product table holds x r for every x: the cells (x, x r), then (x s, x)
    cells = np.concatenate([x * n + T[:, I], T[:, J] * n + x], axis=1)
    roots = np.array([*scheme.eta_r.values(), *scheme.mu_s.values()]) % h
    hist = np.bincount((cells * h + roots).ravel(), minlength=G.order * h).reshape(G.order, h)
    exps = _collapse_to_roots(hist)
    if exps[pair_index(R.zero, R.zero)] != scheme.eta:
        raise SchemeViolation("coefficient of (0,0) does not equal eta")
    return _self_checked(Unimodular(G, h, exps))


def _collapse_to_roots(hist: np.ndarray) -> list[int]:
    """For each row of an (N, h) coefficient array, the e with row = zeta_h^e.

    The reduced rows of distinct roots are distinct, so one reduction and a
    lookup among the rows of the reduction matrix decide every coefficient.
    """
    roots = {tuple(r): e for e, r in enumerate(reduction_matrix(hist.shape[1]).tolist())}
    exps = []
    for i, row in enumerate(reduce_rows(hist).tolist()):
        e = roots.get(tuple(row))
        if e is None:
            raise SchemeViolation(f"coefficient {i} did not collapse to a root")
        exps.append(e)
    return exps
