"""Differential tests: topologies stored as least neighbourhoods U_x
against the family-closure construction, which materializes every open
set by closing a seed family under pairwise union and intersection;
the pointwise separation checks against the subspace-by-subspace
definition of (hereditary) normality; and every failure witness against
the definition of its property."""

import itertools
import random

import pytest

from chaintop import (
    CANONICAL_NAMES,
    AxiomViolation,
    NotATopology,
    Topology,
    antichain_poset,
    build_poset,
    canonical_topology,
    chain_poset,
    classify,
    generate_topology,
    has_order_convex_basis,
    join_topologies,
    product_topology,
    separation_report,
    subspace_topology,
    way_way_below_set,
)
from chaintop import definitions
from chaintop.bitsets import elements, full_mask, mask_of
from chaintop.poset import conditional_completeness_failure
from chaintop.relations import distributivity_failure
from chaintop.topology import (
    complete_normality_failure,
    is_order_convex_mask,
    normality_failure,
    pospace_failure,
)


def close_family(n, seed):
    """Unions of finite intersections of the seed, plus empty and full."""
    fam = set(seed)
    fam.add(0)
    fam.add(full_mask(n))
    for op in (int.__and__, int.__or__):
        changed = True
        while changed:
            changed = False
            current = list(fam)
            for i, a in enumerate(current):
                for b in current[i + 1 :]:
                    c = op(a, b)
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return frozenset(fam)


def is_closed_family(n, fam):
    """The pairwise closure axioms, checked member by member."""
    if 0 not in fam or full_mask(n) not in fam:
        return False
    return all(a | b in fam and a & b in fam for a in fam for b in fam)


def scott_family(P):
    """Upper sets meeting every directed set whose supremum they contain."""
    return definitions.scott_topology(P).opens


def family_topology(P, name):
    """The open family of each canonical name, by family closure."""
    upper = close_family(P.n, [P.full & ~P.down[x] for x in range(P.n)])
    lower = close_family(P.n, [P.full & ~P.up[x] for x in range(P.n)])
    rays = [P.strict_up(x) for x in range(P.n)] + [P.strict_down(x) for x in range(P.n)]
    pieces = [P.strict_up(a) & P.strict_down(b) for a in range(P.n) for b in range(P.n)]
    families = {
        "upper": lambda: upper,
        "lower": lambda: lower,
        "scott": lambda: scott_family(P),
        "dual_scott": lambda: scott_family(P.dual),
        "intrinsic": lambda: close_family(P.n, upper | lower),
        "interval": lambda: close_family(P.n, upper | lower),
        "order": lambda: close_family(P.n, rays),
        "open_interval": lambda: close_family(P.n, rays + pieces),
        "lawson": lambda: close_family(P.n, scott_family(P) | lower),
        "dual_lawson": lambda: close_family(P.n, scott_family(P.dual) | upper),
        "bi_scott": lambda: close_family(P.n, scott_family(P) | scott_family(P.dual)),
    }
    return families[name]()


def random_posets(count, max_n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        density = rng.uniform(0.1, 0.7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(build_poset(n, [(perm[i], perm[j]) for i, j in pairs], "hasse"))
    return out


POSETS = random_posets(40, 7, seed=3) + [chain_poset(6), antichain_poset(5)]


def random_subbasis(rng, n):
    return [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_canonical_opens_match_family_closure(name):
    for P in POSETS:
        assert canonical_topology(P, name).opens == family_topology(P, name), (P.up, name)


def test_generate_and_join_match_family_closure():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        a, b = random_subbasis(rng, n), random_subbasis(rng, n)
        T1, T2 = generate_topology(n, a), generate_topology(n, b)
        assert T1.opens == close_family(n, a)
        assert join_topologies(T1, T2).opens == close_family(n, T1.opens | T2.opens)


def test_subspace_matches_restricted_family():
    rng = random.Random(11)
    for P in POSETS:
        for name in ("upper", "lower", "scott", "order"):
            T = canonical_topology(P, name)
            subset = mask_of(x for x in range(P.n) if rng.random() < 0.6)
            index = {p: i for i, p in enumerate(elements(subset))}
            restricted = {mask_of(index[p] for p in elements(u & subset)) for u in T.opens}
            assert subspace_topology(T, elements(subset)).opens == restricted


def test_product_matches_rectangle_closure():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 10 // n)  # closing the rectangles costs 2^(n*m)
        T1 = generate_topology(n, random_subbasis(rng, n))
        T2 = generate_topology(m, random_subbasis(rng, m))
        rects = {
            mask_of(x * m + y for x in elements(u) for y in elements(v))
            for u in T1.opens
            for v in T2.opens
        }
        assert product_topology(T1, T2).opens == close_family(n * m, rects)


def test_open_interior_and_convex_basis_match_the_family():
    rng = random.Random(19)
    for P in POSETS:
        generated = generate_topology(P.n, random_subbasis(rng, P.n))
        for T in [canonical_topology(P, name) for name in ("upper", "scott", "order")] + [generated]:
            for mask in range(1 << P.n):
                assert T.is_open_mask(mask) == (mask in T.opens)
                inside = [u for u in T.opens if not u & ~mask]
                assert T.interior_mask(mask) == mask_of(x for u in inside for x in elements(u))
            convex = [u for u in T.opens if is_order_convex_mask(P, u)]
            by_definition = all(
                any(v >> x & 1 and not v & ~u for v in convex)
                for u in T.opens
                for x in elements(u)
            )
            assert has_order_convex_basis(P, T) == by_definition


def test_from_opens_accepts_exactly_the_closed_families():
    rng = random.Random(17)
    n = 3
    for _ in range(400):
        fam = frozenset(m for m in range(1 << n) if rng.random() < 0.5)
        if is_closed_family(n, fam):
            assert Topology.from_opens(n, fam).opens == fam
        else:
            with pytest.raises(ValueError):
                Topology.from_opens(n, fam)


def test_least_neighbourhood_vector_is_validated():
    with pytest.raises(ValueError):
        Topology(2, (0b10, 0b10))  # 0 is missing from its own neighbourhood
    with pytest.raises(ValueError):
        Topology(3, (0b011, 0b110, 0b100))  # 1 lies in U_0 but U_1 does not
    with pytest.raises(ValueError):
        Topology(2, (0b11,))  # one neighbourhood for two points


@pytest.fixture(scope="module")
def chain16():
    return chain_poset(16)  # the poset cap


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_canonical_topologies_build_at_the_poset_cap(chain16, name):
    T = canonical_topology(chain16, name)
    assert T.n == 16
    if name not in ("upper", "lower", "scott", "dual_scott"):
        assert T.minimal == tuple(1 << x for x in range(16))


def all_topologies(n):
    """Every topology on n labelled points, one per valid U_x vector."""
    choices = [[u | 1 << x for u in range(1 << n) if not u >> x & 1] for x in range(n)]
    out = []
    for minimal in itertools.product(*choices):
        try:
            out.append(Topology(n, minimal))
        except NotATopology:
            pass
    return out


def all_posets(n):
    """Every partial order on n labelled points."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        try:
            out.append(build_poset(n, [p for p, c in zip(pairs, chosen) if c], "full"))
        except AxiomViolation:
            pass
    return out


SMALL_TOPOLOGIES = [T for n in range(5) for T in all_topologies(n)]
POSETS8 = random_posets(24, 8, seed=23) + [chain_poset(8), antichain_poset(8)]


def least_open(T, mask):
    """The intersection of every open set containing the mask."""
    out = T.full
    for u in T.opens:
        if not mask & ~u:
            out &= u
    return out


def closure(T, mask):
    """The intersection of every closed set containing the mask."""
    out = T.full
    for u in T.opens:
        if not u & mask:
            out &= ~u
    return out


def normal_on(T, space):
    """The subspace on ``space`` is normal: every two disjoint closed sets
    of it have disjoint least open sets around them there."""
    opens = {u & space for u in T.opens}
    hulls = {}
    for a in {space & ~u for u in opens}:
        h = space
        for u in opens:
            if not a & ~u:
                h &= u
        hulls[a] = h
    closed = list(hulls)
    return all(
        a & b or not hulls[a] & hulls[b]
        for i, a in enumerate(closed)
        for b in closed[i + 1 :]
    )


def separation_by_definition(T):
    return {
        "normal": normal_on(T, T.full),
        "completely_normal": all(normal_on(T, s) for s in range(1 << T.n)),
    }


def test_there_are_390_topologies_on_at_most_4_points():
    assert [sum(1 for T in SMALL_TOPOLOGIES if T.n == n) for n in range(5)] == [1, 1, 4, 29, 355]


def test_pointwise_normality_matches_every_subspace_on_small_carriers():
    for T in SMALL_TOPOLOGIES:
        rep = separation_report(T).as_dict()
        assert {k: rep[k] for k in ("normal", "completely_normal")} == separation_by_definition(T), T


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_pointwise_normality_matches_every_subspace_on_8_points(name):
    for P in POSETS8:
        T = canonical_topology(P, name)
        rep = separation_report(T).as_dict()
        assert {k: rep[k] for k in ("normal", "completely_normal")} == separation_by_definition(T), P.up


def test_normality_witnesses_are_genuine():
    for T in SMALL_TOPOLOGIES + [canonical_topology(P, "upper") for P in POSETS8]:
        pair = normality_failure(T)
        if pair is not None:
            a, b = (closure(T, 1 << p) for p in pair)
            assert not a & b and least_open(T, a) & least_open(T, b), (T, pair)
        pair = complete_normality_failure(T)
        if pair is not None:
            a, b = pair
            assert not closure(T, 1 << a) >> b & 1 and not closure(T, 1 << b) >> a & 1, (T, pair)
            assert least_open(T, 1 << a) & least_open(T, 1 << b), (T, pair)


def test_pospace_witnesses_are_genuine():
    # the order must be closed in the materialized product topology
    for n in range(4):
        for P in all_posets(n):
            graph = mask_of(x * n + y for x in range(n) for y in range(n) if P.leq(x, y))
            for T in all_topologies(n):
                hull = product_topology(T, T).closure_mask(graph)
                pair = pospace_failure(P, T)
                if pair is None:
                    assert hull == graph
                else:
                    x, y = pair
                    assert not P.leq(x, y) and hull >> (x * n + y) & 1


def test_distributivity_witnesses_are_genuine():
    for P in POSETS:
        sups = [P.sup_mask(P.as_mask(way_way_below_set(P, x))) for x in range(P.n)]
        fails = [x for x in range(P.n) if sups[x] != x]
        assert distributivity_failure(P) == (fails[0] if fails else None), P.up


def test_conditional_completeness_witnesses_are_genuine():
    for P in POSETS:
        mask = conditional_completeness_failure(P)
        bounded = [m for m in range(1, 1 << P.n) if P.upper_bounds_mask(m)]
        if mask is None:
            assert all(P.sup_mask(m) is not None for m in bounded), P.up
        else:
            ubs = [u for u in range(P.n) if all(P.leq(s, u) for s in elements(mask))]
            assert ubs and not any(all(P.leq(u, v) for v in ubs) for u in ubs), P.up
            assert all(P.sup_mask(m) is not None for m in bounded if m < mask), P.up


def test_classify_matches_the_subset_quantified_flags():
    for P in random_posets(60, 7, seed=29):
        complete = all(P.sup_mask(m) is not None for m in range(1 << P.n))
        conditionally_complete = all(
            P.sup_mask(m) is not None for m in range(1, 1 << P.n) if P.upper_bounds_mask(m)
        )
        up_complete = all(
            P.sup_mask(m) is not None for m in range(1, 1 << P.n) if P.is_directed_mask(m)
        )
        c = classify(P)
        assert (c.complete, c.conditionally_complete, c.up_complete) == (
            complete, conditionally_complete, up_complete
        ), P.up
