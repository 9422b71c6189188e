"""Differential tests: topologies stored as least neighbourhoods U_x
against the family-closure construction, which materializes every open
set by closing a seed family under pairwise union and intersection."""

import random

import pytest

from chaintop import (
    CANONICAL_NAMES,
    Topology,
    antichain_poset,
    build_poset,
    canonical_topology,
    chain_poset,
    generate_topology,
    has_order_convex_basis,
    join_topologies,
    product_topology,
    subspace_topology,
)
from chaintop.bitsets import elements, full_mask, mask_of
from chaintop.topology import PRODUCT_CARRIER_CAP, is_order_convex_mask


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
    dirs = P.directed_with_sup
    return frozenset(
        mask
        for mask in range(1 << P.n)
        if all(not P.up[x] & ~mask for x in elements(mask))
        and all(s_mask & mask for s_mask, s in dirs if mask >> s & 1)
    )


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
        m = rng.randint(1, PRODUCT_CARRIER_CAP // n)
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
    return chain_poset(16)  # the poset cap; shared so its directed sets are listed once


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_canonical_topologies_build_at_the_poset_cap(chain16, name):
    T = canonical_topology(chain16, name)
    assert T.n == 16
    if name not in ("upper", "lower", "scott", "dual_scott"):
        assert T.minimal == tuple(1 << x for x in range(16))
