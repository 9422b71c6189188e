import itertools

import pytest

from chaintop import (
    AxiomViolation,
    CapExceeded,
    FinitePoset,
    IndexOutOfRange,
    PosetMap,
    antichain_poset,
    bounds,
    build_poset,
    chain_poset,
    classify,
    cone,
    dm_closure,
    extremum,
    is_cut_stable,
    is_directed,
    maximal_chains,
)
from chaintop.suite import m3_poset, v_poset


def brute_force_relation(P):
    """Independent reading of the relation as a set of pairs."""
    return {(x, y) for x in range(P.n) for y in range(P.n) if P.leq(x, y)}


def test_hasse_covers_takes_transitive_closure():
    P = build_poset(3, [(0, 1), (1, 2)], "hasse-covers")
    assert P.leq(0, 2)
    assert not P.leq(2, 0)


def test_full_relation_antisymmetry_witness_is_lexicographically_smallest():
    with pytest.raises(AxiomViolation) as exc:
        build_poset(2, [(0, 1), (1, 0)], "full-relation")
    assert exc.value.axiom == "antisymmetric"
    assert exc.value.witness == (0, 1)


def test_full_relation_transitivity_violation():
    with pytest.raises(AxiomViolation) as exc:
        build_poset(3, [(0, 1), (1, 2)], "full-relation")
    assert exc.value.axiom == "transitive"
    assert exc.value.witness == (0, 2)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_poset(2, [(0, 5)])


def test_size_cap():
    with pytest.raises(CapExceeded):
        build_poset(17, [])
    with pytest.raises(CapExceeded):
        FinitePoset(17, tuple(1 << x for x in range(17)))


def test_m3_relation_size():
    # hand-enumeration oracle: 5 reflexive pairs, four pairs under the
    # top, three over the bottom
    M3 = m3_poset()
    expected = {(x, x) for x in range(5)}
    expected |= {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}
    assert brute_force_relation(M3) == expected
    assert len(expected) == 12


@pytest.mark.parametrize(
    "subset,direction,expected",
    [
        ({1}, "down", {0, 1}),
        ({1}, "strict-up", {2}),
        ({1}, "up", {1, 2}),
        ({1, 2}, "strict-down", {0, 1}),
    ],
)
def test_cone_on_three_chain(subset, direction, expected):
    assert cone(chain_poset(3), subset, direction) == expected


def test_cone_on_m3():
    assert cone(m3_poset(), {1}, "up") == {1, 4}


def test_cone_idempotent_and_monotone():
    M3 = m3_poset()
    for mask in range(1 << 5):
        s = {i for i in range(5) if mask >> i & 1}
        down = cone(M3, s, "down")
        assert cone(M3, down, "down") == down
        assert s <= down or not s


def test_bounds():
    M3 = m3_poset()
    assert bounds(M3, {1, 2}, "upper") == {4}
    assert bounds(chain_poset(3), {0, 2}, "upper") == {2}
    assert bounds(chain_poset(3), set(), "upper") == {0, 1, 2}


def test_extremum():
    assert extremum(chain_poset(3), {0, 1}, "sup") == 1
    assert extremum(v_poset(), {0, 1}, "sup") is None
    assert extremum(m3_poset(), {1, 2}, "sup") == 4
    assert extremum(chain_poset(4), set(), "sup") == 0
    assert extremum(antichain_poset(2), set(), "sup") is None


def test_extremum_is_least_upper_bound():
    # cross-check against the definition on every subset of M3
    M3 = m3_poset()
    for mask in range(1 << 5):
        s = {i for i in range(5) if mask >> i & 1}
        ub = bounds(M3, s, "upper")
        sup = extremum(M3, s, "sup")
        if sup is None:
            assert not ub or all(any(not M3.leq(u, v) for v in ub) for u in ub)
        else:
            assert sup in ub
            assert all(M3.leq(sup, v) for v in ub)


def test_classify_four_chain():
    c = classify(chain_poset(4))
    assert c.as_dict() == {
        "is_chain": True,
        "is_lattice": True,
        "order_dense": False,
        "complete": True,
        "conditionally_complete": True,
        "up_complete": True,
    }


def test_classify_v_poset_not_conditionally_complete():
    assert not classify(v_poset()).conditionally_complete


def test_classify_singleton_is_order_dense():
    assert classify(build_poset(1, [])).order_dense


def test_classify_antichain():
    c = classify(antichain_poset(2))
    assert not c.is_chain
    assert not c.complete
    assert c.up_complete
    assert c.conditionally_complete


def test_is_directed():
    M3 = m3_poset()
    assert not is_directed(M3, {1, 2})
    assert is_directed(M3, {1, 4})
    assert not is_directed(M3, set())


def test_maximal_chains():
    assert maximal_chains(chain_poset(3)) == [frozenset({0, 1, 2})]
    assert maximal_chains(antichain_poset(2)) == [frozenset({0}), frozenset({1})]
    chains = maximal_chains(m3_poset())
    assert chains == [frozenset({0, 1, 4}), frozenset({0, 2, 4}), frozenset({0, 3, 4})]


def test_maximal_chains_cover_and_are_maximal():
    for P in (m3_poset(), v_poset(), chain_poset(5)):
        chains = maximal_chains(P)
        covered = set().union(*chains)
        assert covered == set(range(P.n))
        for c in chains:
            for extra in set(range(P.n)) - c:
                assert not P.is_chain_mask(P.as_mask(c | {extra}))


def test_dm_closure_examples():
    C4 = chain_poset(4)
    assert dm_closure(C4, {1, 2}) == {0, 1, 2}
    assert dm_closure(C4, set()) == {0}
    assert dm_closure(C4, {3}) == {0, 1, 2, 3}


def test_dm_closure_is_a_closure_operator():
    for P in (chain_poset(5), m3_poset(), v_poset()):
        subsets = [frozenset(s) for r in range(P.n + 1) for s in itertools.combinations(range(P.n), r)]
        for a in subsets:
            ca = dm_closure(P, a)
            assert a <= ca
            assert dm_closure(P, ca) == ca
        for a in subsets:
            for b in subsets:
                if a <= b:
                    assert dm_closure(P, a) <= dm_closure(P, b)


def test_cut_stability():
    C3 = chain_poset(3)
    C2 = chain_poset(2)
    assert is_cut_stable(PosetMap(C3, C3, (0, 1, 2)))
    assert is_cut_stable(PosetMap(C2, C3, (0, 2)))
    assert is_cut_stable(PosetMap(antichain_poset(2), build_poset(1, []), (0, 0)))


def test_cut_stability_can_fail():
    # collapsing a diamond onto a chain breaks one of the polarities
    M3 = m3_poset()
    C2 = chain_poset(2)
    found_unstable = any(
        not is_cut_stable(PosetMap(M3, C2, image))
        for image in itertools.product((0, 1), repeat=5)
    )
    assert found_unstable


def test_poset_map_validates_image():
    with pytest.raises(IndexOutOfRange):
        PosetMap(chain_poset(2), chain_poset(2), (0, 5))
    with pytest.raises(IndexOutOfRange):
        PosetMap(chain_poset(2), chain_poset(2), (0,))


def test_accepted_posets_satisfy_all_axioms():
    import random

    rng = random.Random("axioms")
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        P = build_poset(n, pairs, "hasse-covers")
        for x in range(n):
            assert P.leq(x, x)
            for y in range(n):
                if P.leq(x, y) and P.leq(y, x):
                    assert x == y
                for z in range(n):
                    if P.leq(x, y) and P.leq(y, z):
                        assert P.leq(x, z)


def test_cyclic_covers_rejected():
    with pytest.raises(AxiomViolation) as exc:
        build_poset(3, [(0, 1), (1, 2), (2, 0)], "hasse-covers")
    assert exc.value.axiom == "antisymmetric"


def test_chain_suprema_are_maxima():
    for n in range(1, 7):
        P = chain_poset(n)
        assert classify(P).is_chain
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            assert extremum(P, members, "sup") == max(members)
