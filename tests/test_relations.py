import itertools
from fractions import Fraction

import pytest

from chaintop import (
    COMPACT,
    SUP_OF_STRICT_DOWNSET,
    CapExceeded,
    FiniteChain,
    NotAChain,
    OMEGA,
    antichain_poset,
    build_poset,
    chain_poset,
    chain_way_below,
    corollary3_report,
    is_completely_distributive,
    make_chain,
    theorem2_dichotomy,
    way_below,
    way_below_report,
    way_way_below,
    way_way_below_set,
)
from chaintop import definitions
from chaintop.suite import m3_poset, n5_poset


def directed_subsets_with_sup(P):
    """Independent enumeration used to cross-check the cached kernel."""
    out = []
    for r in range(1, P.n + 1):
        for combo in itertools.combinations(range(P.n), r):
            s = set(combo)
            directed = all(
                any(P.leq(a, z) and P.leq(b, z) for z in s) for a in s for b in s
            )
            if not directed:
                continue
            ubs = [u for u in range(P.n) if all(P.leq(x, u) for x in s)]
            sups = [u for u in ubs if all(P.leq(u, v) for v in ubs)]
            if sups:
                out.append((frozenset(s), sups[0]))
    return out


def test_directed_enumeration_matches_cached_kernel():
    for P in (chain_poset(4), m3_poset(), n5_poset()):
        expected = {(s, sup) for s, sup in directed_subsets_with_sup(P)}
        got = {
            (frozenset(i for i in range(P.n) if mask >> i & 1), sup)
            for mask, sup in P.directed_with_sup
        }
        assert got == expected


def test_way_below_on_three_chain():
    C3 = chain_poset(3)
    assert way_below(C3, 0, 1)
    assert not way_below(C3, 2, 1)
    assert way_below(C3, 1, 1)


def test_way_below_cap():
    # the size cap is checked where a poset is built, so no kernel meets
    # a 17-point poset
    with pytest.raises(CapExceeded):
        chain_poset(17)


def test_way_below_equals_order_on_finite_posets():
    for P in (chain_poset(5), m3_poset(), n5_poset(), antichain_poset(3)):
        for x in range(P.n):
            for y in range(P.n):
                assert definitions.way_below(P, x, y) == P.leq(x, y)


def test_way_below_report_invariants():
    rep = way_below_report(m3_poset())
    assert rep.compact == {0, 1, 2, 3, 4}
    d = rep.as_dict()
    assert d["n"] == 5 and len(d["ll"]) == 5


def test_chain_way_below_examples():
    rat = make_chain("rat01")
    assert chain_way_below(rat, Fraction(1, 4), Fraction(1, 2))
    assert not chain_way_below(rat, Fraction(1, 2), Fraction(1, 2))
    assert not chain_way_below(rat, Fraction(1, 2), Fraction(1, 4))
    assert chain_way_below(make_chain("int"), 5, 5)


def test_chain_way_below_agrees_with_oracle_on_finite_chains():
    for n in range(1, 8):
        P = chain_poset(n)
        C = FiniteChain(n)
        for x in range(n):
            for y in range(n):
                assert chain_way_below(C, x, y) == definitions.way_below(P, x, y)


def test_theorem2_examples():
    assert theorem2_dichotomy(make_chain("omega+1"), OMEGA) == SUP_OF_STRICT_DOWNSET
    assert theorem2_dichotomy(chain_poset(4), 2) == COMPACT
    sp = make_chain("split")
    assert theorem2_dichotomy(sp, (Fraction(1, 2), 1)) == COMPACT
    assert theorem2_dichotomy(sp, (Fraction(1, 2), 0)) == SUP_OF_STRICT_DOWNSET


def test_theorem2_rejects_non_chains():
    with pytest.raises(NotAChain):
        theorem2_dichotomy(m3_poset(), 0)


def test_theorem2_exhaustive_on_finite_chains():
    for n in range(1, 8):
        P = chain_poset(n)
        for x in range(n):
            assert theorem2_dichotomy(P, x) == COMPACT  # finite chains are all-compact


def test_way_way_below():
    M3 = m3_poset()
    assert not way_way_below(M3, 1, 4)  # the atoms miss {b, c}
    C3 = chain_poset(3)
    assert way_way_below(C3, 0, 2)
    assert not way_way_below(C3, 2, 1)


def test_way_way_below_implies_way_below():
    for P in (chain_poset(5), m3_poset(), n5_poset()):
        for x in range(P.n):
            for y in range(P.n):
                if definitions.way_way_below(P, x, y):
                    assert definitions.way_below(P, x, y)


def test_completely_distributive():
    for n in range(1, 7):
        assert is_completely_distributive(chain_poset(n))
    assert not is_completely_distributive(m3_poset())
    assert not is_completely_distributive(n5_poset())


def test_completely_distributive_witnesses():
    # frozen from the exhaustive subset oracle
    assert way_way_below_set(m3_poset(), 4) == {0}
    assert way_way_below_set(n5_poset(), 2) == {0, 1}


def test_continuous_poset():
    assert definitions.is_continuous_poset(chain_poset(4))
    assert definitions.is_continuous_poset(m3_poset())
    assert definitions.is_continuous_poset(n5_poset())
    # every poset on up to 3 points is continuous
    for pairs in itertools.chain.from_iterable(
        itertools.combinations([(0, 1), (0, 2), (1, 2)], r) for r in range(4)
    ):
        P = build_poset(3, list(pairs), "hasse-covers")
        assert definitions.is_continuous_poset(P)


def test_hyper_prec():
    C3 = chain_poset(3)
    assert definitions.hyper_prec(C3, 1, 2)
    assert not definitions.hyper_prec(C3, 2, 1)
    assert definitions.hyper_prec(m3_poset(), 1, 1)


def test_hypercontinuous():
    for n in range(1, 8):
        assert definitions.is_hypercontinuous(chain_poset(n))
    assert definitions.is_hypercontinuous(m3_poset())
    assert definitions.is_hypercontinuous(build_poset(1, []))


def test_corollary3_reports():
    rep = corollary3_report(make_chain("rat01"), samples=60, seed=1)
    assert (rep.cond1, rep.cond2, rep.order_dense, rep.conditionally_complete) == (
        True,
        True,
        True,
        False,
    )
    rep = corollary3_report(make_chain("int"), samples=60, seed=1)
    assert (rep.cond1, rep.cond2, rep.order_dense, rep.conditionally_complete) == (
        False,
        False,
        False,
        True,
    )
    rep = corollary3_report(chain_poset(2))
    assert not rep.cond1 and not rep.cond2
    rep = corollary3_report(FiniteChain(1))
    assert rep.cond1 and rep.cond2 and rep.order_dense


def test_corollary3_rejects_non_chains():
    with pytest.raises(NotAChain):
        corollary3_report(m3_poset())


def test_corollary3_report_serializes():
    d = corollary3_report(make_chain("dyadic01"), samples=40).as_dict()
    assert set(d) == {"cond1", "cond2", "order_dense", "conditionally_complete"}
