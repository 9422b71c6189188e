from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chaintop import (
    OMEGA,
    ChainTopError,
    FiniteChain,
    MalformedElement,
    NotStrictlyOrdered,
    ReversedChain,
    SampleTooLarge,
    UnknownCatalogId,
    infinite_catalog,
    make_chain,
)
from chaintop.chains import SAMPLE_CAP

ALL_IDS = ["finite:4", "int", "dyadic01", "rat01", "omega+1", "split"]


@pytest.fixture(params=ALL_IDS)
def chain(request):
    return make_chain(request.param)


def test_make_chain_unknown():
    with pytest.raises(UnknownCatalogId):
        make_chain("reals")
    with pytest.raises(UnknownCatalogId):
        make_chain("finite:zero")


def test_metadata_flags():
    fc = make_chain("finite:4")
    assert fc.has_least and fc.has_greatest and not fc.declared_order_dense
    assert fc.declared_conditionally_complete
    rat = make_chain("rat01")
    assert rat.declared_order_dense and not rat.declared_conditionally_complete
    om = make_chain("omega+1")
    assert om.has_greatest and om.greatest() is OMEGA and not om.declared_order_dense
    sp = make_chain("split")
    assert not sp.has_least and not sp.has_greatest
    assert not sp.declared_conditionally_complete


def test_compare_examples():
    sp = make_chain("split")
    assert sp.compare((Fraction(1, 2), 0), (Fraction(1, 2), 1)) == -1
    om = make_chain("omega+1")
    assert om.compare(7, OMEGA) == -1
    dy = make_chain("dyadic01")
    assert dy.compare(Fraction(3, 8), Fraction(3, 8)) == 0


def test_trichotomy_and_transitivity_on_samples(chain):
    pts = chain.sample(7, 4 if chain.id == "finite:4" else 12)
    for a in pts:
        for b in pts:
            c1, c2 = chain.compare(a, b), chain.compare(b, a)
            assert c1 == -c2
            for c in pts:
                if chain.compare(a, b) <= 0 and chain.compare(b, c) <= 0:
                    assert chain.compare(a, c) <= 0


class _Pair(tuple):
    pass


def test_split_validate_returns_a_canonical_pair_itself():
    sp = make_chain("split")
    pair = (Fraction(1, 2), 1)
    assert sp.validate(pair) is pair
    got = sp.validate((1, 0))
    assert got == (Fraction(1), 0) and type(got[0]) is Fraction
    sub = _Pair((Fraction(1, 2), 0))
    got = sp.validate(sub)
    assert got == (Fraction(1, 2), 0) and type(got) is tuple
    for bad in (
        (Fraction(1, 2), 2), (Fraction(1, 2), True), (Fraction(1, 2), 1.0),
        (Fraction(1, 2), Fraction(1)), (True, 0), (0.5, 0), [Fraction(1), 0],
    ):
        with pytest.raises(MalformedElement):
            sp.validate(bad)


def test_between_examples():
    rat = make_chain("rat01")
    assert rat.between(Fraction(0), Fraction(1)) == Fraction(1, 2)
    sp = make_chain("split")
    assert sp.between((Fraction(1, 2), 0), (Fraction(1, 2), 1)) is None
    assert sp.between((Fraction(1, 2), 1), (Fraction(1), 0)) == (Fraction(3, 4), 0)
    ic = make_chain("int")
    assert ic.between(3, 4) is None
    assert ic.between(3, 40) == 21


def test_between_requires_strict_order(chain):
    pts = chain.sample(0, 2)
    with pytest.raises(NotStrictlyOrdered):
        chain.between(pts[1], pts[0])
    with pytest.raises(NotStrictlyOrdered):
        chain.between(pts[0], pts[0])


def test_between_witness_is_strictly_inside(chain):
    pts = chain.sample(3, 4 if chain.id == "finite:4" else 10)
    for a, b in zip(pts, pts[1:]):
        w = chain.between(a, b)
        if chain.declared_order_dense:
            assert w is not None  # metadata must be corroborated
        if w is not None:
            assert chain.compare(a, w) < 0 < chain.compare(b, w)


def test_gap_means_nothing_ever_falls_between(chain):
    pts = chain.sample(11, 4 if chain.id == "finite:4" else 40)
    gaps = [
        (a, b)
        for a, b in zip(pts, pts[1:])
        if chain.between(a, b) is None
    ]
    for a, b in gaps:
        for p in pts:
            assert not (chain.compare(a, p) < 0 < chain.compare(b, p))


def test_local_structure_examples():
    rat = make_chain("rat01")
    ls = rat.local_structure(Fraction(1, 2))
    assert not ls.has_immediate_pred and not ls.has_immediate_succ
    assert ls.is_sup_of_strict_downset and not ls.is_compact
    sp = make_chain("split")
    ls = sp.local_structure((Fraction(1, 2), 1))
    assert ls.has_immediate_pred and ls.is_compact and ls.pred == (Fraction(1, 2), 0)
    om = make_chain("omega+1")
    ls = om.local_structure(OMEGA)
    assert not ls.has_immediate_pred and ls.is_sup_of_strict_downset and not ls.is_compact


def test_local_structure_consistency(chain):
    for x in chain.sample(5, 4 if chain.id == "finite:4" else 30):
        ls = chain.local_structure(x)
        assert ls.is_compact == (not ls.is_sup_of_strict_downset)
        if ls.has_immediate_pred:
            assert ls.is_compact
            assert chain.between(ls.pred, x) is None
        if ls.has_immediate_succ:
            assert chain.between(x, ls.succ) is None


def test_sample_sorted_distinct_deterministic(chain):
    k = 4 if chain.id == "finite:4" else 9
    s1 = chain.sample(2, k)
    s2 = chain.sample(2, k)
    assert s1 == s2
    assert len(s1) == k
    for a, b in zip(s1, s1[1:]):
        assert chain.compare(a, b) == -1


def test_sample_whole_finite_chain():
    assert make_chain("finite:4").sample(99, 4) == [0, 1, 2, 3]
    with pytest.raises(SampleTooLarge):
        make_chain("finite:4").sample(0, 5)
    with pytest.raises(SampleTooLarge):
        make_chain("int").sample(0, 0)


@pytest.mark.parametrize("cid", ALL_IDS + ["rev(rat01)"])
def test_sample_count_is_capped(cid):
    C = ReversedChain(make_chain("rat01")) if cid == "rev(rat01)" else make_chain(cid)
    with pytest.raises(SampleTooLarge):
        C.sample(0, SAMPLE_CAP + 1)


def test_split_sample_exercises_both_sides():
    pts = make_chain("split").sample(1, 6)
    assert {i for _, i in pts} == {0, 1}


def test_validate_rejects_malformed(chain):
    for bad in (0.5, "x", (1, 2, 3), True):
        with pytest.raises(MalformedElement):
            chain.validate(bad)


@pytest.mark.parametrize("cid", ["rat01", "dyadic01"])
def test_unit_chains_validate_exactly_the_unit_interval(cid):
    C = make_chain(cid)
    for inside in (0, 1, Fraction(0), Fraction(1), Fraction(2, 2), Fraction(1, 2)):
        assert C.validate(inside) == inside
    for outside in (-1, 2, Fraction(-1, 3), Fraction(4, 3), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(MalformedElement):
            C.validate(outside)


def test_dyadic_rejects_non_dyadic():
    with pytest.raises(MalformedElement):
        make_chain("dyadic01").validate(Fraction(1, 3))
    with pytest.raises(MalformedElement):
        make_chain("dyadic01").validate(Fraction(3, 2))


def test_parse_format_roundtrip(chain):
    for x in chain.sample(13, 4 if chain.id == "finite:4" else 8):
        assert chain.compare(chain.parse(chain.format(x)), x) == 0


def test_finite_chain_agrees_with_poset():
    # cross-representation: every handle query matches the brute-force
    # poset computation
    for n in range(1, 7):
        C = FiniteChain(n)
        P = C.to_finite_poset()
        assert P.is_chain
        for x in range(n):
            for y in range(n):
                assert (C.compare(x, y) < 0) == P.lt(x, y)
            ls = C.local_structure(x)
            strict_down = P.strict_down(x)
            assert ls.is_sup_of_strict_downset == (
                bool(strict_down) and P.sup_mask(strict_down) == x
            )


def test_reversed_chain():
    om = make_chain("omega+1")
    rev = ReversedChain(om)
    assert rev.compare(3, OMEGA) == 1
    assert rev.least() is OMEGA
    assert rev.between(OMEGA, 5) == 6
    ls = rev.local_structure(5)
    assert ls.pred == 6 and ls.succ == 4
    assert rev.has_least and rev.has_greatest
    assert ReversedChain(make_chain("rat01")).only_least_compact


@pytest.mark.parametrize("cid", ALL_IDS)
def test_reversed_compare_swaps_the_arguments(cid):
    C = make_chain(cid)
    rev, back = ReversedChain(C), ReversedChain(ReversedChain(C))
    pts = C.sample(5, 4 if cid == "finite:4" else 12)
    for x in pts:
        for y in pts:
            assert rev.compare(x, y) == C.compare(y, x)
            assert back.compare(x, y) == C.compare(x, y)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("cid", ALL_IDS)
def test_sample_is_strictly_increasing_by_key(cid, reverse):
    C = ReversedChain(make_chain(cid)) if reverse else make_chain(cid)
    keys = [C.key(p) for p in C.sample(11, 4 if cid == "finite:4" else 16)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _with_coordinate(cid, reverse):
    C = make_chain(cid)
    return ReversedChain(C) if reverse else C


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("cid", ["dyadic01", "rat01", "split"])
def test_coordinate_is_monotone_and_ties_only_across_a_gap(cid, reverse):
    C = _with_coordinate(cid, reverse)
    pts = C.sample(7, 60)
    if cid == "split":
        # both sides of a few split points, so that ties occur
        pts = sorted(pts + [(p[0], 1 - p[1]) for p in pts[::6]], key=C.key)
    ties = 0
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            assert C.key(a) < C.key(b)
            assert C.coordinate(a) <= C.coordinate(b), (C.id, a, b)
            if C.coordinate(a) == C.coordinate(b):
                assert C.between(a, b) is None, (C.id, a, b)
                ties += 1
    assert ties > 0 if cid == "split" else ties == 0


@pytest.mark.parametrize("cid", ["finite:4", "int", "omega+1"])
def test_chains_without_a_coordinate_raise_a_library_error(cid):
    C = make_chain(cid)
    x = C.sample(0, 1)[0]
    for handle in (C, ReversedChain(C)):
        with pytest.raises(ChainTopError, match="no coordinate"):
            handle.coordinate(x)


def test_reversed_sample_sorted_descending_in_base():
    rev = ReversedChain(make_chain("int"))
    pts = rev.sample(4, 10)
    for a, b in zip(pts, pts[1:]):
        assert a > b  # ascending in the reversed order


@given(
    a=st.fractions(min_value=0, max_value=1),
    b=st.fractions(min_value=0, max_value=1),
)
def test_rational_between_is_midpoint(a, b):
    rat = make_chain("rat01")
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    assert rat.between(lo, hi) == (lo + hi) / 2


_DYADIC01 = st.integers(0, 40).flatmap(
    lambda e: st.integers(0, 2**e).map(lambda p: Fraction(p, 2**e))
)


@pytest.mark.parametrize(
    "cid, points",
    [("dyadic01", _DYADIC01), ("rat01", st.fractions(min_value=0, max_value=1))],
)
@given(data=st.data())
def test_unit_between_is_the_reduced_midpoint(cid, points, data):
    C = make_chain(cid)
    a, b = data.draw(points), data.draw(points)
    mid = C._between(a, b)
    # Fraction equality compares numerators and denominators, so this
    # also says the midpoint is in lowest terms
    assert mid == (a + b) / 2
    assert C.validate(mid) == mid
    if a != b:
        assert C.between(min(a, b), max(a, b)) == mid


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_integer_chain_total_order_laws(a, b, c):
    ic = make_chain("int")
    assert ic.compare(a, b) == -ic.compare(b, a)
    if ic.compare(a, b) <= 0 and ic.compare(b, c) <= 0:
        assert ic.compare(a, c) <= 0


def test_catalog_lists_every_infinite_entry():
    assert sorted(c.id for c in infinite_catalog()) == sorted(
        ["int", "dyadic01", "rat01", "omega+1", "split"]
    )
