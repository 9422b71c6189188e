import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaintop import (
    Interval,
    IntervalSet,
    NotAChain,
    NotOpen,
    OMEGA,
    ReversedChain,
    WHOLE,
    above,
    below,
    canonical_topology,
    chain_poset,
    closed_interval,
    convex_components,
    decompose_open_finite,
    interval_member,
    is_order_convex,
    make_chain,
    normalize,
    open_interval,
)
from chaintop.intervals import NEG_INF, POS_INF, _key_member
from chaintop.suite import integer_window_components, m3_poset

INT = make_chain("int")
RAT = make_chain("rat01")
SPLIT = make_chain("split")


def test_membership():
    IS = IntervalSet(RAT, (open_interval(Fraction(0), Fraction(1)),))
    assert interval_member(IS, Fraction(1, 2))
    assert not interval_member(IS, Fraction(1))
    IS = IntervalSet(INT, (closed_interval(1, 3),))
    assert interval_member(IS, 3)
    assert not interval_member(IS, 4)


def member_by_compare(IS, x):
    """Membership read off the endpoint constraints with `compare`."""
    C = IS.chain
    for iv in IS.intervals:
        if iv.lower is not NEG_INF:
            c = C.compare(iv.lower, x)
            if c > 0 or (c == 0 and iv.lower_open):
                continue
        if iv.upper is not POS_INF:
            c = C.compare(x, iv.upper)
            if c > 0 or (c == 0 and iv.upper_open):
                continue
        return True
    return False


@pytest.mark.parametrize("reverse", [False, True], ids=["base", "reversed"])
@pytest.mark.parametrize("cid", ["finite:5", "int", "dyadic01", "rat01", "omega+1", "split"])
def test_membership_matches_compare(cid, reverse):
    C = make_chain(cid)
    if reverse:
        C = ReversedChain(C)
    pool = C.sample(3, 5)
    # every end is a probe, and so is a point strictly inside each gap
    # of the pool that has one
    probes = list(pool)
    for a, b in zip(pool, pool[1:]):
        mid = C.between(a, b)
        if mid is not None:
            probes.append(mid)
    flags = [(False, False), (False, True), (True, False), (True, True)]
    intervals = [WHOLE]
    for a in pool:
        for lower_open, upper_open in flags:
            intervals.append(Interval(NEG_INF, True, a, upper_open))
            intervals.append(Interval(a, lower_open, POS_INF, True))
            for b in pool:
                intervals.append(Interval(a, lower_open, b, upper_open))
    rng = random.Random(f"member:{cid}:{reverse}")
    sets = [IntervalSet(C, (iv,)) for iv in intervals]
    sets += [IntervalSet(C, tuple(rng.sample(intervals, 3))) for _ in range(40)]
    for IS in sets:
        for p in probes:
            assert interval_member(IS, p) == member_by_compare(IS, p), (IS.intervals, p)


@pytest.mark.parametrize("reverse", [False, True], ids=["base", "reversed"])
@pytest.mark.parametrize("cid", ["finite:5", "int", "dyadic01", "rat01", "omega+1", "split"])
def test_key_member_matches_interval_member(cid, reverse):
    """The key path agrees with the validating entry point and with the
    `compare` oracle, on random sets and their canonical forms, at pool
    points, interval ends and midpoints of the probes."""
    C = make_chain(cid)
    if reverse:
        C = ReversedChain(C)
    rng = random.Random(f"key-member:{cid}:{reverse}")
    pool = C.sample(7, 5)
    for _ in range(60):
        intervals = []
        for _ in range(rng.randint(0, 4)):
            a, b = sorted((rng.choice(pool), rng.choice(pool)), key=C.key)
            lo = NEG_INF if rng.random() < 0.15 else a
            hi = POS_INF if rng.random() < 0.15 else b
            intervals.append(Interval(lo, rng.random() < 0.5, hi, rng.random() < 0.5))
        IS = IntervalSet(C, tuple(intervals))
        ends = [
            e for iv in IS.intervals for e in (iv.lower, iv.upper)
            if e is not NEG_INF and e is not POS_INF
        ]
        probes = pool + ends
        mids = [C.between(a, b) for a in probes for b in probes if C.key(a) < C.key(b)]
        probes += [m for m in mids if m is not None]
        for S in (IS, normalize(IS)):
            for p in probes:
                expected = member_by_compare(S, p)
                assert _key_member(S._bounds, C.key(p)) == interval_member(S, p) == expected, (
                    S.intervals, p,
                )


def test_membership_after_replace_reads_the_new_intervals():
    IS = IntervalSet(INT, (closed_interval(1, 3),))
    moved = replace(IS, intervals=(closed_interval(10, 12), below(-5)))
    assert [interval_member(moved, x) for x in (-6, -5, -4, 2, 10, 12, 13)] == [
        True, True, False, False, True, True, False,
    ]
    assert moved == IntervalSet(INT, (closed_interval(10, 12), below(-5)))
    assert interval_member(IS, 2) and not interval_member(IS, 10)


def test_ray_membership():
    IS = IntervalSet(INT, (below(5),))
    assert interval_member(IS, -100) and interval_member(IS, 5)
    assert not interval_member(IS, 6)
    IS = IntervalSet(SPLIT, (above((Fraction(0), 1)),))
    assert interval_member(IS, (Fraction(3), 0))
    assert not interval_member(IS, (Fraction(0), 0))


def test_normalize_merges_across_integer_gap():
    IS = IntervalSet(INT, (closed_interval(1, 3), closed_interval(4, 6)))
    assert normalize(IS).intervals == (closed_interval(1, 6),)


def test_normalize_keeps_dense_split():
    IS = IntervalSet(
        RAT,
        (
            open_interval(Fraction(0), Fraction(1, 2)),
            open_interval(Fraction(1, 2), Fraction(1)),
        ),
    )
    assert len(normalize(IS).intervals) == 2
    assert not is_order_convex(IS)


def test_normalize_merges_shared_endpoint_with_closed_side():
    IS = IntervalSet(
        RAT,
        (
            Interval(Fraction(0), True, Fraction(1, 2), False),
            open_interval(Fraction(1, 2), Fraction(1)),
        ),
    )
    norm = normalize(IS)
    assert norm.intervals == (open_interval(Fraction(0), Fraction(1)),)


def test_normalize_closes_endpoints_over_integers():
    assert normalize(IntervalSet(INT, (open_interval(3, 7),))).intervals == (
        closed_interval(4, 6),
    )
    assert normalize(IntervalSet(INT, (open_interval(3, 4),))).intervals == ()


def test_normalize_resolves_rays_against_extremes():
    IS = IntervalSet(RAT, (below(Fraction(1, 2)),))
    assert normalize(IS).intervals == (
        Interval(Fraction(0), False, Fraction(1, 2), False),
    )
    om = make_chain("omega+1")
    IS = IntervalSet(om, (above(3, strict=True),))
    assert normalize(IS).intervals == (closed_interval(4, OMEGA),)


def test_split_rays_fuse_across_the_gap():
    q = Fraction(1, 2)
    IS = IntervalSet(SPLIT, (below((q, 0)), above((q, 1))))
    assert normalize(IS).intervals == (WHOLE,)
    assert is_order_convex(IS)


def test_convex_components():
    IS = IntervalSet(INT, (closed_interval(1, 3), closed_interval(5, 6)))
    comps = convex_components(IS)
    assert len(comps) == 2
    assert comps[0].intervals == (closed_interval(1, 3),)
    assert is_order_convex(comps[0]) and is_order_convex(comps[1])


def test_empty_and_singleton():
    assert normalize(IntervalSet(INT, ())).intervals == ()
    assert is_order_convex(IntervalSet(INT, ()))
    IS = IntervalSet(INT, (closed_interval(2, 2),))
    assert normalize(IS).intervals == (closed_interval(2, 2),)


def _random_interval_set(rng, chain, pool):
    out = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(pool), rng.choice(pool)
        if chain.compare(a, b) > 0:
            a, b = b, a
        out.append(Interval(a, rng.random() < 0.5, b, rng.random() < 0.5))
    return IntervalSet(chain, tuple(out))


@pytest.mark.parametrize("cid", ["int", "dyadic01", "rat01", "omega+1", "split"])
def test_normalize_idempotent_and_membership_preserving(cid):
    chain = make_chain(cid)
    rng = random.Random(f"intervals:{cid}")
    pool = chain.sample(5, 10)
    for _ in range(150):
        IS = _random_interval_set(rng, chain, pool)
        norm = normalize(IS)
        again = normalize(norm)
        assert again.intervals == norm.intervals
        for p in pool:
            assert interval_member(IS, p) == interval_member(norm, p)


def test_window_oracle_agreement():
    rng = random.Random("window")
    pool = INT.sample(8, 12)
    for _ in range(300):
        IS = _random_interval_set(rng, INT, pool)
        assert normalize(IS).intervals == integer_window_components(IS)


def test_window_oracle_requires_bounded():
    with pytest.raises(ValueError):
        integer_window_components(IntervalSet(INT, (below(3),)))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=4))
def test_window_oracle_agreement_hypothesis(pairs):
    intervals = tuple(
        closed_interval(min(a, b), max(a, b)) for a, b in pairs
    )
    IS = IntervalSet(INT, intervals)
    assert normalize(IS).intervals == integer_window_components(IS)


def test_decompose_examples():
    C6 = chain_poset(6)
    T = canonical_topology(C6, "intrinsic")
    assert decompose_open_finite(C6, T, {0, 1, 3, 4}) == [
        frozenset({0, 1}),
        frozenset({3, 4}),
    ]
    C4 = chain_poset(4)
    T4 = canonical_topology(C4, "intrinsic")
    assert decompose_open_finite(C4, T4, set()) == []
    assert decompose_open_finite(C4, T4, {0, 1, 2, 3}) == [frozenset({0, 1, 2, 3})]


def test_decompose_requires_chain_and_open():
    with pytest.raises(NotAChain):
        decompose_open_finite(m3_poset(), canonical_topology(m3_poset(), "upper"), {4})
    C3 = chain_poset(3)
    with pytest.raises(NotOpen):
        decompose_open_finite(C3, canonical_topology(C3, "upper"), {0, 1})


def test_decompose_partitions_every_intrinsic_open():
    for n in range(1, 7):
        P = chain_poset(n)
        T = canonical_topology(P, "intrinsic")
        for mask in sorted(T.opens):
            subset = frozenset(i for i in range(n) if mask >> i & 1)
            pieces = decompose_open_finite(P, T, subset)
            assert frozenset().union(*pieces) == subset if pieces else not subset
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    assert not pieces[i] & pieces[j]
