import gc
from dataclasses import replace
from fractions import Fraction

import pytest

from chaintop import (
    ChainTopError,
    FiniteChain,
    Interval,
    IntervalSet,
    MalformedElement,
    NEG_INF,
    NotClosed,
    NotLowerSet,
    NotStrictlyOrdered,
    OMEGA,
    PointInsideA,
    RationalUnitChain,
    SeparatingFunction,
    above,
    below,
    chain_way_below,
    closed_interval,
    interval_member,
    make_chain,
    reverse_interval_set,
    separate_from_lower,
    separate_from_upper,
    verify_separating,
)
from chaintop.suite import _separation_matrix

RAT = make_chain("rat01")


def test_finite_chain_indicator():
    fc = FiniteChain(3)
    A = IntervalSet(fc, (below(0),))
    f = separate_from_lower(fc, A, 2)
    assert [f(y) for y in range(3)] == [0, 1, 1]
    assert verify_separating(fc, f, A, 2).all_ok()


def test_rational_ramp():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    f = separate_from_lower(RAT, A, Fraction(3, 4))
    assert (f.lo, f.hi) == (Fraction(1, 2), Fraction(3, 4))
    assert f(Fraction(0)) == 0 and f(Fraction(1, 2)) == 0
    assert f(Fraction(9, 16)) == Fraction(1, 4)
    assert f(Fraction(5, 8)) == Fraction(1, 2)
    assert f(Fraction(3, 4)) == 1 and f(Fraction(1)) == 1
    rep = verify_separating(RAT, f, A, Fraction(3, 4), samples=200, seed=3)
    assert rep.all_ok()


def test_ramp_values_are_exact_and_monotone():
    A = IntervalSet(RAT, (below(Fraction(1, 3)),))
    f = separate_from_lower(RAT, A, Fraction(1))
    ys = RAT.sample(6, 100)
    values = [f(y) for y in ys]
    assert values == sorted(values)
    for y, v in zip(ys, values):
        assert type(v) is Fraction
        assert v == max(0, (y - Fraction(1, 3)) / Fraction(2, 3))


def test_split_gap_step():
    sp = make_chain("split")
    q = Fraction(1, 2)
    A = IntervalSet(sp, (below((q, 0)),))
    f = separate_from_lower(sp, A, (q, 1))
    assert (f.lo, f.hi) == ((q, 0), (q, 1))
    assert sp.between(f.lo, f.hi) is None
    assert f((q, 0)) == 0 and f((q, 1)) == 1
    assert verify_separating(sp, f, A, (q, 1), samples=60, seed=1).all_ok()


def test_split_dense_boundary_steps_across_the_next_gap():
    # (1/2,1) has no successor, but the point between it and x does
    sp = make_chain("split")
    A = IntervalSet(sp, (below((Fraction(1, 2), 1)),))
    x = (Fraction(2), 0)
    f = separate_from_lower(sp, A, x)
    assert (f.lo, f.hi) == ((Fraction(5, 4), 0), (Fraction(5, 4), 1))
    assert f((Fraction(5, 4), 0)) == 0 and f((Fraction(5, 4), 1)) == 1
    assert verify_separating(sp, f, A, x, samples=80, seed=4).all_ok()


def test_split_ramp_crosses_gaps_and_dense_stretches():
    sp = make_chain("split")
    A = IntervalSet(sp, (below((Fraction(1, 2), 1)),))
    x = (Fraction(2), 0)
    f = SeparatingFunction(sp, (Fraction(1, 2), 1), x)
    # both sides of a split point share its coordinate across their gap
    assert f((Fraction(5, 4), 0)) == f((Fraction(5, 4), 1)) == Fraction(1, 2)
    assert f((Fraction(7, 8), 1)) == Fraction(1, 4)
    assert verify_separating(sp, f, A, x, samples=80, seed=4).all_ok()


def test_omega_boundary_step():
    om = make_chain("omega+1")
    A = IntervalSet(om, (below(2),))
    f = separate_from_lower(om, A, OMEGA)
    assert (f.lo, f.hi) == (2, 3)
    assert f(2) == 0 and f(3) == 1 and f(OMEGA) == 1
    assert verify_separating(om, f, A, OMEGA, samples=50, seed=2).all_ok()


def test_empty_lower_set():
    A = IntervalSet(RAT, ())
    f = separate_from_lower(RAT, A, Fraction(1, 2))
    assert f.lo is None and f.hi is None
    assert f(Fraction(0)) == 1 and f(Fraction(1)) == 1
    assert verify_separating(RAT, f, A, Fraction(1, 2), samples=20).all_ok()


def test_shape_errors():
    with pytest.raises(NotLowerSet):
        separate_from_lower(
            RAT,
            IntervalSet(RAT, (closed_interval(Fraction(1, 4), Fraction(1, 2)),)),
            Fraction(3, 4),
        )
    with pytest.raises(NotLowerSet):
        separate_from_lower(
            RAT,
            IntervalSet(
                RAT,
                (
                    below(Fraction(1, 8)),
                    closed_interval(Fraction(1, 2), Fraction(5, 8)),
                ),
            ),
            Fraction(3, 4),
        )
    with pytest.raises(PointInsideA):
        separate_from_lower(RAT, IntervalSet(RAT, (below(Fraction(1, 2)),)), Fraction(1, 4))
    with pytest.raises(NotClosed):
        separate_from_lower(
            RAT,
            IntervalSet(RAT, (Interval(NEG_INF, True, Fraction(1, 2), True),)),
            Fraction(3, 4),
        )


def test_unattained_boundary_is_rejected_only_when_genuinely_open():
    # over the integers the open ray closes to an attained boundary
    ic = make_chain("int")
    A = IntervalSet(ic, (Interval(NEG_INF, True, 5, True),))
    f = separate_from_lower(ic, A, 10)
    assert f(4) == 0 and f(5) == 1 and f(10) == 1


def test_planted_fault_detected():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    reversed_ramp = SeparatingFunction(RAT, Fraction(1, 2), Fraction(3, 4), complemented=True)
    rep = verify_separating(RAT, reversed_ramp, A, Fraction(3, 4), samples=200, seed=9)
    assert not rep.monotone_ok
    # a ramp whose foot lies below the boundary is not 0 on A
    early = SeparatingFunction(RAT, Fraction(1, 4), Fraction(3, 4))
    rep = verify_separating(RAT, early, A, Fraction(3, 4), samples=200, seed=9)
    assert rep.monotone_ok and not rep.zero_on_A_ok


class _JumpingCoordinate(RationalUnitChain):
    """rat01 with a coordinate that jumps by 1 at `at`, where the chain has
    no gap: at `at` itself, or just above it."""

    def __init__(self, at, inclusive=True):
        self.at, self.inclusive = at, inclusive

    def coordinate(self, x):
        return x + 1 if (x >= self.at if self.inclusive else x > self.at) else x


def test_a_jumping_coordinate_fails_continuity():
    x = Fraction(3, 4)
    # the ramp runs from 1/2 to 3/4, through 5/8
    for at, inclusive, continuous in (
        (Fraction(5, 8), True, False),
        (Fraction(5, 8), False, False),
        (Fraction(3, 4), True, False),
        # neither lo, hi nor the point between them
        (Fraction(9, 16), True, False),
        (Fraction(9, 16), False, False),
        # never a bisection point
        (Fraction(3, 5), True, False),
        # above 3/4 the function is 1 whatever the coordinate does
        (Fraction(3, 4), False, True),
    ):
        C = _JumpingCoordinate(at, inclusive)
        A = IntervalSet(C, (below(Fraction(1, 2)),))
        rep = verify_separating(C, separate_from_lower(C, A, x), A, x, samples=200, seed=5)
        assert rep.monotone_ok and rep.zero_on_A_ok and rep.one_at_x_ok, at
        assert rep.continuity_ok is continuous, (at, inclusive)


def test_a_ramp_needs_a_coordinate_that_separates_its_ends():
    # chains whose boundaries all have successors have no coordinate
    with pytest.raises(ChainTopError):
        SeparatingFunction(FiniteChain(6), 1, 4)
    with pytest.raises(ChainTopError):
        SeparatingFunction(make_chain("int"), -3, 4)
    # a step needs none
    assert SeparatingFunction(make_chain("int"), 3, 4)(4) == 1

    class Flat(RationalUnitChain):
        def coordinate(self, x):
            return Fraction(0)

    with pytest.raises(NotStrictlyOrdered):
        SeparatingFunction(Flat(), Fraction(1, 2), Fraction(3, 4))


def test_reverse_interval_set():
    A = IntervalSet(RAT, (Interval(Fraction(1, 2), False, Fraction(1), False),))
    rev = reverse_interval_set(A)
    assert rev.chain.id == "rev(rat01)"
    assert rev.intervals[0].lower == Fraction(1)
    # membership is unchanged pointwise
    for q in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        assert interval_member(rev, q) == interval_member(A, q)


def test_separate_from_upper():
    A = IntervalSet(RAT, (Interval(Fraction(1, 2), False, Fraction(1), False),))
    g = separate_from_upper(RAT, A, Fraction(1, 4))
    # the ramp of the reversed chain, from the boundary 1/2 down to 1/4
    assert g.chain.id == "rev(rat01)" and g.complemented
    assert (g.lo, g.hi) == (Fraction(1, 2), Fraction(1, 4))
    assert g(Fraction(1, 2)) == 1 and g(Fraction(1)) == 1
    assert g(Fraction(1, 4)) == 0 and g(Fraction(0)) == 0
    assert g(Fraction(3, 8)) == Fraction(1, 2)
    assert g(Fraction(7, 16)) == Fraction(3, 4)
    values = [g(Fraction(k, 16)) for k in range(17)]
    assert values == sorted(values)
    rev_A = reverse_interval_set(A)
    lower = replace(g, complemented=False)
    assert verify_separating(rev_A.chain, lower, rev_A, Fraction(1, 4), samples=100, seed=2).all_ok()


def test_the_dual_at_omega_steps_across_a_gap():
    # omega has no predecessor, but the natural between it and 2 does,
    # so {omega} is separated from 2 by a step and needs no coordinate
    om = make_chain("omega+1")
    up = IntervalSet(om, (above(OMEGA),))
    g = separate_from_upper(om, up, 2)
    assert (g.lo, g.hi) == (3, 2)
    assert [g(y) for y in (0, 2, 3, 40, OMEGA)] == [0, 0, 1, 1, 1]
    rev_up = reverse_interval_set(up)
    lower = replace(g, complemented=False)
    assert verify_separating(rev_up.chain, lower, rev_up, 2, samples=50, seed=2).all_ok()
    g = separate_from_upper(om, IntervalSet(om, (above(5),)), 2)
    assert [g(y) for y in (2, 4, 5, OMEGA)] == [0, 0, 1, 1]


def test_staircase_leaves_no_cyclic_garbage():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    gc.collect()
    gc.disable()
    try:
        f = separate_from_lower(RAT, A, Fraction(3, 4))
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def _ramp_by_definition(f: SeparatingFunction, y):
    """Oracle for `raw_value`: the ramp formula, with the order decided by
    `compare`."""
    C = f.chain
    if f.lo is None or C.compare(y, f.hi) >= 0:
        return 1
    if C.compare(y, f.lo) <= 0:
        return 0
    c = C.coordinate
    return (c(y) - c(f.lo)) / (c(f.hi) - c(f.lo))


def _separations():
    """Each function of the suite's separation matrix, with the points
    that matter to it, and its dual: the boundary separated from the
    closed upper set above the point."""
    for cid, boundary, x in _separation_matrix():
        C = make_chain(cid)
        A = IntervalSet(C, () if boundary is None else (below(boundary),))
        yield C, separate_from_lower(C, A, x), [x] if boundary is None else [boundary, x]
        if boundary is not None:
            up = IntervalSet(C, (above(x),))
            yield C, separate_from_upper(C, up, boundary), [boundary, x]


def test_raw_value_matches_the_ramp_formula_on_every_probe():
    checked = 0
    for C, f, points in _separations():
        probes = list(points) + (list(range(C.n)) if isinstance(C, FiniteChain) else C.sample(4, 40))
        if f.lo is not None:
            probes += [f.lo, f.hi]
            mid = f.chain.between(f.lo, f.hi)
            probes += [] if mid is None else [mid]
        expected = [_ramp_by_definition(f, y) for y in probes]
        assert [f.raw_value(y) for y in probes] == expected, C.id
        assert f.raw_values(probes) == expected, C.id
        assert f.raw_values(probes[::-1])[::-1] == expected, C.id
        for y, v in zip(probes, expected):
            assert f(y) == (1 - v if f.complemented else v) and 0 <= f(y) <= 1, C.id
        checked += len(probes)
    assert checked > 500


_OUTSIDE = {
    "finite:4": 4,
    "int": Fraction(1, 2),
    "dyadic01": Fraction(1, 3),
    "rat01": Fraction(3, 2),
    "omega+1": -1,
    "split": (Fraction(1, 2), 2),
}


@pytest.mark.parametrize("cid", sorted(_OUTSIDE))
def test_every_constructor_rejects_missing_or_unordered_ends(cid):
    # each end is an element, or both are None, and lo lies strictly
    # below hi
    C = make_chain(cid)
    lo, hi = C.sample(0, 2)
    for ends in ((lo, None), (None, hi)):
        with pytest.raises(MalformedElement):
            SeparatingFunction(C, *ends)
    for ends in ((hi, lo), (lo, lo), (hi, hi)):
        with pytest.raises(NotStrictlyOrdered):
            SeparatingFunction(C, *ends)
    # a step where lo has a successor, a ramp over the coordinate otherwise
    top = C.successor(lo) or hi
    f = SeparatingFunction(C, lo, top)
    with pytest.raises(NotStrictlyOrdered):
        replace(f, lo=top, hi=lo)
    assert f.raw_values([top, lo]) == [1, 0]


@pytest.mark.parametrize("cid", sorted(_OUTSIDE))
def test_every_entry_point_rejects_an_element_outside_the_chain(cid):
    C = make_chain(cid)
    good, bad = C.least() if C.has_least else C.sample(0, 1)[0], _OUTSIDE[cid]
    empty = IntervalSet(C, ())
    f = SeparatingFunction(C, None, None)
    calls = [
        lambda: C.compare(good, bad),
        lambda: C.compare(bad, good),
        lambda: C.between(good, bad),
        lambda: C.predecessor(bad),
        lambda: C.successor(bad),
        lambda: C.local_structure(bad),
        lambda: C.format(bad),
        lambda: IntervalSet(C, (closed_interval(good, bad),)),
        lambda: interval_member(empty, bad),
        lambda: SeparatingFunction(C, bad, good),
        lambda: SeparatingFunction(C, good, bad),
        lambda: f(bad),
        lambda: f.raw_values([good, bad]),
        lambda: separate_from_lower(C, empty, bad),
        lambda: verify_separating(C, f, empty, bad),
        lambda: chain_way_below(C, good, bad),
        lambda: chain_way_below(C, bad, good),
    ]
    for call in calls:
        with pytest.raises(MalformedElement):
            call()
