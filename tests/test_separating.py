import gc
from dataclasses import replace
from fractions import Fraction

import pytest

from chaintop import (
    CapExceeded,
    ChainTopError,
    Cut,
    FiniteChain,
    Interval,
    IntervalSet,
    JumpCertificate,
    MalformedElement,
    NEG_INF,
    NotClosed,
    NotLowerSet,
    NotStrictlyOrdered,
    OMEGA,
    PointInsideA,
    SeparatingFunction,
    above,
    below,
    chain_way_below,
    closed_interval,
    evaluate,
    interval_member,
    make_chain,
    reverse_interval_set,
    separate_from_lower,
    separate_from_upper,
    verify_separating,
)
from chaintop.separating import BELOW_OR_EQUAL, DEFAULT_DEPTH, DEPTH_CAP, STRICTLY_BELOW
from chaintop.suite import _separation_matrix

RAT = make_chain("rat01")


def test_finite_chain_indicator():
    fc = FiniteChain(3)
    A = IntervalSet(fc, (below(0),))
    f = separate_from_lower(fc, A, 2)
    assert [f(y) for y in range(3)] == [0, 1, 1]
    assert verify_separating(fc, f, A, 2).all_ok()


def test_rational_staircase():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    f = separate_from_lower(RAT, A, Fraction(3, 4))
    assert f(Fraction(1, 2)) == 0
    assert f(Fraction(3, 4)) == 1
    assert evaluate(f, Fraction(0)) == 0
    assert len(f.cuts) == 1024  # depth-10 bisection
    rep = verify_separating(RAT, f, A, Fraction(3, 4), samples=200, seed=3)
    assert rep.all_ok()


def test_staircase_values_are_dyadic_and_monotone():
    A = IntervalSet(RAT, (below(Fraction(1, 3)),))
    f = separate_from_lower(RAT, A, Fraction(1), depth=6)
    values = [c.value for c in f.cuts]
    assert all(v.denominator & (v.denominator - 1) == 0 for v in values)
    assert values == sorted(values)
    jumps = {b - a for a, b in zip(values, values[1:])}
    assert jumps == {Fraction(1, 64)}


def test_split_gap_step():
    sp = make_chain("split")
    q = Fraction(1, 2)
    A = IntervalSet(sp, (below((q, 0)),))
    f = separate_from_lower(sp, A, (q, 1))
    assert len(f.cuts) == 1
    assert f.certificates[0].kind == "gap"
    assert f((q, 0)) == 0 and f((q, 1)) == 1
    assert verify_separating(sp, f, A, (q, 1), samples=60, seed=1).all_ok()


def test_split_staircase_mixes_certificates():
    sp = make_chain("split")
    A = IntervalSet(sp, (below((Fraction(1, 2), 1)),))
    f = separate_from_lower(sp, A, (Fraction(2), 0), depth=6)
    kinds = {c.kind for c in f.certificates}
    assert kinds == {"gap", "density"}
    assert verify_separating(sp, f, A, (Fraction(2), 0), samples=80, seed=4).all_ok()


def test_omega_boundary_step():
    om = make_chain("omega+1")
    A = IntervalSet(om, (below(2),))
    f = separate_from_lower(om, A, OMEGA)
    assert f(2) == 0 and f(3) == 1 and f(OMEGA) == 1
    assert verify_separating(om, f, A, OMEGA, samples=50, seed=2).all_ok()


def test_empty_lower_set():
    A = IntervalSet(RAT, ())
    f = separate_from_lower(RAT, A, Fraction(1, 2))
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
    f = separate_from_lower(RAT, A, Fraction(3, 4), depth=4)
    cuts = list(f.cuts)
    cuts[2], cuts[5] = (
        replace(cuts[2], value=cuts[5].value),
        replace(cuts[5], value=cuts[2].value),
    )
    broken = replace(f, cuts=tuple(cuts))
    rep = verify_separating(RAT, broken, A, Fraction(3, 4), samples=200, seed=9)
    assert not rep.monotone_ok


def test_certificate_tampering_detected():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    f = separate_from_lower(RAT, A, Fraction(3, 4), depth=3)
    certs = list(f.certificates)
    certs[0] = replace(certs[0], kind="gap", witness=None)  # falsely claim a gap
    forged = replace(f, certificates=tuple(certs))
    rep = verify_separating(RAT, forged, A, Fraction(3, 4), samples=50, seed=5)
    assert not rep.continuity_ok


def test_reverse_interval_set():
    A = IntervalSet(RAT, (Interval(Fraction(1, 2), False, Fraction(1), False),))
    rev = reverse_interval_set(A)
    assert rev.chain.id == "rev(rat01)"
    assert rev.intervals[0].lower == Fraction(1)
    # membership is unchanged pointwise
    for q in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        from chaintop import interval_member

        assert interval_member(rev, q) == interval_member(A, q)


def test_separate_from_upper():
    A = IntervalSet(RAT, (Interval(Fraction(1, 2), False, Fraction(1), False),))
    g = separate_from_upper(RAT, A, Fraction(1, 4))
    assert g(Fraction(1, 2)) == 1 and g(Fraction(1)) == 1
    assert g(Fraction(1, 4)) == 0
    values = [g(Fraction(k, 16)) for k in range(17)]
    assert values == sorted(values)


def test_evaluate_matches_call():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    f = separate_from_lower(RAT, A, Fraction(3, 4), depth=5)
    for q in RAT.sample(6, 40):
        assert evaluate(f, q) == f(q)
        assert 0 <= f(q) <= 1


def test_depth_is_checked_against_its_range():
    A = IntervalSet(RAT, (below(Fraction(1, 2)),))
    with pytest.raises(ChainTopError):
        separate_from_lower(RAT, A, Fraction(3, 4), depth=-1)
    with pytest.raises(CapExceeded):
        separate_from_lower(RAT, A, Fraction(3, 4), depth=DEPTH_CAP + 1)
    upper = IntervalSet(RAT, (Interval(Fraction(1, 2), False, Fraction(1), False),))
    with pytest.raises(CapExceeded):
        separate_from_upper(RAT, upper, Fraction(1, 4), depth=DEPTH_CAP + 1)
    assert DEPTH_CAP >= DEFAULT_DEPTH
    f = separate_from_lower(RAT, A, Fraction(3, 4), depth=0)
    assert [c.kind for c in f.certificates] == ["density"]


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


def _first_matching_cut(f: SeparatingFunction, y):
    """Oracle for `raw_value`: a linear scan for the first matching cut."""
    for cut in f.cuts:
        c = f.chain.compare(y, cut.threshold)
        if c < 0 or (c == 0 and cut.side == BELOW_OR_EQUAL):
            return cut.value
    return f.default


def _separations(depth):
    """Each staircase of the suite's separation matrix, with the points
    that matter to it, and its dual: the boundary separated from the
    closed upper set above the point."""
    for cid, boundary, x in _separation_matrix():
        C = make_chain(cid)
        A = IntervalSet(C, () if boundary is None else (below(boundary),))
        yield C, separate_from_lower(C, A, x, depth), [x] if boundary is None else [boundary, x]
        if boundary is not None:
            up = IntervalSet(C, (above(x),))
            yield C, separate_from_upper(C, up, boundary, depth), [boundary, x]


def test_raw_value_matches_the_linear_scan_on_every_probe():
    # depth 6, not the default 10: the oracle is quadratic in the cuts
    checked = 0
    for C, f, points in _separations(6):
        probes = list(points) + (list(range(C.n)) if isinstance(C, FiniteChain) else C.sample(4, 40))
        for cut in f.cuts:
            probes.append(cut.threshold)
        for cert in f.certificates:
            probes.extend(p for p in (cert.lo, cert.hi, cert.witness) if p is not None)
        expected = [_first_matching_cut(f, y) for y in probes]
        assert [f.raw_value(y) for y in probes] == expected, C.id
        assert f.raw_values(probes) == expected, C.id
        assert f.raw_values(probes[::-1])[::-1] == expected, C.id
        checked += len(probes)
    assert checked > 1000


_OUTSIDE = {
    "finite:4": 4,
    "int": Fraction(1, 2),
    "dyadic01": Fraction(1, 3),
    "rat01": Fraction(3, 2),
    "omega+1": -1,
    "split": (Fraction(1, 2), 2),
}


@pytest.mark.parametrize("cid", sorted(_OUTSIDE))
def test_every_constructor_rejects_a_bad_cut_side_or_cuts_out_of_order(cid):
    C = make_chain(cid)
    lo, hi = C.sample(0, 2)
    zero, half = Fraction(0), Fraction(1, 2)
    with pytest.raises(MalformedElement):
        SeparatingFunction(C, (Cut(lo, "bogus", zero),))
    with pytest.raises(MalformedElement):
        replace(SeparatingFunction(C, ()), cuts=(Cut(lo, "bogus", zero),))
    for cuts in (
        (Cut(hi, BELOW_OR_EQUAL, zero), Cut(lo, BELOW_OR_EQUAL, half)),
        (Cut(lo, BELOW_OR_EQUAL, zero), Cut(lo, STRICTLY_BELOW, half)),
        (Cut(lo, STRICTLY_BELOW, zero), Cut(lo, STRICTLY_BELOW, half)),
        (Cut(lo, BELOW_OR_EQUAL, zero), Cut(lo, BELOW_OR_EQUAL, half)),
        (Cut(hi, STRICTLY_BELOW, zero), Cut(lo, BELOW_OR_EQUAL, half)),
    ):
        with pytest.raises(NotStrictlyOrdered):
            SeparatingFunction(C, cuts)
    # a strictly-below cut comes before a below-or-equal one at its threshold
    f = SeparatingFunction(C, (Cut(lo, STRICTLY_BELOW, zero), Cut(lo, BELOW_OR_EQUAL, half)))
    assert f.raw_values([hi, lo]) == [Fraction(1), half]


@pytest.mark.parametrize("cid", sorted(_OUTSIDE))
def test_every_entry_point_rejects_an_element_outside_the_chain(cid):
    C = make_chain(cid)
    good, bad = C.least() if C.has_least else C.sample(0, 1)[0], _OUTSIDE[cid]
    empty = IntervalSet(C, ())
    f = SeparatingFunction(C, ())
    zero, one = Fraction(0), Fraction(1)
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
        lambda: SeparatingFunction(C, (Cut(bad, BELOW_OR_EQUAL, zero),)),
        lambda: SeparatingFunction(C, (), certificates=(JumpCertificate("gap", bad, good, zero, one),)),
        lambda: SeparatingFunction(C, (), certificates=(JumpCertificate("gap", good, bad, zero, one),)),
        lambda: SeparatingFunction(
            C, (), certificates=(JumpCertificate("density", good, good, zero, one, bad),)
        ),
        lambda: f(bad),
        lambda: separate_from_lower(C, empty, bad),
        lambda: verify_separating(C, f, empty, bad),
        lambda: chain_way_below(C, good, bad),
        lambda: chain_way_below(C, bad, good),
    ]
    for call in calls:
        with pytest.raises(MalformedElement):
            call()
