"""Monotone continuous maps into [0,1] separating a closed lower set
from an outside point.

A separating function is 0 up to a point lo, 1 from a point hi on, and in
between the exact ramp (c(y) - c(lo)) / (c(hi) - c(lo)) over the chain's
coordinate c, which is monotone and continuous for the order topology.
Across a gap nothing lies between lo and hi, so the same representation
is a two-valued step there and needs no coordinate.  A function
validates lo and hi once and keeps their keys; each argument it is
called with is validated once and compared by key.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .chains import ChainHandle, FiniteChain, ReversedChain
from .errors import NotClosed, NotLowerSet, NotStrictlyOrdered, PointInsideA
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    interval_member,
    normalize,
)
from .topology import canonical_topology

_ZERO = Fraction(0)
_ONE = Fraction(1)
# a ramp's continuity check: bisection must split it into pieces that
# rise by at most _TOLERANCE, or into gaps, within _STEPS halvings
_TOLERANCE = Fraction(1, 2**7)
_STEPS = 40


@dataclass(frozen=True)
class SeparatingFunction:
    """Monotone continuous map into [0,1]: 0 for y <= lo, 1 for y >= hi,
    and the exact ramp over the chain's coordinate in between.

    lo = hi = None is the constant 1.  ``complemented`` flips values
    through 1 - v, which turns a monotone function on a reversed chain
    into an antitone one on the original.
    """

    chain: ChainHandle
    lo: object
    hi: object
    complemented: bool = False

    def __post_init__(self):
        C = self.chain
        if self.lo is None and self.hi is None:
            return
        lo, hi = C.validate(self.lo), C.validate(self.hi)
        klo, khi = C.key(lo), C.key(hi)
        if not klo < khi:
            raise NotStrictlyOrdered(f"{C.format(lo)} is not strictly below {C.format(hi)}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # plain attributes, not fields: `replace` rebuilds them
        object.__setattr__(self, "_klo", klo)
        object.__setattr__(self, "_khi", khi)
        if C._between(lo, hi) is not None:
            clo, chi = C.coordinate(lo), C.coordinate(hi)
            if not clo < chi:
                raise NotStrictlyOrdered(
                    f"{C.format(lo)} and {C.format(hi)} share a coordinate without a gap"
                )
            object.__setattr__(self, "_clo", clo)
            object.__setattr__(self, "_span", chi - clo)

    def raw_value(self, y) -> Fraction:
        y = self.chain.validate(y)
        if self.lo is None:
            return _ONE
        k = self.chain.key(y)
        if k <= self._klo:
            return _ZERO
        if k >= self._khi:
            return _ONE
        # strictly between lo and hi, so (lo, hi) is no gap and this is a ramp
        return (self.chain.coordinate(y) - self._clo) / self._span

    def raw_values(self, ys) -> list[Fraction]:
        return [self.raw_value(y) for y in ys]

    def __call__(self, y) -> Fraction:
        v = self.raw_value(y)
        return 1 - v if self.complemented else v


def _lower_set_boundary(chain: ChainHandle, A: IntervalSet):
    """Validate the closed-lower-set shape and return its attained upper
    boundary, or None for the empty set."""
    norm = normalize(A)
    if not norm.intervals:
        return None
    if len(norm.intervals) > 1:
        raise NotLowerSet("a lower set has a single convex component")
    iv = norm.intervals[0]
    covers_bottom = iv.lower is NEG_INF or (
        chain.has_least
        and not iv.lower_open
        and chain.key(iv.lower) == chain.key(chain.least())
    )
    if not covers_bottom:
        raise NotLowerSet("the component does not reach the bottom of the chain")
    if iv.upper is POS_INF:
        raise PointInsideA("the lower set is the whole chain")
    if iv.upper_open:
        # after canonicalization an open boundary has no predecessor, so
        # the complement filter is not open and the set is not closed
        raise NotClosed(f"boundary {chain.format(iv.upper)} is not attained")
    return iv.upper


def separate_from_lower(C: ChainHandle, A: IntervalSet, x) -> SeparatingFunction:
    """A monotone continuous function that is 0 on the closed lower set A
    and 1 at x.

    It steps across a gap where one lies at hand: from the boundary b of
    A to its successor, or where b has none, from the point m between b
    and x to the successor of m.  Only where neither has a successor does
    it ramp over the coordinate from b to x.
    """
    x = C.validate(x)
    if interval_member(A, x):
        raise PointInsideA(f"{C.format(x)} lies inside the set to separate from")
    b = _lower_set_boundary(C, A)
    if b is None:
        return SeparatingFunction(C, None, None)
    succ = C.successor(b)
    if succ is not None:
        return SeparatingFunction(C, b, succ)
    # b has no successor, so something lies strictly between b and x
    m = C._between(b, x)
    succ = C.successor(m)
    if succ is not None:
        return SeparatingFunction(C, m, succ)
    return SeparatingFunction(C, b, x)


def reverse_interval_set(IS: IntervalSet) -> IntervalSet:
    """The same point set viewed through the order-reversal adapter."""
    rev = ReversedChain(IS.chain) if not isinstance(IS.chain, ReversedChain) else IS.chain.base
    flipped = tuple(
        Interval(
            NEG_INF if iv.upper is POS_INF else iv.upper,
            iv.upper_open,
            POS_INF if iv.lower is NEG_INF else iv.lower,
            iv.lower_open,
        )
        for iv in IS.intervals
    )
    return IntervalSet(rev, flipped)


def separate_from_upper(C: ChainHandle, A: IntervalSet, x) -> SeparatingFunction:
    """Dual separation: 1 on the closed upper set A, 0 at x.

    This is the lower-set construction on the order-reversed handle with
    values complemented."""
    rev_A = reverse_interval_set(A)
    g = separate_from_lower(rev_A.chain, rev_A, x)
    return replace(g, complemented=True)


@dataclass(frozen=True)
class VerificationReport:
    monotone_ok: bool
    zero_on_A_ok: bool
    one_at_x_ok: bool
    continuity_ok: bool

    def all_ok(self) -> bool:
        return self.monotone_ok and self.zero_on_A_ok and self.one_at_x_ok and self.continuity_ok

    def as_dict(self) -> dict:
        return asdict(self)


def _finite_continuity(C: FiniteChain, f: SeparatingFunction) -> bool:
    """Exact openness of subbasic preimages in the intrinsic topology."""
    P = C.to_finite_poset()
    T = canonical_topology(P, "intrinsic")
    raw = f.raw_values(range(C.n))
    for v in sorted(set(raw)):
        strictly_below = 0
        strictly_above = 0
        for y, fy in enumerate(raw):
            if fy < v:
                strictly_below |= 1 << y
            if fy > v:
                strictly_above |= 1 << y
        if not T.is_open_mask(strictly_below) or not T.is_open_mask(strictly_above):
            return False
    return True


def _ramp_continuity(f: SeparatingFunction) -> bool:
    """A monotone function is continuous when bisection with `between`
    splits [lo, hi], within _STEPS halvings, into gaps and pieces over
    which it rises by at most the tolerance.  A jump larger than the
    tolerance, wherever it lies, keeps its piece above it at every level.
    Below lo and above hi the function is constant."""
    if f.lo is None:
        return True
    C = f.chain
    pieces = [(f.lo, f.hi, f.raw_value(f.lo), f.raw_value(f.hi), 0)]
    while pieces:
        a, b, fa, fb, level = pieces.pop()
        if fb - fa <= _TOLERANCE:
            continue
        m = C._between(a, b)
        if m is None:
            continue
        if level == _STEPS:
            return False
        fm = f.raw_value(m)
        pieces.append((a, m, fa, fm, level + 1))
        pieces.append((m, b, fm, fb, level + 1))
    return True


def verify_separating(
    C: ChainHandle,
    f: SeparatingFunction,
    A: IntervalSet,
    x,
    samples: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Check the separation postconditions on a seeded sample.

    Monotonicity and the boundary values are sampled; continuity is
    exact on finite chains and checked by bisection on infinite ones.
    """
    x = C.validate(x)
    if isinstance(C, FiniteChain):
        samples = min(samples, C.n)
    pts = list(C.sample(seed, samples))
    pts.append(x)
    # probe both ends of the ramp as well
    pts.extend(p for p in (f.lo, f.hi) if p is not None)
    norm = normalize(A)
    if norm.intervals and norm.intervals[0].upper is not POS_INF:
        if not norm.intervals[0].upper_open:
            pts.append(norm.intervals[0].upper)
    pts.sort(key=C.key)
    values = f.raw_values(pts)
    if f.complemented:
        values = [1 - v for v in values]
    monotone_ok = all(a <= b for a, b in zip(values, values[1:]))
    zero_on_A_ok = all(
        v == 0 for p, v in zip(pts, values) if interval_member(norm, p)
    )
    one_at_x_ok = f(x) == 1
    if isinstance(C, FiniteChain):
        continuity_ok = _finite_continuity(C, f)
    else:
        continuity_ok = _ramp_continuity(f)
    return VerificationReport(monotone_ok, zero_on_A_ok, one_at_x_ok, continuity_ok)
