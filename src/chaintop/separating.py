"""Monotone [0,1]-valued step functions separating a closed lower set
from an outside point.

A function is a finite cut list, so it can only change value finitely
often: across a gap of the chain such a jump is genuinely continuous,
while inside a dense stretch the construction bisects down to a
configurable depth and certifies each residual jump (of size 2^-depth)
with the density witness that allows refining it further.  Every jump
therefore carries a machine-checkable certificate instead of an
unverifiable claim about infinitely many open sets.

A function validates its cut thresholds and certificate elements when
it is built and keeps each cut's order key, and it validates each
argument once when it is called; from there on every comparison is by
the chain's order key.  One point is found among the cuts by bisection;
many points are sorted once and walked together with the cuts, one key
comparison per step: a point passes a below-or-equal cut when its key is
above the threshold's, and a strictly-below cut when it is at or above.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .chains import ChainHandle, FiniteChain, ReversedChain
from .errors import (
    CapExceeded,
    ChainTopError,
    MalformedElement,
    NotClosed,
    NotLowerSet,
    NotStrictlyOrdered,
    PointInsideA,
)
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    interval_member,
    normalize,
)
from .topology import canonical_topology

BELOW_OR_EQUAL = "below-or-equal"
STRICTLY_BELOW = "strictly-below"

DEFAULT_DEPTH = 10
# a dense stretch bisects into up to 2^depth cuts
DEPTH_CAP = 12


@dataclass(frozen=True)
class Cut:
    threshold: object
    side: str
    value: Fraction


@dataclass(frozen=True)
class JumpCertificate:
    """Evidence that one value jump respects the chain's structure."""

    kind: str  # "gap" or "density"
    lo: object
    hi: object
    lo_value: Fraction
    hi_value: Fraction
    witness: object = None


@dataclass(frozen=True)
class SeparatingFunction:
    """Piecewise-constant monotone map into [0,1].

    The cuts ascend strictly by threshold, a strictly-below cut before a
    below-or-equal one at the same threshold.  Evaluation returns the
    value of the first matching cut, defaulting to 1 beyond them.
    ``complemented`` flips values through 1 - v, which turns a monotone
    function on a reversed chain into an antitone one on the original.
    """

    chain: ChainHandle
    cuts: tuple[Cut, ...]
    default: Fraction = Fraction(1)
    depth: int = DEFAULT_DEPTH
    certificates: tuple[JumpCertificate, ...] = ()
    complemented: bool = False

    def __post_init__(self):
        v = self.chain.validate
        key = self.chain.key
        for c in self.cuts:
            if c.side not in (BELOW_OR_EQUAL, STRICTLY_BELOW):
                raise MalformedElement(f"unknown cut side {c.side!r}")
        cuts = tuple(Cut(v(c.threshold), c.side, c.value) for c in self.cuts)
        certs = tuple(
            JumpCertificate(
                c.kind, v(c.lo), v(c.hi), c.lo_value, c.hi_value,
                None if c.witness is None else v(c.witness),
            )
            for c in self.certificates
        )
        # a cut matches y when y < threshold, or y == threshold on a
        # below-or-equal cut: exactly when its key (key(threshold),
        # below-or-equal) >= (key(y), True).  Strictly ascending keys make
        # that monotone along the cuts, so the first matching cut is the
        # first key at or above y's.  A plain attribute, not a field:
        # `replace` rebuilds it with the cuts.
        cut_keys = [(key(c.threshold), c.side == BELOW_OR_EQUAL) for c in cuts]
        for (ka, a_le), (kb, b_le) in zip(cut_keys, cut_keys[1:]):
            # one threshold may carry a strictly-below cut, then a
            # below-or-equal one
            if not (ka <= kb if b_le and not a_le else ka < kb):
                raise NotStrictlyOrdered("cuts must ascend strictly by threshold and side")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "certificates", certs)
        object.__setattr__(self, "_cut_keys", cut_keys)

    def _value_at(self, i: int) -> Fraction:
        return self.cuts[i].value if i < len(self.cuts) else self.default

    def raw_value(self, y) -> Fraction:
        return self._value_at(
            bisect_left(self._cut_keys, (self.chain.key(self.chain.validate(y)), True))
        )

    def raw_values(self, ys) -> list[Fraction]:
        """`raw_value` of each y, in input order: the points are sorted
        once and walked together with the ascending cuts."""
        validate, key = self.chain.validate, self.chain.key
        keys = [key(validate(y)) for y in ys]
        cut_keys = self._cut_keys
        m = len(cut_keys)
        out: list = [None] * len(keys)
        i = 0
        # linear for input that already ascends or descends
        for j in sorted(range(len(keys)), key=keys.__getitem__):
            ky = keys[j]
            # step past the cuts y does not match
            while i < m:
                kt, le = cut_keys[i]
                if not (ky > kt if le else ky >= kt):
                    break
                i += 1
            out[j] = self._value_at(i)
        return out

    def __call__(self, y) -> Fraction:
        v = self.raw_value(y)
        return 1 - v if self.complemented else v


def evaluate(f: SeparatingFunction, y) -> Fraction:
    return f(y)


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


def separate_from_lower(
    C: ChainHandle, A: IntervalSet, x, depth: int = DEFAULT_DEPTH
) -> SeparatingFunction:
    """A monotone function that is 0 on the closed lower set A and 1 at x.

    If the stretch between the boundary of A and x collapses into a gap
    the result is a two-valued step; otherwise bisection builds a dyadic
    staircase with one certificate per jump.
    """
    if depth < 0:
        raise ChainTopError(f"depth must be nonnegative, got {depth}")
    if depth > DEPTH_CAP:
        raise CapExceeded(depth, DEPTH_CAP)
    x = C.validate(x)
    if interval_member(A, x):
        raise PointInsideA(f"{C.format(x)} lies inside the set to separate from")
    b = _lower_set_boundary(C, A)
    if b is None:
        return SeparatingFunction(C, (), depth=depth)
    succ = C.successor(b)
    if succ is not None:
        # a gap right above the boundary: the indicator of the strict
        # upper cone is already continuous, no staircase needed
        step = (Cut(b, BELOW_OR_EQUAL, Fraction(0)),)
        cert = (JumpCertificate("gap", b, succ, Fraction(0), Fraction(1)),)
        return SeparatingFunction(C, step, depth=depth, certificates=cert)
    cuts: list[Cut] = []
    certs: list[JumpCertificate] = []
    # an explicit stack: a self-calling closure would be a reference
    # cycle that keeps both lists alive until a full collection
    stack = [(b, x, Fraction(0), Fraction(1), depth)]
    while stack:
        lo, hi, vlo, vhi, budget = stack.pop()
        # lo and hi are validated and lo < hi by construction, so the
        # unchecked query suffices
        mid = C._between(lo, hi)
        if mid is None:
            cuts.append(Cut(lo, BELOW_OR_EQUAL, vlo))
            certs.append(JumpCertificate("gap", lo, hi, vlo, vhi))
        elif budget == 0:
            cuts.append(Cut(hi, STRICTLY_BELOW, vlo))
            certs.append(JumpCertificate("density", lo, hi, vlo, vhi, witness=mid))
        else:
            vmid = (vlo + vhi) / 2
            # the right half goes on first, so the left half's cuts come first
            stack.append((mid, hi, vmid, vhi, budget - 1))
            stack.append((lo, mid, vlo, vmid, budget - 1))
    return SeparatingFunction(C, tuple(cuts), depth=depth, certificates=tuple(certs))


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


def separate_from_upper(
    C: ChainHandle, A: IntervalSet, x, depth: int = DEFAULT_DEPTH
) -> SeparatingFunction:
    """Dual separation: 1 on the closed upper set A, 0 at x.

    This is the lower-set construction on the order-reversed handle with
    values complemented."""
    rev_A = reverse_interval_set(A)
    g = separate_from_lower(rev_A.chain, rev_A, x, depth)
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


def _certified_continuity(C: ChainHandle, f: SeparatingFunction) -> bool:
    """Each jump must carry a valid gap or density certificate."""
    levels = [cut.value for cut in f.cuts] + [f.default]
    jumps = sum(1 for a, b in zip(levels, levels[1:]) if a != b)
    if len(f.certificates) != jumps:
        return False
    tolerance = Fraction(1, 2**f.depth)
    key = C.key
    # lo, witness, hi per certificate: already ascending for a staircase
    points = []
    for cert in f.certificates:
        points += (cert.lo, cert.lo if cert.witness is None else cert.witness, cert.hi)
    raw = f.raw_values(points)
    for i, cert in enumerate(f.certificates):
        at_lo, at_witness, at_hi = raw[3 * i : 3 * i + 3]
        if key(cert.lo) >= key(cert.hi):
            return False
        if at_lo != cert.lo_value or at_hi != cert.hi_value:
            return False
        if cert.kind == "gap":
            if C.between(cert.lo, cert.hi) is not None:
                return False
        elif cert.kind == "density":
            w = cert.witness
            if w is None:
                return False
            if not key(cert.lo) < key(w) < key(cert.hi):
                return False
            if cert.hi_value - cert.lo_value > tolerance:
                return False
            if at_witness != cert.lo_value:
                return False
        else:
            return False
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
    exact on finite chains and certificate-checked on infinite ones.
    """
    x = C.validate(x)
    if isinstance(C, FiniteChain):
        samples = min(samples, C.n)
    pts = list(C.sample(seed, samples))
    pts.append(x)
    # probe every decision point of the function as well
    pts.extend(cut.threshold for cut in f.cuts)
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
        continuity_ok = _certified_continuity(C, f)
    return VerificationReport(monotone_ok, zero_on_A_ok, one_at_x_ok, continuity_ok)
