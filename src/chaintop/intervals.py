"""Finite unions of endpoint-described intervals over a chain, and their
decomposition into maximal order-convex components.

Canonicalization is gap-aware: two intervals merge exactly when nothing
of the chain lies strictly between them, which is where completeness of
the chain starts to matter.  Unbounded rays carry symbolic infinities
because catalog chains may lack extremes.

An interval set validates its endpoints when it is built and keeps their
raw order keys beside them, `None` for an infinite end, so membership
validates the point once and then compares keys only: one comparison per
finite end, `<=` or `<` as the end is open or closed.  A caller that holds
the key of a validated point already tests it with `_key_member`, on the
set's bounds or on an order-preserving image of bounds and key alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bitsets import as_set, elements
from .chains import ChainHandle
from .errors import MalformedElement, NotAChain, NotOpen
from .poset import FinitePoset
from .topology import Topology


class _Infinity:
    __slots__ = ("_repr",)

    def __init__(self, r):
        self._repr = r

    def __repr__(self):
        return self._repr


NEG_INF = _Infinity("-inf")
POS_INF = _Infinity("+inf")


@dataclass(frozen=True)
class Interval:
    """One interval: endpoints are chain elements or the infinities.

    Infinite ends are always open; a missing endpoint cannot be attained.
    """

    lower: object
    lower_open: bool
    upper: object
    upper_open: bool

    def __post_init__(self):
        if self.lower is POS_INF or self.upper is NEG_INF:
            raise MalformedElement("interval endpoints are reversed infinities")
        if self.lower is NEG_INF and not self.lower_open:
            object.__setattr__(self, "lower_open", True)
        if self.upper is POS_INF and not self.upper_open:
            object.__setattr__(self, "upper_open", True)

    def bounded(self) -> bool:
        return self.lower is not NEG_INF and self.upper is not POS_INF


def closed_interval(a, b) -> Interval:
    return Interval(a, False, b, False)


def open_interval(a, b) -> Interval:
    return Interval(a, True, b, True)


def below(b, strict: bool = False) -> Interval:
    """The ray of everything below b."""
    return Interval(NEG_INF, True, b, strict)


def above(a, strict: bool = False) -> Interval:
    """The ray of everything above a."""
    return Interval(a, strict, POS_INF, True)


WHOLE = Interval(NEG_INF, True, POS_INF, True)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of intervals over one chain.

    Raw instances may overlap or be mis-ordered; `normalize` returns the
    canonical form (disjoint, non-adjacent, ascending, endpoints closed
    wherever the chain admits it).
    """

    chain: ChainHandle
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        fixed = []
        for iv in self.intervals:
            lo = iv.lower if iv.lower is NEG_INF else self.chain.validate(iv.lower)
            hi = iv.upper if iv.upper is POS_INF else self.chain.validate(iv.upper)
            fixed.append(Interval(lo, iv.lower_open, hi, iv.upper_open))
        object.__setattr__(self, "intervals", tuple(fixed))
        # a plain attribute, not a field: equality, repr and asdict see
        # only the intervals, and `replace` rebuilds it with them
        key = self.chain.key
        object.__setattr__(self, "_bounds", tuple(
            (None if iv.lower is NEG_INF else key(iv.lower), iv.lower_open,
             None if iv.upper is POS_INF else key(iv.upper), iv.upper_open)
            for iv in fixed
        ))

    def member(self, x) -> bool:
        return interval_member(self, x)


def _point_key(chain: ChainHandle, e):
    """The order key of a validated endpoint; the infinities bracket
    every element."""
    if e is NEG_INF:
        return (-1,)
    if e is POS_INF:
        return (1,)
    return (0, chain.key(e))


def interval_member(IS: IntervalSet, x) -> bool:
    """Whether x satisfies some interval's endpoint constraints."""
    return _key_member(IS._bounds, IS.chain.key(IS.chain.validate(x)))


def _key_member(bounds, kx) -> bool:
    """Membership of the validated element whose key is kx in the set
    whose `_bounds` are `bounds`; callers that hold keys already skip the
    validation of `interval_member`.  Any map that preserves the order of
    keys exactly may be applied to the bounds and to kx together."""
    for lo, lower_open, hi, upper_open in bounds:
        if lo is not None and (kx <= lo if lower_open else kx < lo):
            continue
        if hi is not None and (kx >= hi if upper_open else kx > hi):
            continue
        return True
    return False


def _canonical_interval(chain: ChainHandle, iv: Interval) -> Optional[Interval]:
    """Close endpoints where the chain admits it; None when empty."""
    lo, lo_open = iv.lower, iv.lower_open
    hi, hi_open = iv.upper, iv.upper_open
    if lo is NEG_INF and chain.has_least:
        lo, lo_open = chain.least(), False
    if hi is POS_INF and chain.has_greatest:
        hi, hi_open = chain.greatest(), False
    if lo is not NEG_INF and lo_open:
        succ = chain.successor(lo)
        if succ is not None:
            lo, lo_open = succ, False
    if hi is not POS_INF and hi_open:
        pred = chain.predecessor(hi)
        if pred is not None:
            hi, hi_open = pred, False
    if lo is NEG_INF or hi is POS_INF:
        return Interval(lo, lo_open, hi, hi_open)
    klo, khi = chain.key(lo), chain.key(hi)
    if klo > khi:
        return None
    if klo == khi:
        return None if lo_open or hi_open else Interval(lo, False, hi, False)
    if lo_open and hi_open and chain.between(lo, hi) is None:
        return None
    return Interval(lo, lo_open, hi, hi_open)


def _mergeable(chain: ChainHandle, left: Interval, right: Interval) -> bool:
    """Whether two start-ordered canonical intervals have an order-convex
    union: they overlap, touch with a closed side, or sit across a gap."""
    if left.upper is POS_INF or right.lower is NEG_INF:
        return True
    kup, klo = chain.key(left.upper), chain.key(right.lower)
    if kup > klo:
        return True
    if kup == klo:
        return not (left.upper_open and right.lower_open)
    if not left.upper_open and not right.lower_open:
        return chain.between(left.upper, right.lower) is None
    return False


def _merge(chain: ChainHandle, left: Interval, right: Interval) -> Interval:
    # the higher upper end wins; at a tie the closed end does
    top = max(left, right, key=lambda iv: (_point_key(chain, iv.upper), not iv.upper_open))
    return Interval(left.lower, left.lower_open, top.upper, top.upper_open)


def _start_key(chain: ChainHandle):
    """Sort key of intervals by lower end, a closed end first."""
    return lambda iv: (_point_key(chain, iv.lower), iv.lower_open)


def normalize(IS: IntervalSet) -> IntervalSet:
    """Canonical form: same membership, intervals disjoint, non-adjacent,
    sorted ascending, endpoints attained wherever possible."""
    chain = IS.chain
    cleaned = []
    for iv in IS.intervals:
        c = _canonical_interval(chain, iv)
        if c is not None:
            cleaned.append(c)
    cleaned.sort(key=_start_key(chain))
    merged: list[Interval] = []
    for iv in cleaned:
        if merged and _mergeable(chain, merged[-1], iv):
            merged[-1] = _merge(chain, merged[-1], iv)
        else:
            merged.append(iv)
    return IntervalSet(chain, tuple(merged))


def convex_components(IS: IntervalSet) -> list[IntervalSet]:
    """The maximal order-convex pieces of the union, one IntervalSet each."""
    norm = normalize(IS)
    return [IntervalSet(norm.chain, (iv,)) for iv in norm.intervals]


def is_order_convex(IS: IntervalSet) -> bool:
    """True iff the union has at most one convex component."""
    return len(normalize(IS).intervals) <= 1


def decompose_open_finite(
    P: FinitePoset, T: Topology, subset: Iterable[int]
) -> list[frozenset[int]]:
    """Partition an open subset of a finite chain into its maximal
    order-convex pieces and insist each piece is open."""
    if not P.is_chain:
        raise NotAChain("decomposition requires a chain")
    mask = P.as_mask(subset)
    if P.n != T.n:
        raise NotOpen(f"carrier mismatch: poset {P.n}, topology {T.n}")
    if not T.is_open_mask(mask):
        raise NotOpen(f"{sorted(as_set(mask))} is not open in the given topology")
    order = sorted(range(P.n), key=lambda x: P.down[x].bit_count())
    runs: list[int] = []
    current = 0
    for x in order:
        if mask >> x & 1:
            current |= 1 << x
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    for run in runs:
        if not T.is_open_mask(run):
            raise NotOpen(f"component {sorted(as_set(run))} is not open in the topology")
    # maximality: consecutive runs are separated by a non-member, so any
    # coarsening of the partition loses order-convexity
    position = {x: i for i, x in enumerate(order)}
    for a, b in zip(runs, runs[1:]):
        end_a = max(position[x] for x in elements(a))
        start_b = min(position[x] for x in elements(b))
        separated = any(
            not mask >> order[i] & 1 for i in range(end_a + 1, start_b)
        )
        if not separated:
            raise AssertionError("adjacent components were not separated")
    return [as_set(r) for r in runs]
