"""Way-below machinery: way-below and way-way-below, complete
distributivity, and the report on where strict order and way-below
agree on a chain.

On a finite poset every directed set has a greatest element, its
supremum, so way-below is the order itself and `way_below_report` reads
its table from the up-sets.  Way-way-below has no such closed form: a
row of it takes one pass over the subsets that avoid the principal
filter.  The brute-force definitions live in `definitions`, as the
oracles these are tested against.  On catalog chains the relation is
decided through local structure (gaps, predecessors, extremes)."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .bitsets import as_set, elements
from .chains import ChainHandle, FiniteChain
from .errors import NotAChain
from .poset import FinitePoset, classify


def way_below(P: FinitePoset, x: int, y: int) -> bool:
    """Way-below on a finite poset, which is the order: the supremum of
    a finite directed set is its greatest element, so when x <= y every
    directed set with supremum above y has an element above x, and {y}
    shows the converse."""
    P.check_index(x)
    P.check_index(y)
    return P.leq(x, y)


@dataclass(frozen=True)
class WayBelowReport:
    """The full way-below relation of a poset with its compact elements."""

    poset: FinitePoset
    ll: tuple[int, ...]
    compact_mask: int

    def __post_init__(self):
        P = self.poset
        for x in range(P.n):
            if self.ll[x] & ~P.up[x]:
                raise AssertionError("way-below exceeded the order relation")
        diag = 0
        for x in range(P.n):
            if self.ll[x] >> x & 1:
                diag |= 1 << x
        if diag != self.compact_mask:
            raise AssertionError("compact elements disagree with the diagonal")

    @property
    def compact(self) -> frozenset[int]:
        return as_set(self.compact_mask)

    def as_dict(self) -> dict:
        n = self.poset.n
        return {
            "n": n,
            "ll": [[bool(self.ll[x] >> y & 1) for y in range(n)] for x in range(n)],
            "compact": sorted(self.compact),
        }


def way_below_report(P: FinitePoset) -> WayBelowReport:
    """Way-below is the order, so every element is compact."""
    return WayBelowReport(P, P.up, P.full)


def chain_way_below(C: ChainHandle, x, y) -> bool:
    """Way-below on a chain: strict order forces it, the diagonal is the
    compactness question, and descending pairs never qualify."""
    c = C.compare(x, y)
    if c < 0:
        return True
    if c > 0:
        return False
    return C.local_structure(x).is_compact


def way_way_below_row(P: FinitePoset, x: int) -> int:
    """The mask of all y with x way-way-below y.

    x fails to be way-way-below y iff some subset missing the principal
    filter of x, the empty set included, has a supremum s >= y.  One
    pass over the subsets of the complement of that filter removes the
    down-set of each such s.
    """
    P.check_index(x)
    rest = P.full & ~P.up[x]
    row = P.full
    S = rest
    while True:
        s = P.sup_mask(S)
        if s is not None:
            row &= ~P.down[s]
        if not S:
            return row
        S = (S - 1) & rest


def way_way_below(P: FinitePoset, x: int, y: int) -> bool:
    """Like way-below but quantified over arbitrary subsets with suprema,
    the empty set included (its supremum is the least element)."""
    row = way_way_below_row(P, x)
    P.check_index(y)
    return bool(row >> y & 1)


def _way_way_below_columns(P: FinitePoset) -> list[int]:
    """For each x, the mask of the elements way-way-below x."""
    cols = [0] * P.n
    for y in range(P.n):
        for x in elements(way_way_below_row(P, y)):
            cols[x] |= 1 << y
    return cols


def way_way_below_set(P: FinitePoset, x: int) -> frozenset[int]:
    P.check_index(x)
    return as_set(_way_way_below_columns(P)[x])


def distributivity_failure(P: FinitePoset) -> int | None:
    """The first element that is not the supremum of the elements
    way-way-below it, or None when P is completely distributive."""
    for x, approx in enumerate(_way_way_below_columns(P)):
        if P.sup_mask(approx) != x:
            return x
    return None


def is_completely_distributive(P: FinitePoset) -> bool:
    """Every element is the supremum of the elements way-way-below it."""
    return distributivity_failure(P) is None


@dataclass(frozen=True)
class Corollary3Report:
    """Equivalence record: strict order agrees with way-below away from
    the least element iff no other element is compact."""

    cond1: bool
    cond2: bool
    order_dense: bool
    conditionally_complete: bool

    def __post_init__(self):
        if self.cond1 != self.cond2:
            raise AssertionError("the two equivalent conditions disagree")
        if self.cond1 and not self.order_dense:
            raise AssertionError("agreement of < and way-below must force density")
        if self.conditionally_complete and self.order_dense and not self.cond1:
            raise AssertionError("density plus conditional completeness must force agreement")

    def as_dict(self) -> dict:
        return asdict(self)


def _finite_chain_report(P: FinitePoset, ll=way_below) -> Corollary3Report:
    """The report on a finite chain, with way-below decided by ``ll``."""
    least = P.least()
    cond1 = True
    for x in range(P.n):
        for y in range(P.n):
            if x == y == least:
                continue
            if P.lt(x, y) != ll(P, x, y):
                cond1 = False
    cond2 = all(not ll(P, x, x) for x in range(P.n) if x != least)
    cls = classify(P)
    return Corollary3Report(cond1, cond2, cls.order_dense, cls.conditionally_complete)


def corollary3_report(obj, samples: int = 64, seed: int = 0) -> Corollary3Report:
    """Check the agreement-of-relations conditions on a chain.

    Finite inputs are settled exhaustively over all pairs.  Infinite
    handles take the globally quantified flags from their declared
    metadata and spot-verify them on a seeded sample: the diagonal of
    chain_way_below must match the declared compactness profile, and
    declared density must produce a witness between every sampled pair.
    """
    if isinstance(obj, FiniteChain):
        return _finite_chain_report(obj.to_finite_poset())
    if isinstance(obj, FinitePoset):
        if not obj.is_chain:
            raise NotAChain("the report is only defined on chains")
        return _finite_chain_report(obj)
    C: ChainHandle = obj
    pts = C.sample(seed, samples)
    least = C.least() if C.has_least else None
    compact_witness = False
    for p in pts:
        if least is not None and C.compare(p, least) == 0:
            continue
        if chain_way_below(C, p, p):
            compact_witness = True
            if C.only_least_compact:
                raise AssertionError(f"{C.format(p)} is compact but the profile forbids it")
    if not C.only_least_compact and len(pts) >= 3 and not compact_witness:
        raise AssertionError(f"no sampled compact element corroborates the {C.id} profile")
    for a, b in zip(pts, pts[1:]):
        w = C.between(a, b)
        if C.declared_order_dense and w is None:
            raise AssertionError(
                f"declared density refuted between {C.format(a)} and {C.format(b)}"
            )
        if w is not None and not (C.compare(a, w) < 0 < C.compare(b, w)):
            raise AssertionError("between returned an element outside the gap")
    cond = C.only_least_compact
    return Corollary3Report(
        cond1=cond,
        cond2=cond,
        order_dense=C.declared_order_dense,
        conditionally_complete=C.declared_conditionally_complete,
    )
