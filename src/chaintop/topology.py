"""Explicit topologies on finite carriers.

Every topology on a finite carrier is Alexandrov: each point x has a
least open set U_x, and the opens are exactly the unions of these.  A
topology is stored as the bitmask vector of its U_x, validated on
construction in O(n^2), so topology equality is equality of the
vectors; generation, joins, subspaces and products are pointwise.  The
open family is derived from the U_x only when it is asked for (the
dump format, whole-family iteration).  On a finite poset the Scott
topology is the Alexandrov topology of upper sets, U_x = up-set of x,
since a finite directed set contains its supremum; its definition is
kept in `definitions` as the oracle.
The separation and continuity checks use that an open set exists
around A avoiding B iff the least one does, the union of the U_x over
A; so normality and complete (hereditary) normality reduce to pairs of
points and cost O(n^2) at any size.  The normality, pospace,
topological-lattice and order-convex-basis checks are each one kernel
that returns the points where the property fails, or None.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Optional

from .bitsets import as_set, elements, full_mask, mask_of
from .errors import CarrierMismatch, IndexOutOfRange, NotALattice, NotATopology, UnknownTarget
from .poset import FinitePoset

CANONICAL_NAMES = (
    "upper",
    "lower",
    "scott",
    "dual_scott",
    "intrinsic",
    "interval",
    "open_interval",
    "order",
    "lawson",
    "dual_lawson",
    "bi_scott",
)


def _least_neighbourhoods(n: int, family: Iterable[int]) -> tuple[int, ...]:
    """U_x for each x: the intersection of the members containing x."""
    minimal = [full_mask(n)] * n
    for u in family:
        for x in elements(u):
            minimal[x] &= u
    return tuple(minimal)


@dataclass(frozen=True)
class Topology:
    """A topology on {0..n-1}, given by the least open set
    ``minimal[x]`` around each point x.

    The opens are exactly the unions of these sets; equality of
    topologies is equality of the tuples.
    """

    n: int
    minimal: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.minimal, tuple) or len(self.minimal) != self.n:
            raise NotATopology(f"expected a tuple of {self.n} least neighbourhoods")
        for x, u in enumerate(self.minimal):
            if u & ~self.full:
                raise IndexOutOfRange(f"open {u:#x} exceeds carrier of size {self.n}")
            if not u >> x & 1:
                raise NotATopology(f"the least neighbourhood of {x} misses {x}")
            for y in elements(u):
                if self.minimal[y] & ~u:
                    raise NotATopology(f"{y} lies in U_{x} but U_{y} is not inside U_{x}")

    @classmethod
    def from_opens(cls, n: int, opens: Iterable[int]) -> Topology:
        """The topology whose open family is ``opens``; rejects families
        that are not closed under union and intersection."""
        fam = frozenset(opens)
        full = full_mask(n)
        for u in fam:
            if u & ~full:
                raise IndexOutOfRange(f"open {u:#x} exceeds carrier of size {n}")
        if 0 not in fam or full not in fam:
            raise NotATopology("a topology must contain the empty set and the carrier")
        T = cls(n, _least_neighbourhoods(n, fam))
        # every member is the union of its points' U_x; closure under
        # adding any U_x from the empty set yields every such union
        if any(u | v not in fam for u in fam for v in T.minimal):
            raise NotATopology("open family is not closed under union/intersection")
        return T

    @cached_property
    def full(self) -> int:
        return full_mask(self.n)

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every union of the U_x, built up one point at a time."""
        fam = {0}
        for u in self.minimal:
            fam |= {v | u for v in fam}
        return frozenset(fam)

    @cached_property
    def sorted_opens(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens, key=lambda m: (m.bit_count(), elements(m))))

    def is_open_mask(self, mask: int) -> bool:
        return self.interior_mask(mask) == mask

    def is_closed_mask(self, mask: int) -> bool:
        return self.is_open_mask(self.full & ~mask)

    def interior_mask(self, mask: int) -> int:
        return mask_of(x for x, u in enumerate(self.minimal) if not u & ~mask)

    def closure_mask(self, mask: int) -> int:
        return self.full & ~self.interior_mask(self.full & ~mask)


def generate_topology(n: int, subbasis: Iterable[Iterable[int]]) -> Topology:
    """Smallest topology on {0..n-1} containing every subbasis member."""
    full = full_mask(n)
    masks = []
    for s in subbasis:
        m = s if isinstance(s, int) else mask_of(s)
        if m & ~full:
            raise IndexOutOfRange(f"subbasis member {m:#x} exceeds carrier of size {n}")
        masks.append(m)
    return Topology(n, _least_neighbourhoods(n, masks))


def join_topologies(T1: Topology, T2: Topology) -> Topology:
    """Topology generated by both open families together."""
    if T1.n != T2.n:
        raise CarrierMismatch(f"carriers {T1.n} and {T2.n} differ")
    return Topology(T1.n, tuple(u & v for u, v in zip(T1.minimal, T2.minimal)))


def topology_equal(T1: Topology, T2: Topology) -> bool:
    if T1.n != T2.n:
        raise CarrierMismatch(f"carriers {T1.n} and {T2.n} differ")
    return T1.minimal == T2.minimal


def _upper_topology(P: FinitePoset) -> Topology:
    return generate_topology(P.n, [P.full & ~P.down[x] for x in range(P.n)])


def _lower_topology(P: FinitePoset) -> Topology:
    return generate_topology(P.n, [P.full & ~P.up[x] for x in range(P.n)])


def canonical_topology(P: FinitePoset, name: str) -> Topology:
    """One of the named topologies attached to a poset.

    upper/lower are generated by complements of principal ideals and
    filters; scott has the up-set of each point as its least
    neighbourhood and dual_scott the down-set, which is the
    directed-supremum definition on a finite poset
    (`definitions.scott_topology` computes that definition); the
    interval family is the join of upper and lower; order and
    open_interval are ray-generated; lawson variants join scott with the
    opposite ray topology.  intrinsic and interval name one
    construction; both names stay because the CLI exposes them.
    """
    if name == "upper":
        return _upper_topology(P)
    if name == "lower":
        return _lower_topology(P)
    if name == "scott":
        return Topology(P.n, P.up)
    if name == "dual_scott":
        return Topology(P.n, P.down)
    if name in ("intrinsic", "interval"):
        return join_topologies(_upper_topology(P), _lower_topology(P))
    if name == "order":
        rays = [P.strict_up(x) for x in range(P.n)] + [P.strict_down(x) for x in range(P.n)]
        return generate_topology(P.n, rays)
    if name == "open_interval":
        rays = [P.strict_up(x) for x in range(P.n)] + [P.strict_down(x) for x in range(P.n)]
        rays += [
            P.strict_up(a) & P.strict_down(b) for a in range(P.n) for b in range(P.n)
        ]
        return generate_topology(P.n, rays)
    if name == "lawson":
        return join_topologies(Topology(P.n, P.up), _lower_topology(P))
    if name == "dual_lawson":
        return join_topologies(Topology(P.n, P.down), _upper_topology(P))
    if name == "bi_scott":
        return join_topologies(Topology(P.n, P.up), Topology(P.n, P.down))
    raise UnknownTarget(f"unknown topology name {name!r}, expected one of {CANONICAL_NAMES}")


def discrete_topology(n: int) -> Topology:
    return Topology(n, tuple(1 << x for x in range(n)))


def indiscrete_topology(n: int) -> Topology:
    return Topology(n, (full_mask(n),) * n)


def hull(T: Topology, subset: Iterable[int], kind: str) -> frozenset[int]:
    """Interior or closure of a subset in the given topology."""
    mask = mask_of(subset)
    if mask & ~T.full:
        raise IndexOutOfRange(f"subset exceeds carrier of size {T.n}")
    if kind == "interior":
        return as_set(T.interior_mask(mask))
    if kind == "closure":
        return as_set(T.closure_mask(mask))
    raise UnknownTarget(f"unknown hull kind {kind!r}")


def subspace_topology(T: Topology, subset: Iterable[int]) -> Topology:
    """Relative topology on the subset, reindexed along sorted order."""
    mask = mask_of(subset)
    if mask & ~T.full:
        raise IndexOutOfRange(f"subset exceeds carrier of size {T.n}")
    points = elements(mask)
    index = {p: i for i, p in enumerate(points)}
    minimal = tuple(mask_of(index[q] for q in elements(T.minimal[p] & mask)) for p in points)
    return Topology(len(points), minimal)


def product_topology(T1: Topology, T2: Topology) -> Topology:
    """Product topology on the n*m carrier (row-major): the least open
    set around (x, y) is the rectangle U_x * U_y, built in O((n*m)^2).
    As for any topology, only its open family grows as 2^(n*m)."""
    n, m = T1.n, T2.n
    minimal = tuple(
        mask_of(a * m + b for a in elements(u) for b in elements(v))
        for u in T1.minimal
        for v in T2.minimal
    )
    return Topology(n * m, minimal)


@dataclass(frozen=True)
class SeparationReport:
    t1: bool
    hausdorff: bool
    normal: bool
    completely_normal: bool

    def as_dict(self) -> dict:
        return asdict(self)


def normality_failure(T: Topology) -> Optional[tuple[int, int]]:
    """Points a < b with disjoint closures whose least neighbourhoods
    meet, so that cl{a} and cl{b} have no disjoint open neighbourhoods;
    None when T is normal.

    If disjoint closed sets A and B cannot be separated, their least
    open neighbourhoods, the unions of the U_x over A and over B, meet:
    U_a meets U_b for some a in A and b in B, and cl{a}, cl{b} lie
    inside A and B, so they are disjoint.
    """
    closures = [T.closure_mask(1 << a) for a in range(T.n)]
    for a in range(T.n):
        for b in range(a + 1, T.n):
            if not closures[a] & closures[b] and T.minimal[a] & T.minimal[b]:
                return a, b
    return None


def complete_normality_failure(T: Topology) -> Optional[tuple[int, int]]:
    """Points a < b, neither in the other's least neighbourhood, whose
    least neighbourhoods meet, or None when T is completely normal,
    that is, hereditarily normal (Engelking, General Topology, 2.1.7).

    Two sets are separated iff a lies outside U_b and b outside U_a for
    every a in one and b in the other, and their least open
    neighbourhoods are the unions of those U_a and U_b.
    """
    minimal = T.minimal
    for a in range(T.n):
        for b in range(a + 1, T.n):
            separated = not minimal[a] >> b & 1 and not minimal[b] >> a & 1
            if separated and minimal[a] & minimal[b]:
                return a, b
    return None


def separation_report(T: Topology) -> SeparationReport:
    """T1, Hausdorff, normality, and normality of every subspace."""
    t1 = all(T.is_closed_mask(1 << x) for x in range(T.n))
    minimal = T.minimal
    hausdorff = all(
        not minimal[x] & minimal[y] for x in range(T.n) for y in range(x + 1, T.n)
    )
    normal = normality_failure(T) is None
    completely_normal = complete_normality_failure(T) is None
    if hausdorff and not t1:
        raise AssertionError("hausdorff space failed the t1 check")
    if completely_normal and not normal:
        raise AssertionError("hereditarily normal space failed the normality check")
    return SeparationReport(t1, hausdorff, normal, completely_normal)


def pospace_failure(P: FinitePoset, T: Topology) -> Optional[tuple[int, int]]:
    """A pair x <=/ y in the closure of the order relation in the product
    topology, or None when the relation is closed.

    The least open rectangle around (x, y) is the product of the least
    neighbourhoods, so closedness reduces to those rectangles avoiding
    the relation.
    """
    if P.n != T.n:
        raise CarrierMismatch(f"poset carrier {P.n} differs from topology carrier {T.n}")
    minimal = T.minimal
    for x in range(P.n):
        for y in range(P.n):
            if P.leq(x, y):
                continue
            u, v = minimal[x], minimal[y]
            if any(P.up[a] & v for a in elements(u)):
                return x, y
    return None


def _pairwise_op_table(P: FinitePoset, kind: str) -> Optional[list[list[int]]]:
    table = []
    for x in range(P.n):
        row = []
        for y in range(P.n):
            pair = (1 << x) | (1 << y)
            z = P.sup_mask(pair) if kind == "sup" else P.inf_mask(pair)
            if z is None:
                return None
            row.append(z)
        table.append(row)
    return table


def topological_lattice_failure(
    P: FinitePoset, T: Topology
) -> Optional[tuple[str, int, int, int, int]]:
    """(op, x, y, a, b) with op "meet" or "join", a in U_x, b in U_y and
    op(a, b) outside U_{op(x, y)}, or None when pairwise meet and join
    are continuous from the product topology.

    Both maps are continuous iff the image of the least open rectangle
    around (x, y) stays inside the least neighbourhood of the value.
    """
    if P.n != T.n:
        raise CarrierMismatch(f"poset carrier {P.n} differs from topology carrier {T.n}")
    meet = _pairwise_op_table(P, "inf")
    join = _pairwise_op_table(P, "sup")
    if meet is None or join is None:
        raise NotALattice("some pair lacks a meet or a join")
    minimal = T.minimal
    for op, table in (("meet", meet), ("join", join)):
        for x in range(P.n):
            for y in range(P.n):
                target = minimal[table[x][y]]
                for a in elements(minimal[x]):
                    for b in elements(minimal[y]):
                        if not target >> table[a][b] & 1:
                            return op, x, y, a, b
    return None


def order_convex_basis_failure(P: FinitePoset, T: Topology) -> Optional[tuple[int, int, int, int]]:
    """(x, a, c, b) with a, b in U_x, a <= c <= b and c outside U_x, or
    None when every point of every open set has an open order-convex
    neighbourhood inside it.

    Inside U_x the only open set around x is U_x itself, so a basis of
    order-convex opens exists iff every least neighbourhood is
    order-convex.
    """
    if P.n != T.n:
        raise CarrierMismatch(f"poset carrier {P.n} differs from topology carrier {T.n}")
    for x, u in enumerate(T.minimal):
        for a in elements(u):
            for b in elements(u):
                gap = P.up[a] & P.down[b] & ~u
                if gap:
                    return x, a, elements(gap)[0], b
    return None
