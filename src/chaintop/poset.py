"""Finite posets with exact order queries.

Elements are dense indices 0..n-1; the order relation is stored as one
up-set bitmask per element, so every quantifier in this module is a loop
over masks.  All values are immutable and every operation is pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Optional

from .bitsets import as_set, elements, full_mask, mask_of
from .errors import AxiomViolation, CapExceeded, IndexOutOfRange, UnknownTarget

POSET_CAP = 16  # no larger poset is built: subset kernels cost 2^n

_DOWN_DIRS = {"down", "strict-down"}
_STRICT_DIRS = {"strict-down", "strict-up"}


@dataclass(frozen=True)
class FinitePoset:
    """A reflexive, antisymmetric, transitive relation on {0..n-1}.

    ``up[x]`` is the bitmask of ``{y : x <= y}``.  Every instance checks
    its shape and the three axioms when it is built, so a bad relation
    ends as a ``ChainTopError`` here and never later in a kernel.
    :func:`build_poset` builds one from related pairs.  No instance has
    more than ``POSET_CAP`` elements.
    """

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        n, up = self.n, self.up
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise IndexOutOfRange(f"bad carrier size {n!r}")
        if n > POSET_CAP:
            raise CapExceeded(n, POSET_CAP)
        if not isinstance(up, tuple) or len(up) != n:
            raise IndexOutOfRange(f"a poset on {n} elements needs a tuple of {n} up-set rows")
        for x, row in enumerate(up):
            # row >> n is 0 exactly for 0 <= row < 2^n
            if not isinstance(row, int) or isinstance(row, bool) or row >> n:
                raise IndexOutOfRange(f"up-set row {row!r} of {x} is not a subset of 0..{n - 1}")
            if not row >> x & 1:
                raise AxiomViolation("reflexive", (x, x))
        _check_antisymmetry(up, n)
        _check_transitivity(up)

    @cached_property
    def down(self) -> tuple[int, ...]:
        cols = [0] * self.n
        for x in range(self.n):
            row = self.up[x]
            for y in elements(row):
                cols[y] |= 1 << x
        return tuple(cols)

    @cached_property
    def full(self) -> int:
        return full_mask(self.n)

    def check_index(self, x: int) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise IndexOutOfRange(f"element {x!r} not in 0..{self.n - 1}")

    def check_mask(self, mask: int) -> None:
        if mask & ~self.full:
            raise IndexOutOfRange(f"subset {mask:#x} exceeds carrier of size {self.n}")

    def as_mask(self, subset: Iterable[int]) -> int:
        m = mask_of(subset)
        self.check_mask(m)
        return m

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def strict_up(self, x: int) -> int:
        return self.up[x] & ~(1 << x)

    def strict_down(self, x: int) -> int:
        return self.down[x] & ~(1 << x)

    def upper_bounds_mask(self, mask: int) -> int:
        ubs = self.full
        for s in elements(mask):
            ubs &= self.up[s]
        return ubs

    def lower_bounds_mask(self, mask: int) -> int:
        lbs = self.full
        for s in elements(mask):
            lbs &= self.down[s]
        return lbs

    def least_of(self, mask: int) -> Optional[int]:
        for u in elements(mask):
            if self.up[u] & mask == mask:
                return u
        return None

    def greatest_of(self, mask: int) -> Optional[int]:
        for u in elements(mask):
            if self.down[u] & mask == mask:
                return u
        return None

    def sup_mask(self, mask: int) -> Optional[int]:
        return self.least_of(self.upper_bounds_mask(mask))

    def inf_mask(self, mask: int) -> Optional[int]:
        return self.greatest_of(self.lower_bounds_mask(mask))

    def least(self) -> Optional[int]:
        return self.least_of(self.full) if self.n else None

    def greatest(self) -> Optional[int]:
        return self.greatest_of(self.full) if self.n else None

    def is_directed_mask(self, mask: int) -> bool:
        if not mask:
            return False
        for a in elements(mask):
            for b in elements(mask):
                if b > a:
                    break
                if not self.up[a] & self.up[b] & mask:
                    return False
        return True

    def is_chain_mask(self, mask: int) -> bool:
        els = elements(mask)
        for i, a in enumerate(els):
            for b in els[i + 1 :]:
                if not (self.leq(a, b) or self.leq(b, a)):
                    return False
        return True

    @cached_property
    def is_chain(self) -> bool:
        return self.is_chain_mask(self.full)

    @cached_property
    def dual(self) -> "FinitePoset":
        return FinitePoset(self.n, self.down)

    @cached_property
    def directed_with_sup(self) -> tuple[tuple[int, int], ...]:
        """All nonempty directed subsets that have a supremum, as (mask, sup)."""
        out = []
        for mask in range(1, 1 << self.n):
            if self.is_directed_mask(mask):
                s = self.sup_mask(mask)
                if s is not None:
                    out.append((mask, s))
        return tuple(out)


def _transitive_close(rows: list[int], n: int) -> None:
    for k in range(n):
        bit = 1 << k
        for x in range(n):
            if rows[x] & bit:
                rows[x] |= rows[k]


def _check_antisymmetry(rows, n: int) -> None:
    for x in range(n):
        for y in range(x + 1, n):
            if rows[x] >> y & 1 and rows[y] >> x & 1:
                raise AxiomViolation("antisymmetric", (x, y))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _check_transitivity(rows) -> None:
    for x, row in enumerate(rows):
        # the set bits of the row, lowest first, so the first failure is
        # the smallest witness
        rest = row
        while rest:
            missing = rows[_lowest(rest)] & ~row
            if missing:
                raise AxiomViolation("transitive", (x, _lowest(missing)))
            rest &= rest - 1


def build_poset(
    n: int,
    pairs: Iterable[tuple[int, int]],
    mode: str = "hasse-covers",
) -> FinitePoset:
    """Build a validated poset from related pairs.

    ``hasse-covers`` reads the pairs as cover relations and takes the
    reflexive-transitive closure; ``full-relation`` reads them as the
    whole relation (diagonal implied) and validates transitivity as
    given.  Antisymmetry failures report the lexicographically smallest
    witness pair.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative carrier size {n}")
    if n > POSET_CAP:
        raise CapExceeded(n, POSET_CAP)
    rows = [1 << x for x in range(n)]
    for x, y in pairs:
        for v in (x, y):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise IndexOutOfRange(f"pair ({x}, {y}) not within 0..{n - 1}")
        rows[x] |= 1 << y
    if mode in ("hasse-covers", "hasse"):
        _transitive_close(rows, n)
    elif mode not in ("full-relation", "full"):
        raise UnknownTarget(f"unknown build mode {mode!r}")
    # the poset checks antisymmetry and transitivity itself
    return FinitePoset(n, tuple(rows))


def chain_poset(n: int) -> FinitePoset:
    """The n-element chain 0 < 1 < ... < n-1."""
    return build_poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain_poset(n: int) -> FinitePoset:
    return build_poset(n, [])


def cone(P: FinitePoset, subset: Iterable[int], direction: str) -> frozenset[int]:
    """Down/up cone of a subset; strict variants drop equality witnesses."""
    if direction not in ("down", "up", "strict-down", "strict-up"):
        raise UnknownTarget(f"unknown cone direction {direction!r}")
    mask = P.as_mask(subset)
    rows = P.down if direction in _DOWN_DIRS else P.up
    out = 0
    for s in elements(mask):
        row = rows[s]
        if direction in _STRICT_DIRS:
            row &= ~(1 << s)
        out |= row
    return as_set(out)


def bounds(P: FinitePoset, subset: Iterable[int], side: str) -> frozenset[int]:
    """All upper (or lower) bounds of a subset; the empty set bounds everything."""
    mask = P.as_mask(subset)
    if side == "upper":
        return as_set(P.upper_bounds_mask(mask))
    if side == "lower":
        return as_set(P.lower_bounds_mask(mask))
    raise UnknownTarget(f"unknown bounds side {side!r}")


def extremum(P: FinitePoset, subset: Iterable[int], kind: str) -> Optional[int]:
    """Supremum or infimum of a subset, or None when absent.

    sup(empty) is the least element of the poset when one exists, and
    dually for inf.
    """
    mask = P.as_mask(subset)
    if kind == "sup":
        return P.sup_mask(mask)
    if kind == "inf":
        return P.inf_mask(mask)
    raise UnknownTarget(f"unknown extremum kind {kind!r}")


def is_directed(P: FinitePoset, subset: Iterable[int]) -> bool:
    """True iff the subset is nonempty and pairs have upper bounds inside it."""
    return P.is_directed_mask(P.as_mask(subset))


@dataclass(frozen=True)
class PosetClassification:
    """Completeness and density flags.  ``up_complete`` is directed
    completeness, which every finite poset has: a finite directed set
    has a greatest element, and that is its supremum."""

    is_chain: bool
    is_lattice: bool
    order_dense: bool
    complete: bool
    conditionally_complete: bool
    up_complete: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _pair_scan(P: FinitePoset) -> tuple[bool, Optional[int]]:
    """Whether every pair has a supremum and an infimum, and the first
    pair (as a mask) that has an upper bound but no supremum, from one
    pass over the pairs a < b in increasing mask order."""
    is_lattice = True
    failure = None
    for b in range(P.n):
        for a in range(b):
            ubs = P.up[a] & P.up[b]
            if P.least_of(ubs) is None:
                is_lattice = False
                if ubs and failure is None:
                    failure = 1 << a | 1 << b
            elif is_lattice and P.greatest_of(P.down[a] & P.down[b]) is None:
                is_lattice = False
    return is_lattice, failure


def conditional_completeness_failure(P: FinitePoset) -> Optional[int]:
    """The first pair (as a mask) that has an upper bound but no
    supremum, or None when P is conditionally complete.

    Pairs suffice on a finite poset.  If every bounded pair has a
    supremum, so has every nonempty bounded subset S + {x}: by induction
    S has a supremum s, the upper bounds of {s, x} are those of S + {x},
    so sup {s, x} is its supremum.
    `definitions.conditional_completeness_failure` scans every subset.
    """
    return _pair_scan(P)[1]


def classify(P: FinitePoset) -> PosetClassification:
    """Completeness and density flags.  Complete means conditionally
    complete with a least and a greatest element: then every subset is
    bounded, and the least element is the supremum of the empty set."""
    is_lattice, cc_failure = _pair_scan(P)
    order_dense = all(
        P.strict_up(x) & P.strict_down(y)
        for x in range(P.n)
        for y in range(P.n)
        if P.lt(x, y)
    )
    conditionally_complete = cc_failure is None
    return PosetClassification(
        is_chain=P.is_chain,
        is_lattice=is_lattice,
        order_dense=order_dense,
        complete=conditionally_complete and P.least() is not None and P.greatest() is not None,
        conditionally_complete=conditionally_complete,
        up_complete=True,
    )


def maximal_chains(P: FinitePoset) -> list[frozenset[int]]:
    """All inclusion-maximal totally ordered subsets, sorted by their
    sorted elements.

    A maximal chain of a finite poset starts at a minimal element, steps
    along cover relations (nothing fits between two neighbours) and ends
    at a maximal element, and every such path is a maximal chain; a
    depth-first search lists the paths.
    """
    covers = []
    for x in range(P.n):
        above = P.strict_up(x)
        for z in elements(above):
            above &= ~P.strict_up(z)
        covers.append(above)
    out = []
    stack = [(x, 1 << x) for x in range(P.n) if P.down[x] == 1 << x]
    while stack:
        x, chain = stack.pop()
        if covers[x]:
            stack.extend((y, chain | 1 << y) for y in elements(covers[x]))
        else:
            out.append(as_set(chain))
    out.sort(key=sorted)
    return out


def dm_closure(P: FinitePoset, subset: Iterable[int]) -> frozenset[int]:
    """Lower bounds of the upper bounds of the subset (a cut closure)."""
    mask = P.as_mask(subset)
    return as_set(P.lower_bounds_mask(P.upper_bounds_mask(mask)))


@dataclass(frozen=True)
class PosetMap:
    """A map between posets given by its value on every source element.

    Monotonicity is not required; cut stability is a separate predicate.
    """

    source: FinitePoset
    target: FinitePoset
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source.n:
            raise IndexOutOfRange(
                f"image has {len(self.image)} entries for a {self.source.n}-element source"
            )
        for v in self.image:
            self.target.check_index(v)

    def image_mask(self, mask: int) -> int:
        out = 0
        for x in elements(mask):
            out |= 1 << self.image[x]
        return out


def is_cut_stable(f: PosetMap) -> bool:
    """True iff f commutes with both bound polarities on every subset."""
    src, tgt = f.source, f.target
    for mask in range(1 << src.n):
        fa = f.image_mask(mask)
        lhs_up = tgt.lower_bounds_mask(f.image_mask(src.upper_bounds_mask(mask)))
        rhs_up = tgt.lower_bounds_mask(tgt.upper_bounds_mask(fa))
        if lhs_up != rhs_up:
            return False
        lhs_dn = tgt.upper_bounds_mask(f.image_mask(src.lower_bounds_mask(mask)))
        rhs_dn = tgt.upper_bounds_mask(tgt.lower_bounds_mask(fa))
        if lhs_dn != rhs_dn:
            return False
    return True
