"""The order-theoretic definitions that have a closed form on finite
posets, each computed by brute force exactly as it is defined.

On a finite poset every directed set has a greatest element, which is
its supremum (Gierz et al., Continuous Lattices and Domains, CUP 2003).
So way-below is the order itself, every poset is continuous, and the
Scott topology is the Alexandrov topology of upper sets.  The upper and
lower topologies have the principal filters and ideals as least
neighbourhoods, so hyper-way-below is the order, every poset is
hypercontinuous and Xu's condition holds; and a poset is conditionally
complete iff every bounded pair has a supremum.  The library computes
those closed forms; the functions here enumerate the definitions
instead.  They are the oracles that the differential tests compare the
closed forms with, and the suite calls them for the claims that are
about these coincidences, so that no claim compares a closed form with
itself.  Each costs up to 2^n work, bounded by `poset.POSET_CAP`.
"""

from __future__ import annotations

from .bitsets import as_set, elements
from .poset import FinitePoset
from .topology import Topology, canonical_topology


def _is_upper_mask(P: FinitePoset, mask: int) -> bool:
    for x in elements(mask):
        if P.up[x] & ~mask:
            return False
    return True


def way_below(P: FinitePoset, x: int, y: int) -> bool:
    """Every directed subset with a supremum above y contains an
    element above x."""
    P.check_index(x)
    P.check_index(y)
    for mask, s in P.directed_with_sup:
        if P.leq(y, s) and not mask & P.up[x]:
            return False
    return True


def is_continuous_poset(P: FinitePoset) -> bool:
    """Every waydown set is directed with supremum the point itself."""
    for x in range(P.n):
        waydown = 0
        for y in range(P.n):
            if way_below(P, y, x):
                waydown |= 1 << y
        if not P.is_directed_mask(waydown) or P.sup_mask(waydown) != x:
            return False
    return True


def way_way_below(P: FinitePoset, x: int, y: int) -> bool:
    """Every subset with a supremum above y, the empty set included (its
    supremum is the least element), contains an element above x."""
    P.check_index(x)
    P.check_index(y)
    for mask in range(1 << P.n):
        s = P.sup_mask(mask)
        if s is not None and P.leq(y, s) and not mask & P.up[x]:
            return False
    return True


def maximal_chains(P: FinitePoset) -> list[frozenset[int]]:
    """All inclusion-maximal totally ordered subsets, from a scan of
    every subset, sorted by their sorted elements."""
    chains = [m for m in range(1, 1 << P.n) if P.is_chain_mask(m)]
    out = []
    for m in chains:
        if not any(c != m and c & m == m for c in chains):
            out.append(as_set(m))
    out.sort(key=sorted)
    return out


def scott_topology(P: FinitePoset) -> Topology:
    """Scott opens: upper sets that meet every directed set whose
    supremum they contain.  Nothing is assumed about the result
    coinciding with any other family; `Topology.from_opens` checks that
    it is a topology."""
    dirs = P.directed_with_sup
    opens = []
    for mask in range(1 << P.n):
        if not _is_upper_mask(P, mask):
            continue
        if all(s_mask & mask for s_mask, s in dirs if mask >> s & 1):
            opens.append(mask)
    return Topology.from_opens(P.n, opens)


def hyper_prec(P: FinitePoset, y: int, x: int) -> bool:
    """x lies in the upper-topology interior of the principal filter of y.

    On a finite poset U_z = up-set of z in the upper topology, so the
    filter is open and this is y <= x."""
    P.check_index(x)
    P.check_index(y)
    T = canonical_topology(P, "upper")
    return bool(T.interior_mask(P.up[y]) >> x & 1)


def is_hypercontinuous(P: FinitePoset) -> bool:
    """Every point is the directed supremum of its hyper-way-below set.

    True on every finite poset: that set is the down-set of x."""
    T = canonical_topology(P, "upper")
    for x in range(P.n):
        approx = 0
        for y in range(P.n):
            if T.interior_mask(P.up[y]) >> x & 1:
                approx |= 1 << y
        if not P.is_directed_mask(approx) or P.sup_mask(approx) != x:
            return False
    return True


def xu_condition(P: FinitePoset) -> bool:
    """Every upper set closed in the intrinsic topology is closed in the
    lower topology, checked on every subset.

    True on every finite poset: the lower topology has U_x = down-set of
    x, so every upper set is closed in it."""
    intrinsic = canonical_topology(P, "intrinsic")
    lower = canonical_topology(P, "lower")
    for mask in range(1 << P.n):
        if not _is_upper_mask(P, mask):
            continue
        if intrinsic.is_closed_mask(mask) and not lower.is_closed_mask(mask):
            return False
    return True


def conditional_completeness_failure(P: FinitePoset) -> int | None:
    """The first nonempty subset (as a mask) that has an upper bound but
    no supremum, or None when P is conditionally complete."""
    for mask in range(1, 1 << P.n):
        ubs = P.upper_bounds_mask(mask)
        if ubs and P.least_of(ubs) is None:
            return mask
    return None
