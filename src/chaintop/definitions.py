"""The order-theoretic definitions that have a closed form on finite
posets, each computed by brute force exactly as it is defined.

On a finite poset every directed set has a greatest element, which is
its supremum (Gierz et al., Continuous Lattices and Domains, CUP 2003).
So way-below is the order itself, every poset is continuous, and the
Scott topology is the Alexandrov topology of upper sets.  The library
computes those closed forms; the functions here enumerate the
definitions instead.  They are the oracles that the differential tests
compare the closed forms with, and the suite calls them for the claims
that are about these coincidences, so that no claim compares a closed
form with itself.  Each costs up to 2^n work and stays capped.
"""

from __future__ import annotations

from .bitsets import as_set
from .poset import FinitePoset
from .relations import EXHAUSTIVE_CAP, _check_cap
from .topology import Topology, _is_upper_mask


def way_below(P: FinitePoset, x: int, y: int, cap: int = EXHAUSTIVE_CAP) -> bool:
    """Every directed subset with a supremum above y contains an
    element above x."""
    _check_cap(P, cap)
    P.check_index(x)
    P.check_index(y)
    for mask, s in P.directed_with_sup:
        if P.leq(y, s) and not mask & P.up[x]:
            return False
    return True


def is_continuous_poset(P: FinitePoset, cap: int = EXHAUSTIVE_CAP) -> bool:
    """Every waydown set is directed with supremum the point itself."""
    _check_cap(P, cap)
    for x in range(P.n):
        waydown = 0
        for y in range(P.n):
            if way_below(P, y, x, cap):
                waydown |= 1 << y
        if not P.is_directed_mask(waydown) or P.sup_mask(waydown) != x:
            return False
    return True


def way_way_below(P: FinitePoset, x: int, y: int, cap: int = EXHAUSTIVE_CAP) -> bool:
    """Every subset with a supremum above y, the empty set included (its
    supremum is the least element), contains an element above x."""
    _check_cap(P, cap)
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
