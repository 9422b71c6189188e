"""The benchmark's own order theory and topology, written apart from chaintop.

Every output check compares chaintop against these functions or against a
property the mathematics forces.  Subsets of {0..n-1} are int bitmasks and a
poset is its tuple ``up`` of principal filters.  Nothing here imports chaintop.
"""

from __future__ import annotations

# Topology names grouped by the least neighbourhood U_x they give on a
# finite poset, where directed sets have greatest elements: Scott is upper,
# and any join of an upper-type and a lower-type family is discrete.
UP_SETS = ("upper", "scott")
DOWN_SETS = ("lower", "dual_scott")
ALL_SETS = ("intrinsic", "interval", "lawson", "dual_lawson", "bi_scott")
RAY_GENERATED = ("order", "open_interval")


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def close_order(n: int, pairs) -> tuple[int, ...]:
    """Principal filters of the reflexive-transitive closure of ``pairs``."""
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = up[x]
            for y in bits(up[x]):
                acc |= up[y]
            if acc != up[x]:
                up[x] = acc
                changed = True
    return tuple(up)


def down_sets(up) -> tuple[int, ...]:
    n = len(up)
    down = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            down[y] |= 1 << x
    return tuple(down)


def restrict(up, points) -> tuple[int, ...]:
    """The induced order on ``points``, reindexed along their given order."""
    out = []
    for x in points:
        row = 0
        for j, y in enumerate(points):
            if up[x] >> y & 1:
                row |= 1 << j
        out.append(row)
    return tuple(out)


def least_neighbourhoods(up, name: str) -> tuple[int, ...]:
    """U_x for the named canonical topology of the poset ``up``."""
    n = len(up)
    full = (1 << n) - 1
    if name in UP_SETS:
        return tuple(up)
    if name in DOWN_SETS:
        return down_sets(up)
    if name in ALL_SETS:
        return tuple(1 << x for x in range(n))
    if name not in RAY_GENERATED:
        raise ValueError(f"unknown topology name {name!r}")
    down = down_sets(up)
    above = [up[x] & ~(1 << x) for x in range(n)]
    below = [down[x] & ~(1 << x) for x in range(n)]
    rays = above + below
    if name == "open_interval":
        rays += [a & b for a in above for b in below]
    minimal = []
    for x in range(n):
        acc = full
        for r in rays:
            if r >> x & 1:
                acc &= r
        minimal.append(acc)
    return tuple(minimal)


def unions(minimal) -> frozenset[int]:
    """All unions of least neighbourhoods: the open family they determine."""
    fam = [0] * (1 << len(minimal))
    for m in range(1, len(fam)):
        low = m & -m
        fam[m] = fam[m ^ low] | minimal[low.bit_length() - 1]
    return frozenset(fam)


def product_neighbourhoods(left, right) -> tuple[int, ...]:
    """U_(x,y) = U_x x U_y on the row-major carrier of size n*m."""
    m = len(right)
    out = []
    for ux in left:
        for uy in right:
            r = 0
            for x in bits(ux):
                for y in bits(uy):
                    r |= 1 << (x * m + y)
            out.append(r)
    return tuple(out)


def separation(minimal) -> dict:
    """T1, Hausdorff, normality and hereditary normality of a finite space.

    Closed sets are unions of point closures and least open hulls
    distribute over unions, so a subspace S is normal iff every two points
    of S with disjoint closures in S have disjoint hulls of those closures.
    """
    n = len(minimal)
    full = (1 << n) - 1
    point_closure = [0] * n
    for y in range(n):
        for x in bits(minimal[y]):
            point_closure[x] |= 1 << y
    discrete = all(minimal[x] == 1 << x for x in range(n))

    def normal(space: int) -> bool:
        pts = bits(space)
        hulls = []
        for a in pts:
            cl = point_closure[a] & space
            h = 0
            for x in bits(cl):
                h |= minimal[x]
            hulls.append((cl, h & space))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if not hulls[i][0] & hulls[j][0] and hulls[i][1] & hulls[j][1]:
                    return False
        return True

    return {
        "t1": discrete,
        "hausdorff": discrete,
        "normal": normal(full),
        "completely_normal": all(normal(s) for s in range(1 << n)),
    }


def suprema(up) -> list:
    """sup[m] for every subset m (None when absent); sup of empty is the bottom."""
    n = len(up)
    full = (1 << n) - 1
    ub = [full] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        ub[m] = ub[m ^ low] & up[low.bit_length() - 1]
    sup = []
    for m in range(1 << n):
        least = None
        for u in bits(ub[m]):
            if ub[m] & ~up[u] == 0:
                least = u
                break
        sup.append(least)
    return sup, ub


def classify(up) -> dict:
    """The chaintop classification flags by quantifying over all subsets.

    ``up_complete`` is left out: see the README on why it is not checked.
    """
    n = len(up)
    sup, ub = suprema(up)
    down = down_sets(up)
    inf = suprema(down)[0]
    is_chain = all(up[x] | down[x] == (1 << n) - 1 for x in range(n))
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return {
        "is_chain": is_chain,
        "is_lattice": all(
            sup[1 << a | 1 << b] is not None and inf[1 << a | 1 << b] is not None
            for a, b in pairs
        ),
        "order_dense": all(
            up[x] & down[y] & ~(1 << x | 1 << y)
            for x in range(n)
            for y in bits(up[x])
            if y != x
        ),
        "complete": all(s is not None for s in sup),
        "conditionally_complete": all(
            sup[m] is not None for m in range(1, 1 << n) if ub[m]
        ),
    }


def way_way_below(up) -> list[int]:
    """Row x holds every y that x is way-way-below, from one pass over
    subsets: a subset with supremum s that misses the filter of x refutes
    x way-way-below y for every y <= s."""
    n = len(up)
    down = down_sets(up)
    sup, _ = suprema(up)
    rows = [(1 << n) - 1] * n
    for m, s in enumerate(sup):
        if s is None:
            continue
        for x in range(n):
            if not m & up[x]:
                rows[x] &= ~down[s]
    return rows


def completely_distributive(up) -> bool:
    """Every x is the supremum of the elements way-way-below it."""
    n = len(up)
    rows = way_way_below(up)
    sup, _ = suprema(up)
    for x in range(n):
        approx = 0
        for y in range(n):
            if rows[y] >> x & 1:
                approx |= 1 << y
        if sup[approx] != x:
            return False
    return True


def maximal_chain_count(up) -> int:
    """Number of paths from a minimal to a maximal element in the cover graph."""
    n = len(up)
    strict = [up[x] & ~(1 << x) for x in range(n)]
    covers = []
    for x in range(n):
        row = strict[x]
        for y in bits(strict[x]):
            row &= ~strict[y]
        covers.append(bits(row))
    down = down_sets(up)
    order = sorted(range(n), key=lambda x: bin(up[x]).count("1"))
    paths = [0] * n
    for x in order:
        paths[x] = sum(paths[y] for y in covers[x]) if covers[x] else 1
    return sum(paths[x] for x in range(n) if down[x] == 1 << x)
