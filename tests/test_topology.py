import pytest
from hypothesis import given, settings, strategies as st

from chaintop import (
    CANONICAL_NAMES,
    CarrierMismatch,
    NotALattice,
    Topology,
    UnknownTarget,
    antichain_poset,
    build_poset,
    canonical_topology,
    chain_poset,
    discrete_topology,
    dm_closure,
    generate_topology,
    hull,
    indiscrete_topology,
    join_topologies,
    product_topology,
    separation_report,
    subspace_topology,
    topology_equal,
)
from chaintop import definitions
from chaintop.bitsets import as_set, elements, mask_of
from chaintop.suite import m3_poset, v_poset
from chaintop.topology import (
    order_convex_basis_failure,
    pospace_failure,
    topological_lattice_failure,
)


def opens_as_sets(T):
    # keeps the canonical (size, lexicographic) order of the dump format
    return [list(elements(m)) for m in T.sorted_opens]


def test_generate_topology_from_subbasis():
    T = generate_topology(3, [{1, 2}, {2}])
    assert opens_as_sets(T) == [[], [2], [1, 2], [0, 1, 2]]


def test_generate_trivial_cases():
    assert topology_equal(generate_topology(2, []), indiscrete_topology(2))
    assert topology_equal(generate_topology(2, [{0}, {1}]), discrete_topology(2))


def test_topology_invariants_validated():
    with pytest.raises(ValueError):
        Topology.from_opens(2, {0})  # missing the carrier
    with pytest.raises(ValueError):
        Topology.from_opens(2, {0b00, 0b01, 0b10})  # missing the union


def test_generated_topology_contains_subbasis_and_is_closed():
    T = generate_topology(4, [{0, 1}, {1, 2}, {3}])
    for member in ({0, 1}, {1, 2}, {3}):
        assert mask_of(member) in T.opens
    for a in T.opens:
        for b in T.opens:
            assert a | b in T.opens
            assert a & b in T.opens


def test_join():
    C3 = chain_poset(3)
    nu, om = canonical_topology(C3, "upper"), canonical_topology(C3, "lower")
    assert topology_equal(join_topologies(nu, om), discrete_topology(3))
    assert topology_equal(join_topologies(nu, indiscrete_topology(3)), nu)
    assert topology_equal(join_topologies(nu, nu), nu)
    with pytest.raises(CarrierMismatch):
        join_topologies(nu, indiscrete_topology(2))


@settings(max_examples=40)
@given(st.data())
def test_join_laws_on_random_topologies(data):
    n = data.draw(st.integers(1, 4))
    subsets = st.sets(st.integers(0, n - 1), max_size=n)
    make = lambda: generate_topology(n, data.draw(st.lists(subsets, max_size=3)))
    a, b, c = make(), make(), make()
    assert topology_equal(join_topologies(a, b), join_topologies(b, a))
    assert topology_equal(
        join_topologies(a, join_topologies(b, c)),
        join_topologies(join_topologies(a, b), c),
    )
    assert topology_equal(join_topologies(a, a), a)


def test_canonical_upper_on_three_chain():
    assert opens_as_sets(canonical_topology(chain_poset(3), "upper")) == [
        [],
        [2],
        [1, 2],
        [0, 1, 2],
    ]


def test_scott_equals_upper_on_chains():
    for n in range(1, 9):
        P = chain_poset(n)
        assert topology_equal(
            canonical_topology(P, "scott"), canonical_topology(P, "upper")
        )


def test_intrinsic_discrete_on_chains():
    for n in range(1, 7):
        P = chain_poset(n)
        assert topology_equal(canonical_topology(P, "intrinsic"), discrete_topology(n))


def test_upper_topology_on_finite_poset_is_all_upper_sets():
    # complements of principal ideals generate every upper set
    M3 = m3_poset()
    T = canonical_topology(M3, "upper")
    upper_sets = {
        mask
        for mask in range(1 << 5)
        if all(M3.up[x] & ~mask == 0 for x in range(5) if mask >> x & 1)
    }
    assert T.opens == frozenset(upper_sets)


def test_seven_way_equality_names_exist():
    P = chain_poset(4)
    intrinsic = canonical_topology(P, "intrinsic")
    for name in ("interval", "open_interval", "order", "bi_scott", "lawson", "dual_lawson"):
        assert topology_equal(canonical_topology(P, name), intrinsic)
    assert set(CANONICAL_NAMES) >= {"upper", "lower", "scott", "dual_scott", "intrinsic"}


def test_unknown_topology_name():
    with pytest.raises(UnknownTarget):
        canonical_topology(chain_poset(2), "euclidean")


def test_hull():
    nu = canonical_topology(chain_poset(3), "upper")
    assert hull(nu, {1, 2}, "interior") == {1, 2}
    assert hull(nu, {0, 1}, "interior") == frozenset()
    assert hull(nu, {2}, "closure") == {0, 1, 2}


def test_hull_laws():
    T = canonical_topology(m3_poset(), "upper")
    for mask in range(1 << 5):
        s = as_set(mask)
        interior = hull(T, s, "interior")
        assert interior <= s
        assert hull(T, interior, "interior") == interior
        closure = hull(T, s, "closure")
        assert s <= closure
        assert hull(T, closure, "closure") == closure


def test_scott_closure_examples():
    scott = canonical_topology(chain_poset(4), "scott")
    assert hull(scott, {1, 2}, "closure") == {0, 1, 2}
    assert hull(scott, {3}, "closure") == {0, 1, 2, 3}


def test_scott_closure_equals_dm_closure_on_nonempty():
    for n in range(1, 7):
        P = chain_poset(n)
        scott = canonical_topology(P, "scott")
        for mask in range(1, 1 << n):
            s = as_set(mask)
            assert hull(scott, s, "closure") == dm_closure(P, s)


def test_closures_differ_on_the_empty_set():
    # forced boundary case: the cut closure of nothing is the least
    # element, the topological closure stays empty
    C4 = chain_poset(4)
    assert hull(canonical_topology(C4, "scott"), set(), "closure") == frozenset()
    assert dm_closure(C4, set()) == {0}


def test_subspace():
    assert topology_equal(
        subspace_topology(discrete_topology(3), {0, 2}), discrete_topology(2)
    )
    nu = canonical_topology(chain_poset(3), "upper")
    sub = subspace_topology(nu, {0, 2})
    assert opens_as_sets(sub) == [[], [1], [0, 1]]


def test_product():
    assert topology_equal(
        product_topology(indiscrete_topology(2), indiscrete_topology(2)),
        indiscrete_topology(4),
    )
    C2 = chain_poset(2)
    nu = canonical_topology(C2, "upper")
    prod = product_topology(nu, nu)
    # oracle: generate directly from the rectangle subbasis
    rect_subbasis = [
        mask_of(x * 2 + y for x in as_set(u) for y in as_set(v))
        for u in nu.opens
        for v in nu.opens
    ]
    assert topology_equal(prod, generate_topology(4, rect_subbasis))
    assert len(prod.opens) == 6


def test_product_cap():
    # a 256-point product is built from its least neighbourhoods, the
    # rectangles up(x) * down(y); only its open family would be 2^256
    C16 = chain_poset(16)
    prod = product_topology(canonical_topology(C16, "upper"), canonical_topology(C16, "lower"))
    assert prod.n == 256
    assert prod.minimal == tuple(
        mask_of(16 * a + b for a in range(x, 16) for b in range(y + 1))
        for x in range(16)
        for y in range(16)
    )


def test_separation_reports():
    rep = separation_report(canonical_topology(chain_poset(5), "intrinsic"))
    assert rep.t1 and rep.hausdorff and rep.normal and rep.completely_normal
    rep = separation_report(canonical_topology(chain_poset(2), "upper"))
    assert not rep.t1 and not rep.hausdorff
    rep = separation_report(indiscrete_topology(2))
    assert rep.normal and not rep.t1


def test_separation_reports_at_the_poset_cap():
    # no cap: normality and complete normality are checked pointwise
    C16 = chain_poset(16)
    for T in (discrete_topology(16), canonical_topology(C16, "intrinsic")):
        assert separation_report(T).as_dict() == dict.fromkeys(
            ("t1", "hausdorff", "normal", "completely_normal"), True
        )
    rep = separation_report(canonical_topology(C16, "upper"))
    assert (rep.t1, rep.hausdorff, rep.normal, rep.completely_normal) == (False, False, True, True)


def test_v_poset_upper_topology_not_normal():
    rep = separation_report(canonical_topology(v_poset(), "upper"))
    assert not rep.normal and not rep.completely_normal


def test_is_pospace():
    C2 = chain_poset(2)
    assert pospace_failure(C2, canonical_topology(C2, "intrinsic")) is None
    # 1 <=/ 0, and every rectangle around (1, 0) meets the order at (1, 1)
    assert pospace_failure(C2, canonical_topology(C2, "upper")) == (1, 0)
    P1 = build_poset(1, [])
    assert pospace_failure(P1, indiscrete_topology(1)) is None
    with pytest.raises(CarrierMismatch):
        pospace_failure(C2, discrete_topology(3))


def test_is_pospace_matches_product_closure_oracle():
    # cross-check the least-rectangle method against the materialized
    # product topology on small carriers
    for P in (chain_poset(2), chain_poset(3), antichain_poset(2)):
        for name in ("upper", "intrinsic", "lower"):
            T = canonical_topology(P, name)
            prod = product_topology(T, T)
            graph = mask_of(
                x * P.n + y for x in range(P.n) for y in range(P.n) if P.leq(x, y)
            )
            assert (pospace_failure(P, T) is None) == prod.is_closed_mask(graph)


def test_is_topological_lattice():
    C4 = chain_poset(4)
    assert topological_lattice_failure(C4, canonical_topology(C4, "intrinsic")) is None
    assert topological_lattice_failure(C4, discrete_topology(4)) is None
    C2 = chain_poset(2)
    assert topological_lattice_failure(C2, indiscrete_topology(2)) is None
    assert topological_lattice_failure(C2, canonical_topology(C2, "upper")) is None
    with pytest.raises(NotALattice):
        topological_lattice_failure(v_poset(), discrete_topology(4))
    with pytest.raises(CarrierMismatch):
        topological_lattice_failure(C2, discrete_topology(3))


def test_meet_continuity_matches_preimage_oracle():
    # preimages of opens through the pairwise meet, checked in the
    # materialized product
    for name in ("upper", "intrinsic", "lower"):
        P = chain_poset(3)
        T = canonical_topology(P, name)
        prod = product_topology(T, T)
        meet_ok = True
        join_ok = True
        for w in T.opens:
            meet_pre = mask_of(
                x * 3 + y
                for x in range(3)
                for y in range(3)
                if w >> min(x, y) & 1
            )
            join_pre = mask_of(
                x * 3 + y
                for x in range(3)
                for y in range(3)
                if w >> max(x, y) & 1
            )
            meet_ok = meet_ok and prod.is_open_mask(meet_pre)
            join_ok = join_ok and prod.is_open_mask(join_pre)
        assert (topological_lattice_failure(P, T) is None) == (meet_ok and join_ok)


def test_order_convex_basis():
    for n in range(1, 7):
        P = chain_poset(n)
        assert order_convex_basis_failure(P, canonical_topology(P, "intrinsic")) is None
        assert order_convex_basis_failure(P, discrete_topology(n)) is None
    M3 = m3_poset()
    assert order_convex_basis_failure(M3, canonical_topology(M3, "bi_scott")) is None
    with pytest.raises(CarrierMismatch):
        order_convex_basis_failure(M3, discrete_topology(4))


def test_xu_condition():
    for n in range(1, 7):
        assert definitions.xu_condition(chain_poset(n))
    assert definitions.xu_condition(build_poset(1, []))
    for P in (m3_poset(), v_poset(), antichain_poset(3)):
        assert definitions.xu_condition(P)  # recorded: trivially true on finite carriers
