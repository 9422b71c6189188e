"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either computed by an in-test oracle
(exhaustive enumeration, window materialization) or pinned from the
named theorems; tolerances are exact equality throughout.
"""

import random
import pytest

from chaintop import (
    FiniteChain,
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    SuiteConfig,
    Topology,
    canonical_topology,
    chain_poset,
    chain_way_below,
    convex_components,
    corollary3_report,
    decompose_open_finite,
    dm_closure,
    has_order_convex_basis,
    hull,
    interval_member,
    is_completely_distributive,
    is_pospace,
    is_topological_lattice,
    make_chain,
    normalize,
    run_suite,
    scott_closure,
    separation_report,
    topology_equal,
    way_way_below_set,
)
from chaintop import definitions
from chaintop.bitsets import as_set, mask_of
from chaintop.intervals import _mergeable
from chaintop.suite import (
    FAULT_KERNELS,
    INFINITE_CHAIN_IDS,
    integer_window_components,
    m3_poset,
    n5_poset,
)

CATALOG = list(INFINITE_CHAIN_IDS)


@pytest.fixture(scope="module")
def default_report():
    return run_suite(SuiteConfig())


def _criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_lemma1(default_report):
    rec = default_report.record("lemma1")
    ok = rec.verdict == "pass"
    # oracle implications on every pair of every chain up to 7, plus the
    # finite-handle agreement, rerun here independently of the suite
    for n in range(1, 8):
        P = chain_poset(n)
        C = FiniteChain(n)
        for x in range(n):
            for y in range(n):
                wb = definitions.way_below(P, x, y)
                if P.lt(x, y):
                    ok = ok and wb
                if wb:
                    ok = ok and P.leq(x, y)
                ok = ok and chain_way_below(C, x, y) == wb
    _criterion(
        "criterion-1 lemma1 way-below implications",
        ok,
        f"suite instances={rec.instances}, oracle pairs rechecked to n=7",
    )


def test_criterion_2_theorem2_dichotomy(default_report):
    rec = default_report.record("thm2")
    ok = rec.verdict == "pass"
    for n in range(1, 7):
        ok = ok and is_completely_distributive(chain_poset(n))
    m3_ok = not is_completely_distributive(m3_poset())
    n5_ok = not is_completely_distributive(n5_poset())
    # exhibited witnesses, frozen from the exhaustive subset oracle
    m3_wit = way_way_below_set(m3_poset(), 4)
    m3_ok = m3_ok and m3_wit == {0} and m3_poset().sup_mask(mask_of(m3_wit)) != 4
    n5_wit = way_way_below_set(n5_poset(), 2)
    n5_ok = n5_ok and n5_wit == {0, 1} and n5_poset().sup_mask(mask_of(n5_wit)) != 2
    _criterion(
        "criterion-2 theorem2 dichotomy + complete distributivity",
        ok and m3_ok and n5_ok,
        f"suite instances={rec.instances}, M3 witness {sorted(m3_wit)}, N5 witness {sorted(n5_wit)}",
    )


def test_criterion_3_corollary3(default_report):
    rec = default_report.record("cor3")
    ok = rec.verdict == "pass"
    rat = corollary3_report(make_chain("rat01"), samples=100, seed=0)
    dy = corollary3_report(make_chain("dyadic01"), samples=100, seed=0)
    ic = corollary3_report(make_chain("int"), samples=100, seed=0)
    ok = ok and rat.cond1 and rat.cond2 and dy.cond1 and dy.cond2
    ok = ok and not ic.cond1 and not ic.cond2
    for n in range(1, 8):
        rep = corollary3_report(chain_poset(n))
        ok = ok and rep.cond1 == rep.cond2
    _criterion(
        "criterion-3 corollary3 condition equivalence",
        ok,
        "rat01/dyadic01 satisfy both, int neither",
    )


def test_criterion_4_prop5_topology_coincidences():
    ok = True
    for n in range(1, 9):
        P = chain_poset(n)
        upper = canonical_topology(P, "upper")
        lower = canonical_topology(P, "lower")
        scott = definitions.scott_topology(P)  # from the directed-sup definition
        dual_scott = definitions.scott_topology(P.dual)
        ok = ok and topology_equal(upper, scott)
        ok = ok and topology_equal(lower, dual_scott)
        intrinsic = canonical_topology(P, "intrinsic")
        for name in ("interval", "open_interval", "order", "bi_scott", "lawson", "dual_lawson"):
            ok = ok and topology_equal(intrinsic, canonical_topology(P, name))
    _criterion(
        "criterion-4 prop5 seven-way topology equality (n<=8)",
        ok,
        "finite coincidences are forced; this validates the constructors",
    )


def test_criterion_5_dm_closure_coincidence():
    ok = True
    for n in range(1, 7):
        P = chain_poset(n)
        for mask in range(1, 1 << n):
            s = as_set(mask)
            ok = ok and scott_closure(P, s) == dm_closure(P, s)
        # the empty set is the one boundary case where the two closures
        # are forced apart: the cut closure yields the least element
        ok = ok and scott_closure(P, set()) == frozenset()
        ok = ok and dm_closure(P, set()) == {0}
    _criterion(
        "criterion-5 scott closure equals cut closure (nonempty subsets, n<=6)",
        ok,
        "empty set asserted separately: cut closure {least} vs topological closure empty",
    )


def _all_topologies_on(n):
    """Exhaustively enumerate every topology on an n-point carrier by
    filtering all 2^(2^n) subset families for the closure axioms."""
    num_subsets = 1 << n
    union_table = [[a | b for b in range(num_subsets)] for a in range(num_subsets)]
    inter_table = [[a & b for b in range(num_subsets)] for a in range(num_subsets)]
    full_bit = 1 << (num_subsets - 1)
    for fam_bits in range(1 << num_subsets):
        if not fam_bits & 1 or not fam_bits & full_bit:
            continue
        members = [m for m in range(num_subsets) if fam_bits >> m & 1]
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not fam_bits >> union_table[a][b] & 1 or not fam_bits >> inter_table[a][b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield frozenset(members)


def test_criterion_6_separation_package():
    ok = True
    for n in range(1, 7):
        P = chain_poset(n)
        T = canonical_topology(P, "intrinsic")
        rep = separation_report(T)
        ok = ok and rep.t1 and rep.hausdorff and rep.normal and rep.completely_normal
        ok = ok and is_pospace(P, T)
        ok = ok and is_topological_lattice(P, T)
        ok = ok and has_order_convex_basis(P, T)
        ok = ok and definitions.xu_condition(P)
    C2 = chain_poset(2)
    ok = ok and not is_pospace(C2, canonical_topology(C2, "upper"))
    ok = ok and not separation_report(canonical_topology(C2, "upper")).t1
    # exhaustive search over all topologies on 4 points for a non-normal one
    non_normal = None
    count = 0
    for opens in _all_topologies_on(4):
        count += 1
        rep = separation_report(Topology.from_opens(4, opens))
        if not rep.normal and non_normal is None:
            non_normal = opens
    ok = ok and non_normal is not None
    ok = ok and count == 355  # known number of topologies on 4 labelled points
    ok = ok and not separation_report(Topology.from_opens(4, non_normal)).completely_normal
    _criterion(
        "criterion-6 prop4+thm7+thm8(1)+xu on intrinsic chains",
        ok,
        f"searched {count} topologies on 4 points, found non-normal with "
        f"{len(non_normal)} opens",
    )


def test_criterion_7_separating_functions(default_report):
    rec = default_report.record("thm8-2")
    _criterion(
        "criterion-7 thm8(2) separating-function matrix",
        rec.verdict == "pass" and rec.instances == 13,
        f"12 construction cases + planted-fault rejection, {rec.instances} instances",
    )


def _random_interval_set(rng, chain, pool):
    out = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(pool), rng.choice(pool)
        if chain.compare(a, b) > 0:
            a, b = b, a
        kind = rng.random()
        if kind < 0.08 and chain.id in ("int", "split"):
            out.append(Interval(NEG_INF, True, b, rng.random() < 0.5))
        elif kind < 0.16 and chain.id in ("int", "split"):
            out.append(Interval(a, rng.random() < 0.5, POS_INF, True))
        else:
            out.append(Interval(a, rng.random() < 0.5, b, rng.random() < 0.5))
    return IntervalSet(chain, tuple(out))


def test_criterion_8_convex_decomposition():
    ok = True
    checked = 0
    for cid in CATALOG:
        chain = make_chain(cid)
        rng = random.Random(f"acceptance-thm9:{cid}")
        pool = chain.sample(0, 12)
        for _ in range(500):
            IS = _random_interval_set(rng, chain, pool)
            comps = convex_components(IS)
            norm = normalize(IS)
            checked += 1
            for left, right in zip(norm.intervals, norm.intervals[1:]):
                ok = ok and not _mergeable(chain, left, right)
            probes = list(pool) + [
                e
                for iv in IS.intervals
                for e in (iv.lower, iv.upper)
                if e is not NEG_INF and e is not POS_INF
            ]
            for p in probes:
                ok = ok and interval_member(IS, p) == interval_member(norm, p)
            ok = ok and len(comps) == len(norm.intervals)
            if cid == "int" and all(iv.bounded() for iv in IS.intervals):
                ok = ok and norm.intervals == integer_window_components(IS)
    for n in range(1, 7):
        P = chain_poset(n)
        T = canonical_topology(P, "intrinsic")
        for mask in sorted(T.opens):
            subset = as_set(mask)
            pieces = decompose_open_finite(P, T, subset)
            union = frozenset().union(*pieces) if pieces else frozenset()
            ok = ok and union == subset
            ok = ok and all(
                not (pieces[i] & pieces[j])
                for i in range(len(pieces))
                for j in range(i + 1, len(pieces))
            )
    _criterion(
        "criterion-8 thm9 maximal convex decomposition",
        ok,
        f"{checked} random interval sets across {len(CATALOG)} chains + all intrinsic opens to n=6",
    )


def test_criterion_9_hypercontinuity():
    ok = True
    for n in range(1, 8):
        P = chain_poset(n)
        ok = ok and definitions.is_hypercontinuous(P)
        # spot-check the underlying relation through upper-topology interiors
        T = canonical_topology(P, "upper")
        for y in range(n):
            interior = hull(T, as_set(P.up[y]), "interior")
            for x in range(n):
                ok = ok and definitions.hyper_prec(P, y, x) == (x in interior)
    _criterion("criterion-9 cor6 hypercontinuity of chains (n<=7)", ok)


# the claims each injected fault breaks, and no others
KILL_SETS = {
    "scott": ["prop5", "remark-dm"],
    "way-below": ["lemma1", "thm2"],
    "normalize": ["thm9"],
    "ramp": ["thm8-2"],
    "drop-component": ["thm9"],
}


def test_criterion_10_mutation_sensitivity(default_report):
    ok = default_report.passed() and set(FAULT_KERNELS) == set(KILL_SETS)
    detail = []
    for fault in FAULT_KERNELS:
        rep = run_suite(SuiteConfig(faults=(fault,)))
        failing = sorted(r.claim for r in rep.records if r.verdict == "fail")
        ok = ok and failing == KILL_SETS.get(fault)
        detail.append(f"{fault}->{','.join(failing) or 'UNDETECTED'}")
    _criterion("criterion-10 mutation self-test", ok, "; ".join(detail))
