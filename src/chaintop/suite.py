"""Executable claim suite binding the library's theorems to checks, plus
seeded counterexample search over random posets.

Every claim runs deterministically from the config seed and reports the
instances it exercised together with any failure witnesses.  The claims
about coincidences that are forced on finite posets (prop5, remark-dm,
lemma1, thm2, cor3, cor6, xu) compute the Scott topology, way-below,
hypercontinuity and Xu's condition from their definitions in
`definitions`, not from the library's closed forms, so that they do not
compare a closed form with itself.  Fault injection
corrupts one kernel at a time (scott definition, way-below definition,
interval normalization, a dropped canonical component, the separating
ramp) so the suite can prove its own sensitivity.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable

from . import definitions
from .bitsets import as_set
from .chains import ChainHandle, FiniteChain, OMEGA, make_chain
from .errors import CapExceeded, ChainTopError, CoverageGap, UnknownTarget
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    _canonical_interval,
    _key_member,
    _mergeable,
    _start_key,
    below,
    closed_interval,
    decompose_open_finite,
    interval_member,
    normalize,
)
from .poset import (
    POSET_CAP,
    FinitePoset,
    build_poset,
    chain_poset,
    conditional_completeness_failure,
    dm_closure,
)
from .relations import (
    _finite_chain_report,
    chain_way_below,
    distributivity_failure,
    is_completely_distributive,
    corollary3_report,
    way_way_below_set,
)
from .separating import SeparatingFunction, separate_from_lower, verify_separating
from .topology import (
    Topology,
    canonical_topology,
    has_order_convex_basis,
    hull,
    is_pospace,
    is_topological_lattice,
    join_topologies,
    normality_failure,
    pospace_failure,
    separation_report,
    topology_equal,
)

FAULT_KERNELS = ("scott", "way-below", "normalize", "ramp", "drop-component")

SEARCH_TARGETS = (
    "completely_distributive_fails",
    "pospace_fails_for_upper",
    "conditional_completeness_fails",
    "normality_fails_for_topology",
)

INFINITE_CHAIN_IDS = ("int", "dyadic01", "rat01", "omega+1", "split")


def m3_poset() -> FinitePoset:
    """Diamond: bottom, three incomparable atoms, top."""
    return build_poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5_poset() -> FinitePoset:
    """Pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4."""
    return build_poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def v_poset() -> FinitePoset:
    """Two minimal points under two incomparable upper bounds."""
    return build_poset(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    instances: int
    verdict: str
    witnesses: tuple[str, ...] = ()
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    records: tuple[ClaimRecord, ...]
    config: SuiteConfig

    def record(self, claim: str) -> ClaimRecord:
        for r in self.records:
            if r.claim == claim:
                return r
        raise KeyError(claim)

    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.records)

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "claims": [r.as_dict() for r in self.records],
            "passed": self.passed(),
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


class _Check:
    """Collects instances and failure witnesses for one claim."""

    def __init__(self, claim: str):
        self.claim = claim
        self.instances = 0
        self.witnesses: list[str] = []
        self.note = ""

    def run(self, ok: bool, describe: Callable[[], str]) -> None:
        """Count one instance; `describe` formats its witness and is called
        only when the instance fails and a witness slot is left."""
        self.instances += 1
        if not ok and len(self.witnesses) < 20:
            self.witnesses.append(describe())

    def record(self) -> ClaimRecord:
        verdict = "pass" if not self.witnesses else "fail"
        return ClaimRecord(
            self.claim, self.instances, verdict, tuple(self.witnesses), self.note
        )


def _rng(cfg: SuiteConfig, label: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{label}")


# fault-injectable kernel wrappers

def _scott(P: FinitePoset, faults) -> Topology:
    if "scott" in faults:
        return definitions.scott_topology(P.dual)
    return definitions.scott_topology(P)


def _way_below(P: FinitePoset, x: int, y: int, faults) -> bool:
    result = definitions.way_below(P, x, y)
    if "way-below" in faults and x == y:
        return not result
    return result


def _normalize(IS: IntervalSet, faults) -> IntervalSet:
    if "normalize" in faults:
        cleaned = []
        for iv in IS.intervals:
            c = _canonical_interval(IS.chain, iv)
            if c is not None:
                cleaned.append(c)
        cleaned.sort(key=_start_key(IS.chain))
        return IntervalSet(IS.chain, tuple(cleaned))
    norm = normalize(IS)
    if "drop-component" in faults:
        i = len(norm.intervals) // 2
        return IntervalSet(IS.chain, norm.intervals[:i] + norm.intervals[i + 1:])
    return norm


def _separate(C: ChainHandle, A: IntervalSet, x, faults) -> SeparatingFunction:
    f = separate_from_lower(C, A, x)
    if "ramp" in faults and A.intervals:
        return replace(f, complemented=True)
    return f


def _sizes(cfg: SuiteConfig):
    return range(cfg.min_n, cfg.max_n + 1)


def _certified_compact(check: _Check, C: ChainHandle, x, probes) -> bool:
    """Expected compactness of x from local structure, with the
    structure's claims validated against gap queries; `probes` are
    (element, key) pairs of validated elements."""
    ls = C.local_structure(x)
    kx = C.key(x)
    if ls.has_immediate_pred:
        check.run(
            C.between(ls.pred, x) is None,
            lambda: f"{C.id}: declared predecessor of {C.format(x)} is not adjacent",
        )
    elif not (C.has_least and kx == C.key(C.least())):
        for u, ku in probes:
            if ku < kx:
                check.run(
                    C._between(u, x) is not None,
                    lambda: f"{C.id}: {C.format(u)} is an unreported predecessor of {C.format(x)}",
                )
    return ls.is_compact


def _claim_lemma1(cfg: SuiteConfig) -> _Check:
    check = _Check("lemma1")
    for n in _sizes(cfg):
        P = chain_poset(n)
        C = FiniteChain(n)
        for x in range(n):
            for y in range(n):
                wb = _way_below(P, x, y, cfg.faults)
                if P.lt(x, y):
                    check.run(wb, lambda: f"C{n}: {x}<{y} but not way-below")
                if wb:
                    check.run(P.leq(x, y), lambda: f"C{n}: {x} way-below {y} but not below")
                check.run(
                    chain_way_below(C, x, y) == wb,
                    lambda: f"C{n}: handle and oracle disagree at ({x},{y})",
                )
    for cid in cfg.chains:
        C = make_chain(cid)
        rng = _rng(cfg, f"lemma1:{cid}")
        # validated and keyed once; pairs are ordered by key
        pts = C.sample(cfg.seed, max(8, cfg.sample_pairs // 8))
        pts = [(p, C.key(C.validate(p))) for p in pts]
        for _ in range(cfg.sample_pairs):
            (x, kx), (y, ky) = rng.choice(pts), rng.choice(pts)
            wb = chain_way_below(C, x, y)
            if kx < ky:
                check.run(wb, lambda: f"{cid}: {C.format(x)}<{C.format(y)} not way-below")
            elif kx > ky:
                check.run(not wb, lambda: f"{cid}: descending pair {C.format(x)},{C.format(y)}")
            else:
                expected = _certified_compact(check, C, x, pts)
                check.run(
                    wb == expected,
                    lambda: f"{cid}: diagonal at {C.format(x)} disagrees with local structure",
                )
    return check


def _claim_thm2(cfg: SuiteConfig) -> _Check:
    check = _Check("thm2")
    for n in _sizes(cfg):
        P = chain_poset(n)
        for x in range(n):
            compact = _way_below(P, x, x, cfg.faults)
            strict_down = P.strict_down(x)
            sup_of = bool(strict_down) and P.sup_mask(strict_down) == x
            check.run(compact != sup_of, lambda: f"C{n}: dichotomy fails at {x}")
    for cid in cfg.chains:
        C = make_chain(cid)
        for x in C.sample(cfg.seed, cfg.sample_elements):
            ls = C.local_structure(x)
            check.run(
                ls.is_compact != ls.is_sup_of_strict_downset,
                lambda: f"{cid}: dichotomy fails at {C.format(x)}",
            )
    for n in range(cfg.min_n, min(cfg.cd_max_n, cfg.max_n) + 1):
        check.run(
            is_completely_distributive(chain_poset(n)),
            lambda: f"C{n}: not completely distributive",
        )
    notes = []
    for name, P in (("M3", m3_poset()), ("N5", n5_poset())):
        x = distributivity_failure(P)
        check.run(x is not None, lambda: f"{name}: unexpectedly completely distributive")
        if x is not None:
            approx, s = _approximation(P, x)
            notes.append(f"{name}: element {x} has approximating set {approx} with sup {s}")
    check.note = "; ".join(notes)
    return check


_EXPECTED_COR3 = {
    "int": (False, False, False, True),
    "dyadic01": (True, True, True, False),
    "rat01": (True, True, True, False),
    "omega+1": (False, False, False, True),
    "split": (False, False, False, False),
}


def _claim_cor3(cfg: SuiteConfig) -> _Check:
    check = _Check("cor3")
    for n in _sizes(cfg):
        try:
            rep = _finite_chain_report(chain_poset(n), definitions.way_below)
        except AssertionError as exc:
            check.run(False, lambda: f"C{n}: {exc}")
            continue
        expected = n == 1
        check.run(rep.cond1 == expected, lambda: f"C{n}: cond1 expected {expected}")
        check.run(rep.cond2 == expected, lambda: f"C{n}: cond2 expected {expected}")
    for cid in cfg.chains:
        C = make_chain(cid)
        try:
            rep = corollary3_report(C, samples=cfg.sample_elements, seed=cfg.seed)
        except AssertionError as exc:
            check.run(False, lambda: f"{cid}: {exc}")
            continue
        got = (rep.cond1, rep.cond2, rep.order_dense, rep.conditionally_complete)
        check.run(got == _EXPECTED_COR3[cid], lambda: f"{cid}: report {got}")
    return check


def _claim_prop4(cfg: SuiteConfig) -> _Check:
    check = _Check("prop4")
    for n in _sizes(cfg):
        P = chain_poset(n)
        T = canonical_topology(P, "intrinsic")
        check.run(is_pospace(P, T), lambda: f"C{n}: intrinsic not a pospace")
        check.run(
            is_topological_lattice(P, T), lambda: f"C{n}: intrinsic not a topological lattice"
        )
        check.run(separation_report(T).hausdorff, lambda: f"C{n}: intrinsic not Hausdorff")
    C2 = chain_poset(2)
    check.run(
        not is_pospace(C2, canonical_topology(C2, "upper")),
        lambda: "negative control: C2 with upper topology claims to be a pospace",
    )
    return check


_SEVEN_WAY = ("interval", "open_interval", "order")


def _claim_prop5(cfg: SuiteConfig) -> _Check:
    check = _Check("prop5")
    for n in _sizes(cfg):
        P = chain_poset(n)
        upper = canonical_topology(P, "upper")
        lower = canonical_topology(P, "lower")
        scott = _scott(P, cfg.faults)
        dual_scott = _scott(P.dual, cfg.faults)
        check.run(
            topology_equal(upper, scott),
            lambda: f"C{n}: upper vs scott differ: {_topology_diff(upper, scott)}",
        )
        check.run(
            topology_equal(lower, dual_scott),
            lambda: f"C{n}: lower vs dual scott differ: {_topology_diff(lower, dual_scott)}",
        )
        intrinsic = canonical_topology(P, "intrinsic")
        for name in _SEVEN_WAY:
            T = canonical_topology(P, name)
            check.run(
                topology_equal(intrinsic, T),
                lambda: f"C{n}: intrinsic vs {name} differ: {_topology_diff(intrinsic, T)}",
            )
        for name, T in (
            ("lawson", join_topologies(scott, lower)),
            ("dual_lawson", join_topologies(dual_scott, upper)),
            ("bi_scott", join_topologies(scott, dual_scott)),
        ):
            check.run(
                topology_equal(intrinsic, T),
                lambda: f"C{n}: intrinsic vs {name} differ: {_topology_diff(intrinsic, T)}",
            )
    check.note = (
        "on finite carriers these coincidences are forced, so this claim "
        "validates the constructors; the infinite content lives in lemma1/thm2/cor3"
    )
    return check


def _topology_diff(T1: Topology, T2: Topology) -> str:
    diff = T1.opens.symmetric_difference(T2.opens)
    shown = [sorted(as_set(m)) for m in sorted(diff)][:4]
    return f"{shown}" if shown else "none"


def _claim_remark_dm(cfg: SuiteConfig) -> _Check:
    check = _Check("remark-dm")
    for n in range(cfg.min_n, min(cfg.dm_max_n, cfg.max_n) + 1):
        P = chain_poset(n)
        T = _scott(P, cfg.faults)
        for mask in range(1, 1 << n):
            subset = as_set(mask)
            closure = hull(T, subset, "closure")
            check.run(
                closure == dm_closure(P, subset),
                lambda: f"C{n}: closures differ on {sorted(subset)}",
            )
        # boundary: the cut closure of the empty set is the least-element
        # cut, the topological closure is empty
        check.run(dm_closure(P, ()) == {0}, lambda: f"C{n}: empty-set cut closure")
        check.run(hull(T, (), "closure") == frozenset(), lambda: f"C{n}: empty-set scott closure")
    check.note = "empty set excluded from the coincidence: cut closure gives the least element"
    return check


def _claim_cor6(cfg: SuiteConfig) -> _Check:
    check = _Check("cor6")
    for n in _sizes(cfg):
        check.run(
            definitions.is_hypercontinuous(chain_poset(n)), lambda: f"C{n}: not hypercontinuous"
        )
    return check


def _claim_thm7(cfg: SuiteConfig) -> _Check:
    check = _Check("thm7")
    for n in _sizes(cfg):
        P = chain_poset(n)
        rep = separation_report(canonical_topology(P, "intrinsic"))
        check.run(
            rep.t1 and rep.hausdorff and rep.normal and rep.completely_normal,
            lambda: f"C{n}: separation report {rep.as_dict()}",
        )
    C2 = chain_poset(2)
    nu2 = canonical_topology(C2, "upper")
    rep = separation_report(nu2)
    check.run(not rep.t1, lambda: "negative control: upper topology of C2 is T1")
    check.run(not rep.hausdorff, lambda: "negative control: upper topology of C2 is Hausdorff")
    return check


def _claim_thm8_1(cfg: SuiteConfig) -> _Check:
    check = _Check("thm8-1")
    for n in _sizes(cfg):
        P = chain_poset(n)
        check.run(
            has_order_convex_basis(P, canonical_topology(P, "intrinsic")),
            lambda: f"C{n}: intrinsic topology lacks an order-convex basis",
        )
    return check


def _claim_xu(cfg: SuiteConfig) -> _Check:
    check = _Check("xu")
    for n in _sizes(cfg):
        check.run(definitions.xu_condition(chain_poset(n)), lambda: f"C{n}: xu condition fails")
    rng = _rng(cfg, "xu")
    surveyed = 0
    holds = 0
    for _ in range(24):
        P = _random_poset(rng, 2, 5)
        surveyed += 1
        if definitions.xu_condition(P):
            holds += 1
    check.note = f"random posets surveyed: {surveyed}, condition held on {holds}"
    return check


def _separation_matrix() -> list[tuple[str, object, object]]:
    """(chain id, lower-set boundary spec, point) cases spanning gap and
    density boundaries; None boundary means the empty lower set."""
    q = Fraction(1, 2)
    return [
        ("finite:3", 0, 2),
        ("finite:6", 2, 5),
        ("finite:6", None, 0),
        ("int", 0, 1),
        ("int", -3, 4),
        ("dyadic01", Fraction(1, 2), Fraction(3, 4)),
        ("dyadic01", None, Fraction(1, 8)),
        ("rat01", Fraction(1, 2), Fraction(3, 4)),
        ("rat01", Fraction(1, 3), Fraction(1)),
        ("omega+1", 2, OMEGA),
        ("split", (q, 0), (q, 1)),
        ("split", (q, 1), (Fraction(2), 0)),
    ]


def _claim_thm8_2(cfg: SuiteConfig) -> _Check:
    check = _Check("thm8-2")
    for cid, boundary, x in _separation_matrix():
        C = make_chain(cid)
        A = IntervalSet(C, () if boundary is None else (below(boundary),))
        try:
            f = _separate(C, A, x, cfg.faults)
            rep = verify_separating(C, f, A, x, samples=cfg.separation_samples, seed=cfg.seed)
            check.run(
                rep.all_ok(),
                lambda: f"{cid}: boundary {boundary!r} point {C.format(x)}: {rep.as_dict()}",
            )
        except ChainTopError as exc:
            check.run(False, lambda: f"{cid}: boundary {boundary!r}: {exc}")
    rat = make_chain("rat01")
    A = IntervalSet(rat, (below(Fraction(1, 2)),))
    broken = SeparatingFunction(rat, Fraction(1, 2), Fraction(3, 4), complemented=True)
    rep = verify_separating(rat, broken, A, Fraction(3, 4), samples=cfg.separation_samples, seed=cfg.seed)
    check.run(not rep.monotone_ok, lambda: "planted fault escaped the verifier")
    return check


def integer_window_components(IS: IntervalSet) -> tuple[Interval, ...]:
    """Brute-force oracle over the integers: materialize membership on a
    window covering all finite endpoints and read off maximal runs."""
    ends = []
    for iv in IS.intervals:
        if iv.lower is not NEG_INF:
            ends.append(iv.lower)
        if iv.upper is not POS_INF:
            ends.append(iv.upper)
        if iv.lower is NEG_INF or iv.upper is POS_INF:
            raise ValueError("window oracle needs bounded intervals")
    if not ends:
        return ()
    lo, hi = min(ends) - 2, max(ends) + 2
    runs = []
    start = None
    for x in range(lo, hi + 1):
        if interval_member(IS, x):
            if start is None:
                start = x
            last = x
        elif start is not None:
            runs.append(closed_interval(start, last))
            start = None
    if start is not None:
        runs.append(closed_interval(start, last))
    return tuple(runs)


def _random_interval_set(rng: random.Random, C: ChainHandle, pool) -> IntervalSet:
    """Up to four intervals between points of `pool`, a list of (element,
    key) pairs."""
    intervals = []
    for _ in range(rng.randint(0, 4)):
        (a, ka), (b, kb) = rng.choice(pool), rng.choice(pool)
        if ka > kb:
            a, b = b, a
        lower_open = rng.random() < 0.5
        upper_open = rng.random() < 0.5
        kind = rng.random()
        if kind < 0.08 and not isinstance(C, FiniteChain):
            intervals.append(Interval(NEG_INF, True, b, upper_open))
        elif kind < 0.16 and not isinstance(C, FiniteChain):
            intervals.append(Interval(a, lower_open, POS_INF, True))
        else:
            intervals.append(Interval(a, lower_open, b, upper_open))
    return IntervalSet(C, tuple(intervals))


_FIXED_MERGE_CASES = [
    ("int", (closed_interval(1, 3), closed_interval(4, 6)), (closed_interval(1, 6),)),
    ("int", (closed_interval(1, 3), closed_interval(5, 6)), (closed_interval(1, 3), closed_interval(5, 6))),
    (
        "rat01",
        (
            Interval(Fraction(0), True, Fraction(1, 2), False),
            Interval(Fraction(1, 2), True, Fraction(1), True),
        ),
        (Interval(Fraction(0), True, Fraction(1), True),),
    ),
    (
        "rat01",
        (
            Interval(Fraction(0), True, Fraction(1, 2), True),
            Interval(Fraction(1, 2), True, Fraction(1), True),
        ),
        (
            Interval(Fraction(0), True, Fraction(1, 2), True),
            Interval(Fraction(1, 2), True, Fraction(1), True),
        ),
    ),
    (
        "split",
        (below((Fraction(1, 2), 0)), Interval((Fraction(1, 2), 1), False, POS_INF, True)),
        (Interval(NEG_INF, True, POS_INF, True),),
    ),
]


class _IntegerKeys:
    """Exact integer images of the keys of one chain's `thm9` pool, so that
    membership compares integers, not `Fraction`s.

    L is twice the lcm of the denominators of the pool keys' `Fraction`
    components; each such component c becomes c * L, and integer
    components are kept.  The image of a key whose denominators divide L
    is exact, so images order exactly as keys do.  That covers every key
    `thm9` takes: the ends of its sets are pool points, or ends `normalize`
    adds (0 and 1, or a `split` point sharing a pool point's rational), and
    a `between` midpoint of two pool points has a denominator dividing
    2 * lcm.  Any other key raises; nothing is rounded.
    """

    def __init__(self, keys):
        self.L = 2 * math.lcm(*(
            c.denominator
            for k in keys
            for c in (k if type(k) is tuple else (k,))
            if type(c) is Fraction
        ))

    def key(self, k):
        if type(k) is tuple:
            return tuple([self._exact(c, k) for c in k])
        return self._exact(k, k)

    def _exact(self, c, k):
        """The image of one component c of the key k."""
        if type(c) is not Fraction:
            return c
        times, rest = divmod(self.L, c.denominator)
        if rest:
            raise AssertionError(f"key {k} has a denominator that does not divide L = {self.L}")
        return c.numerator * times

    def bounds(self, bounds):
        """The images of an `IntervalSet._bounds`; infinite ends stay None."""
        key = self.key
        return tuple(
            (None if lo is None else key(lo), lower_open, None if hi is None else key(hi), upper_open)
            for lo, lower_open, hi, upper_open in bounds
        )


def _claim_thm9(cfg: SuiteConfig) -> _Check:
    check = _Check("thm9")
    for cid, raw, expected in _FIXED_MERGE_CASES:
        C = make_chain(cid)
        got = _normalize(IntervalSet(C, raw), cfg.faults).intervals
        check.run(got == tuple(expected), lambda: f"{cid}: canonical form {got} != {expected}")
    chain_ids = tuple(cfg.chains) + (f"finite:{max(3, cfg.max_n)}",)
    for cid in chain_ids:
        C = make_chain(cid)
        rng = _rng(cfg, f"thm9:{cid}")
        pool_size = min(12, C.n) if isinstance(C, FiniteChain) else 12
        # validated and keyed once, then scaled to integers: the interval
        # ends are pool points, so membership below compares integers only
        keyed = [(p, C.key(C.validate(p))) for p in C.sample(cfg.seed, pool_size)]
        scale = _IntegerKeys([k for _, k in keyed])
        pool = [(p, scale.key(k)) for p, k in keyed]
        for case in range(cfg.interval_cases):
            IS = _random_interval_set(rng, C, pool)
            norm = _normalize(IS, cfg.faults)
            for left, right in zip(norm.intervals, norm.intervals[1:]):
                check.run(
                    not _mergeable(C, left, right),
                    lambda: f"{cid}: case {case}: mergeable components remain",
                )
            bounds, norm_bounds = scale.bounds(IS._bounds), scale.bounds(norm._bounds)
            probes = list(pool)
            for iv, (lo, _, hi, _) in zip(IS.intervals, bounds):
                if lo is not None:
                    probes.append((iv.lower, lo))
                if hi is not None:
                    probes.append((iv.upper, hi))
            members = []
            for p, k in probes:
                in_norm = _key_member(norm_bounds, k)
                check.run(
                    _key_member(bounds, k) == in_norm,
                    lambda: f"{cid}: case {case}: membership changed at {C.format(p)}",
                )
                if in_norm:
                    members.append((p, k))
            members = members[:6]
            for a, ka in members:
                for b, kb in members:
                    if ka < kb:
                        w = C._between(a, b)
                        if w is None:
                            continue
                        kw = scale.key(C.key(C.validate(w)))
                        if _key_member(bounds, kw) != _key_member(norm_bounds, kw):
                            check.run(
                                False, lambda: f"{cid}: case {case}: witness membership changed"
                            )
            if cid == "int" and all(iv.bounded() for iv in IS.intervals):
                oracle = integer_window_components(IS)
                check.run(
                    norm.intervals == oracle,
                    lambda: (
                        f"{cid}: case {case}: window oracle disagrees: {norm.intervals} vs {oracle}"
                    ),
                )
    for n in range(cfg.min_n, min(6, cfg.max_n) + 1):
        P = chain_poset(n)
        T = canonical_topology(P, "intrinsic")
        for mask in sorted(T.opens):
            pieces = decompose_open_finite(P, T, as_set(mask))
            union = frozenset().union(*pieces) if pieces else frozenset()
            ok = union == as_set(mask)
            ok = ok and all(
                not (pieces[i] & pieces[j])
                for i in range(len(pieces))
                for j in range(i + 1, len(pieces))
            )
            check.run(ok, lambda: f"C{n}: decomposition of {sorted(as_set(mask))} broken")
    return check


_CLAIM_FUNCTIONS = {
    "cor3": _claim_cor3,
    "cor6": _claim_cor6,
    "lemma1": _claim_lemma1,
    "prop4": _claim_prop4,
    "prop5": _claim_prop5,
    "remark-dm": _claim_remark_dm,
    "thm2": _claim_thm2,
    "thm7": _claim_thm7,
    "thm8-1": _claim_thm8_1,
    "thm8-2": _claim_thm8_2,
    "thm9": _claim_thm9,
    "xu": _claim_xu,
}

CLAIM_IDS = tuple(_CLAIM_FUNCTIONS)


@dataclass(frozen=True)
class SuiteConfig:
    min_n: int = 1
    max_n: int = 7
    seed: int = 0
    chains: tuple[str, ...] = INFINITE_CHAIN_IDS
    claims: tuple[str, ...] = CLAIM_IDS
    faults: tuple[str, ...] = ()
    sample_pairs: int = 200
    sample_elements: int = 100
    interval_cases: int = 120
    separation_samples: int = 200
    dm_max_n: int = 6
    cd_max_n: int = 6

    def as_dict(self) -> dict:
        return asdict(self)


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run the selected claims; deterministic for a fixed config."""
    unknown = [c for c in cfg.claims if c not in _CLAIM_FUNCTIONS]
    if unknown:
        raise UnknownTarget(f"unknown claim ids {unknown}")
    unknown_chains = [c for c in cfg.chains if c not in INFINITE_CHAIN_IDS]
    if unknown_chains:
        raise UnknownTarget(f"unknown chain ids {unknown_chains}")
    unknown_faults = [f for f in cfg.faults if f not in FAULT_KERNELS]
    if unknown_faults:
        raise UnknownTarget(f"unknown faults {unknown_faults}")
    # the size range is checked before any claim runs, not when a claim
    # first reaches a bad size
    if not 1 <= cfg.min_n <= cfg.max_n:
        raise CoverageGap(f"size range {cfg.min_n}..{cfg.max_n} is empty or starts below 1")
    if cfg.max_n > POSET_CAP:
        raise CapExceeded(cfg.max_n, POSET_CAP)
    records = []
    for claim in sorted(set(cfg.claims)):
        try:
            check = _CLAIM_FUNCTIONS[claim](cfg)
        except ChainTopError as exc:
            # prefix the message in place: not every error class can be
            # rebuilt from a message alone
            exc.args = (f"[{claim}] {exc}",)
            raise
        if check.instances == 0:
            raise CoverageGap(f"claim {claim} ran zero instances")
        records.append(check.record())
    return SuiteReport(tuple(records), cfg)


@dataclass(frozen=True)
class SearchConfig:
    target: str
    min_n: int = 3
    max_n: int = 6
    seed: int = 0
    max_instances: int = 2000

    def __post_init__(self):
        if self.target not in SEARCH_TARGETS:
            raise UnknownTarget(f"unknown search target {self.target!r}")
        if not 1 <= self.min_n <= self.max_n <= 8:
            raise CoverageGap(
                f"size range {self.min_n}..{self.max_n} outside the searchable caps"
            )


@dataclass(frozen=True)
class Found:
    poset: FinitePoset
    witness: str
    instances_tried: int


def _random_poset(rng: random.Random, min_n: int, max_n: int) -> FinitePoset:
    n = rng.randint(min_n, max_n)
    p = rng.uniform(0.15, 0.5)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_poset(n, pairs, "hasse-covers")


def _approximation(P: FinitePoset, x: int) -> tuple[list[int], int | None]:
    """The elements way-way-below x and their supremum."""
    approx = way_way_below_set(P, x)
    return sorted(approx), P.sup_mask(P.as_mask(approx))


_NON_CHAIN_TARGETS = ("completely_distributive_fails", "conditional_completeness_fails")


def _target_witness(target: str, P: FinitePoset) -> str | None:
    """The failure a search target looks for, described, or None."""
    if target == "completely_distributive_fails":
        x = distributivity_failure(P)
        if x is not None:
            approx, s = _approximation(P, x)
            return f"element {x}: approximating set {approx} has supremum {s}"
    elif target == "pospace_fails_for_upper":
        pair = pospace_failure(P, canonical_topology(P, "upper"))
        if pair is not None:
            return f"pair ({pair[0]},{pair[1]}) has no open rectangle avoiding the order"
    elif target == "conditional_completeness_fails":
        mask = conditional_completeness_failure(P)
        if mask is not None:
            return f"bounded subset {sorted(as_set(mask))} has no supremum"
    else:
        T = canonical_topology(P, "upper")
        pair = normality_failure(T)
        if pair is not None:
            a, b = (sorted(as_set(T.closure_mask(1 << p))) for p in pair)
            return f"closed sets {a} and {b} admit no disjoint open neighbourhoods in the upper topology"
    return None


def find_counterexample(cfg: SearchConfig):
    """Search seeded random posets for a target failure; None if the
    budget runs out."""
    needs_non_chain = cfg.target in _NON_CHAIN_TARGETS
    rng = random.Random(f"search:{cfg.seed}:{cfg.target}")
    for attempt in range(1, cfg.max_instances + 1):
        P = _random_poset(rng, cfg.min_n, cfg.max_n)
        if needs_non_chain and P.is_chain:
            continue
        witness = _target_witness(cfg.target, P)
        if witness is not None:
            return Found(P, witness, attempt)
    return None
