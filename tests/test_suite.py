import hashlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from chaintop import suite
from chaintop import (
    CLAIM_IDS,
    AxiomViolation,
    CapExceeded,
    CoverageGap,
    FAULT_KERNELS,
    SEARCH_TARGETS,
    ReversedChain,
    SearchConfig,
    SuiteConfig,
    UnknownTarget,
    find_counterexample,
    interval_member,
    is_completely_distributive,
    is_pospace,
    canonical_topology,
    classify,
    make_chain,
    normalize,
    run_suite,
    separation_report,
)
from chaintop.intervals import NEG_INF, POS_INF

SMALL = SuiteConfig(
    max_n=4,
    sample_pairs=40,
    sample_elements=24,
    interval_cases=20,
    separation_samples=40,
    dm_max_n=4,
    cd_max_n=4,
)


def test_default_claim_ids_cover_the_map():
    assert set(CLAIM_IDS) == {
        "lemma1",
        "thm2",
        "cor3",
        "prop4",
        "prop5",
        "remark-dm",
        "cor6",
        "thm7",
        "thm8-1",
        "thm8-2",
        "thm9",
        "xu",
    }


def test_small_suite_passes():
    report = run_suite(SMALL)
    assert report.passed()
    assert all(r.instances > 0 for r in report.records)
    assert [r.claim for r in report.records] == sorted(CLAIM_IDS)


def test_suite_deterministic():
    assert run_suite(SMALL).as_json() == run_suite(SMALL).as_json()


def test_restricted_claims():
    report = run_suite(SuiteConfig(max_n=8, claims=("prop5",)))
    assert report.passed()
    rec = report.record("prop5")
    assert rec.instances > 0
    assert "constructors" in rec.note


def test_unknown_claim_and_chain():
    with pytest.raises(UnknownTarget):
        run_suite(SuiteConfig(claims=("lemma9000",)))
    with pytest.raises(UnknownTarget):
        run_suite(SuiteConfig(chains=("reals",)))


def test_unknown_fault():
    # a misspelt fault must not run an unfaulted suite that passes
    with pytest.raises(UnknownTarget):
        run_suite(SuiteConfig(claims=("cor6",), faults=("stair-case",)))


def test_claim_errors_keep_their_class_and_fields_under_the_claim_prefix(monkeypatch):
    def capped(cfg):
        raise CapExceeded(17, 16)

    monkeypatch.setitem(suite._CLAIM_FUNCTIONS, "prop5", capped)
    with pytest.raises(CapExceeded) as exc:
        run_suite(SuiteConfig(max_n=3, claims=("prop5",)))
    assert (exc.value.n, exc.value.cap) == (17, 16)
    assert str(exc.value) == "[prop5] size 17 exceeds exhaustive cap 16"

    def broken(cfg):
        raise AxiomViolation("transitive", (0, 2))

    monkeypatch.setitem(suite._CLAIM_FUNCTIONS, "xu", broken)
    with pytest.raises(AxiomViolation) as exc:
        run_suite(SuiteConfig(claims=("xu",)))
    assert (exc.value.axiom, exc.value.witness) == ("transitive", (0, 2))
    assert str(exc.value) == "[xu] transitive violated at (0, 2)"


def test_record_lookup():
    report = run_suite(SuiteConfig(max_n=3, claims=("cor6",)))
    assert report.record("cor6").verdict == "pass"
    with pytest.raises(KeyError):
        report.record("lemma1")


# the claims each injected fault breaks, and no others
KILL_SETS = {
    "scott": ["prop5", "remark-dm"],
    "way-below": ["lemma1", "thm2"],
    "normalize": ["thm9"],
    "ramp": ["thm8-2"],
    "drop-component": ["thm9"],
}


def test_every_fault_has_a_kill_set():
    assert set(FAULT_KERNELS) == set(KILL_SETS)


@pytest.mark.parametrize("fault", FAULT_KERNELS)
def test_each_fault_is_detected(fault):
    report = run_suite(SuiteConfig(**{**SMALL.__dict__, "faults": (fault,)}))
    assert not report.passed()
    failing = sorted(r.claim for r in report.records if r.verdict == "fail")
    assert failing == KILL_SETS[fault]
    for rec in report.records:
        if rec.verdict == "fail":
            assert rec.witnesses  # verdict iff witnesses


def test_fault_scott_breaks_prop5_with_topology_diff():
    report = run_suite(SuiteConfig(max_n=4, claims=("prop5",), faults=("scott",)))
    rec = report.record("prop5")
    assert rec.verdict == "fail"
    assert any("differ" in w for w in rec.witnesses)


def test_fault_ramp_breaks_every_nonempty_separation():
    report = run_suite(SuiteConfig(claims=("thm8-2",), faults=("ramp",)))
    rec = report.record("thm8-2")
    # twelve matrix cases, two of them with the empty lower set and so
    # left alone, and the planted-fault check
    assert rec.instances == 13
    assert len(rec.witnesses) == 10
    assert not any("boundary None" in w for w in rec.witnesses)


def test_search_targets_all_findable():
    for target in SEARCH_TARGETS:
        found = find_counterexample(SearchConfig(target=target, min_n=3, max_n=6, seed=1))
        assert found is not None, target
        assert found.witness
        assert found.instances_tried >= 1


def test_search_witnesses_are_genuine():
    found = find_counterexample(
        SearchConfig(target="completely_distributive_fails", min_n=5, max_n=5, seed=0)
    )
    assert not found.poset.is_chain
    assert not is_completely_distributive(found.poset)

    found = find_counterexample(
        SearchConfig(target="pospace_fails_for_upper", min_n=2, max_n=3, seed=0)
    )
    assert not is_pospace(found.poset, canonical_topology(found.poset, "upper"))

    found = find_counterexample(
        SearchConfig(target="conditional_completeness_fails", min_n=4, max_n=6, seed=0)
    )
    assert not classify(found.poset).conditionally_complete
    assert not found.poset.is_chain

    found = find_counterexample(
        SearchConfig(target="normality_fails_for_topology", min_n=3, max_n=5, seed=0)
    )
    rep = separation_report(canonical_topology(found.poset, "upper"))
    assert not rep.normal


def test_search_determinism():
    a = find_counterexample(SearchConfig(target="pospace_fails_for_upper", seed=5))
    b = find_counterexample(SearchConfig(target="pospace_fails_for_upper", seed=5))
    assert a.poset == b.poset and a.witness == b.witness


def test_search_not_found_returns_none():
    # a target that cannot occur at size 1
    cfg = SearchConfig(
        target="conditional_completeness_fails", min_n=1, max_n=1, seed=0, max_instances=50
    )
    assert find_counterexample(cfg) is None


def test_search_config_validation():
    with pytest.raises(UnknownTarget):
        SearchConfig(target="perpetual_motion")
    with pytest.raises(CoverageGap):
        SearchConfig(target="pospace_fails_for_upper", min_n=5, max_n=2)


def test_coverage_guard_rejects_empty_claims():
    # an empty size range would leave the chain-only claims with no instances
    with pytest.raises(CoverageGap):
        run_suite(SuiteConfig(min_n=5, max_n=4, chains=(), claims=("cor6",)))


@pytest.mark.parametrize(
    "min_n, max_n, error",
    [(0, 7, CoverageGap), (-2, 3, CoverageGap), (17, 17, CapExceeded), (1, 17, CapExceeded)],
)
def test_size_range_is_checked_before_any_claim_runs(monkeypatch, min_n, max_n, error):
    def never(cfg):
        raise AssertionError("a claim ran")

    for claim in CLAIM_IDS:
        monkeypatch.setitem(suite._CLAIM_FUNCTIONS, claim, never)
    with pytest.raises(error):
        run_suite(SuiteConfig(min_n=min_n, max_n=max_n))


def test_a_passing_check_never_formats_its_witness():
    def describe():
        raise AssertionError("a witness was formatted for a passing instance")

    check = suite._Check("probe")
    for _ in range(3):
        check.run(True, describe)
    assert (check.instances, check.witnesses) == (3, [])
    assert check.record().verdict == "pass"
    # a failure past the twenty kept witnesses is counted, not formatted
    for i in range(20):
        check.run(False, lambda: f"failure {i}")
    check.run(False, describe)
    assert check.instances == 24
    assert check.witnesses == [f"failure {i}" for i in range(20)]
    assert check.record().verdict == "fail"


@lru_cache(maxsize=None)
def _default_report(seed, faults=()):
    return run_suite(SuiteConfig(seed=seed, faults=faults))


# the first witness of each claim a fault kills, default config at seed 0
FIRST_WITNESSES = {
    "scott": {
        "prop5": "C2: upper vs scott differ: [[0], [1]]",
        "remark-dm": "C2: closures differ on [0]",
    },
    "way-below": {
        "lemma1": "C1: handle and oracle disagree at (0,0)",
        "thm2": "C1: dichotomy fails at 0",
    },
    "normalize": {
        "thm9": "int: canonical form (Interval(lower=1, lower_open=False, upper=3, "
        "upper_open=False), Interval(lower=4, lower_open=False, upper=6, upper_open=False))"
        " != (Interval(lower=1, lower_open=False, upper=6, upper_open=False),)",
    },
    "ramp": {
        "thm8-2": "finite:3: boundary 0 point 2: {'monotone_ok': False, 'zero_on_A_ok': False,"
        " 'one_at_x_ok': False, 'continuity_ok': True}",
    },
    "drop-component": {
        "thm9": "int: canonical form () != (Interval(lower=1, lower_open=False, upper=6,"
        " upper_open=False),)",
    },
}


@pytest.mark.parametrize("fault", FAULT_KERNELS)
def test_witnesses_are_text_and_the_first_ones_are_pinned(fault):
    report = _default_report(0, (fault,))
    for rec in report.records:
        assert all(type(w) is str for w in rec.witnesses), rec.claim
    first = {r.claim: r.witnesses[0] for r in report.records if r.verdict == "fail"}
    assert first == FIRST_WITNESSES[fault]


# sha256 of run_suite(SuiteConfig(seed=s, faults=f)).as_json(); a change
# that alters the report on purpose (say, new instances) updates these and
# says why
REPORT_DIGESTS = {
    (0, ()): "50f45774f4875ebfc4ae037ab48852a768531de318f16f06cf211de05162eab7",
    (17, ()): "b0957ed05289f0532c98da7602ae5ae29865cfdb0e6b66a9b1e3105b9da185e5",
    (0, ("scott",)): "d2275c1e10ddd95185f9efc3f6603d873e8c379fc6d63b43730a49b5a6b23002",
    (0, ("way-below",)): "947b72cbee402b131910a1ccabe7fd5b9d6d6af1000df4769e1bd61e8cf3b667",
    (0, ("normalize",)): "d658161465f6ad8491d4c6fbad2e4151a0f2936e2c7f24c585e6fbec11f8bc60",
    (0, ("ramp",)): "606c5ad3cfde19a27887eaf60579d321b04f451901dc2592609aab64ba61a584",
    (0, ("drop-component",)): "db83f9a88764052d99563db9ffb3358b83ded3207f593220ad390a476cedbd50",
}


@pytest.mark.parametrize(
    "seed, faults",
    list(REPORT_DIGESTS),
    ids=[f"{s}-{'+'.join(f) or 'none'}" for s, f in REPORT_DIGESTS],
)
def test_the_default_report_is_pinned(seed, faults):
    digest = hashlib.sha256(_default_report(seed, faults).as_json().encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(seed, faults)]


def test_a_dropped_component_is_caught_at_a_formatted_point():
    report = run_suite(
        SuiteConfig(claims=("thm9",), chains=("split",), faults=("drop-component",))
    )
    rec = report.record("thm9")
    assert rec.verdict == "fail"
    # a split point formats as q:i, not as the raw pair
    assert rec.witnesses[5] == "split: case 0: membership changed at -18/19:0"


def _is_integer_key(v):
    return v is None or type(v) is int or (
        type(v) is tuple and all(type(c) is int for c in v)
    )


def test_thm9_membership_compares_integers_only(monkeypatch):
    compare = suite._key_member
    calls = 0

    def integers_only(bounds, kx):
        nonlocal calls
        calls += 1
        assert _is_integer_key(kx), kx
        for lo, _, hi, _ in bounds:
            assert _is_integer_key(lo) and _is_integer_key(hi), (lo, hi)
        return compare(bounds, kx)

    monkeypatch.setattr(suite, "_key_member", integers_only)
    report = run_suite(SuiteConfig(claims=("thm9",)))
    assert report.passed() and calls > 0


@pytest.mark.parametrize("reverse", [False, True], ids=["base", "reversed"])
@pytest.mark.parametrize("cid", ["finite:9", "int", "dyadic01", "rat01", "omega+1", "split"])
def test_integer_keys_order_and_decide_membership_as_the_keys_do(cid, reverse):
    """On seeded pools, random sets, their canonical ends and midpoints of
    pool points, the integer images keep every `<` and `==` of the keys and
    membership on the images is `interval_member`; an inexact key raises."""
    C = make_chain(cid)
    if reverse:
        C = ReversedChain(C)
    rng = random.Random(f"integer-keys:{cid}:{reverse}")
    pool = [(p, C.key(C.validate(p))) for p in C.sample(3, 9)]
    scale = suite._IntegerKeys([k for _, k in pool])
    mids = [C.between(a, b) for a, ka in pool for b, kb in pool if ka < kb]
    points = [p for p, _ in pool] + [m for m in mids if m is not None]
    images = {}
    for _ in range(40):
        IS = suite._random_interval_set(rng, C, pool)
        sets = (IS, normalize(IS))
        probes = points + [
            e for S in sets for iv in S.intervals for e in (iv.lower, iv.upper)
            if e is not NEG_INF and e is not POS_INF
        ]
        for p in probes:
            images[C.key(p)] = scale.key(C.key(p))
        for S in sets:
            bounds = scale.bounds(S._bounds)
            for p in probes:
                assert suite._key_member(bounds, images[C.key(p)]) == interval_member(S, p), (
                    S.intervals, p,
                )
    assert all(_is_integer_key(v) for v in images.values())
    # distinct keys in ascending order: strictly ascending images keep
    # every `<` and `==` among them
    keys = sorted(images)
    assert all(images[a] < images[b] for a, b in zip(keys, keys[1:]))
    if cid in ("dyadic01", "rat01", "split"):
        q = Fraction(1, 2 * scale.L)
        x = C.validate((q, 0) if cid == "split" else q)
        with pytest.raises(AssertionError, match=f"does not divide L = {scale.L}"):
            scale.key(C.key(x))
    else:
        assert all(images[k] == k for k in keys)
