"""The benchmark's workloads: seeded inputs, one timed op, and its checks.

An op is a session: everything a user does with one input, through
``chaintop.cli.main`` in-process where a command exists and through the
library where it does not.  ``run`` is timed and returns plain data;
``check`` runs outside the timed region and compares that data with the
benchmark's own computation in ``oracle`` or with a forced property.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle

TOPOLOGY_NAMES = oracle.UP_SETS + oracle.DOWN_SETS + oracle.ALL_SETS + oracle.RAY_GENERATED
CLAIM_IDS = (
    "cor3", "cor6", "lemma1", "prop4", "prop5", "remark-dm",
    "thm2", "thm7", "thm8-1", "thm8-2", "thm9", "xu",
)
# each injectable fault and the claims it is known to break
FAULTS = {"scott": ("prop5", "remark-dm"), "way-below": ("lemma1", "thm2"), "normalize": ("thm9",)}


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


class OpFailed(Exception):
    """A command ended in an error exit instead of an answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Session:
    """Runs CLI commands in-process with stdout and stderr captured."""

    def __init__(self, mods, workdir: Path):
        self.mods = mods
        self.workdir = workdir
        self.stdout_chars = 0

    def call(self, *argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.mods.cli.main([str(a) for a in argv])
            except SystemExit as exc:
                rc = exc.code
        text = out.getvalue()
        self.stdout_chars += len(text)
        if rc not in (0, 1):
            raise OpFailed(f"chaintop {' '.join(map(str, argv))} exited {rc}: {err.getvalue().strip()[-300:]}")
        return rc, text


@dataclass(frozen=True)
class TopologyInput:
    kind: str  # "chain" or "random"
    up: tuple[int, ...]  # the benchmark's own principal filters
    path: Path
    path8: Path  # the subposet on the first 8 labels
    up8: tuple[int, ...]
    report_name: str


@dataclass(frozen=True)
class OrderInput:
    kind: str
    up: tuple[int, ...]
    path: Path
    way_below: tuple[tuple[int, int], ...]  # pairs asked with `waybelow`
    way_way_below: tuple[tuple[int, int], ...]  # pairs asked with `waybelow --www`


def _seeded_pairs(rng: random.Random, n: int, chain: bool, density: float) -> list[tuple[int, int]]:
    """Cover pairs of a chain, or random related pairs of a poset, on
    shuffled labels so that equal shapes still differ as inputs."""
    perm = list(range(n))
    rng.shuffle(perm)
    if chain:
        return [(perm[i], perm[i + 1]) for i in range(n - 1)]
    return [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def _write_poset(path: Path, n: int, pairs, mode: str = "hasse") -> None:
    path.write_text(json.dumps({"n": n, "mode": mode, "pairs": [list(p) for p in pairs]}))


def _full_pairs(up) -> list[tuple[int, int]]:
    return [(x, y) for x in range(len(up)) for y in oracle.bits(up[x]) if x != y]


class SuiteWorkload:
    """One op is a default `suite run --json` at a seeded suite seed."""

    name = "suite"
    pool_rounds = 32
    nominal_round_s = 2.2

    def make_inputs(self, seed: int, workdir: Path) -> list[list[int]]:
        rng = random.Random(f"suite:{seed}")
        return [[rng.randrange(2**31)] for _ in range(self.pool_rounds)]

    def run(self, s: Session, suite_seed: int):
        return s.call("suite", "run", "--json", "--seed", suite_seed)

    def check(self, suite_seed: int, result) -> None:
        rc, text = result
        expect(rc == 0, f"suite seed {suite_seed} exited {rc}")
        doc = json.loads(text)
        expect(doc["passed"] is True, f"suite seed {suite_seed} did not pass")
        expect(doc["config"]["seed"] == suite_seed and doc["config"]["max_n"] == 7, "suite ran another config")
        claims = {c["claim"]: c for c in doc["claims"]}
        expect(sorted(claims) == sorted(CLAIM_IDS), f"suite claims {sorted(claims)}")
        for c in claims.values():
            expect(c["instances"] > 0, f"claim {c['claim']} checked no instance")
            expect(c["verdict"] == "pass", f"claim {c['claim']} verdict {c['verdict']}")

    def check_once(self, s: Session, pool) -> None:
        """Each injected fault exits 1 and fails the claims it is known to break."""
        suite_seed = pool[0][0]
        for fault, broken in FAULTS.items():
            rc, text = s.call(
                "suite", "run", "--json", "--seed", suite_seed,
                "--inject-fault", fault, "--claims", ",".join(broken),
            )
            verdicts = {c["claim"]: c["verdict"] for c in json.loads(text)["claims"]}
            expect(rc == 1, f"fault {fault} exited {rc}")
            expect(verdicts == {c: "fail" for c in broken}, f"fault {fault} gave {verdicts}")


class TopologyWorkload:
    """One op builds every canonical topology of a 9-point poset and
    joins, compares, reports on and multiplies them."""

    name = "topology"
    pool_rounds = 16
    nominal_round_s = 1.8
    n = 9
    report_points = tuple(range(8))  # the hereditary cap
    left, right = (0, 1), (0, 1, 2, 3, 4)  # a product of 2 x 5 points

    def make_inputs(self, seed: int, workdir: Path) -> list[list[TopologyInput]]:
        rng = random.Random(f"topology:{seed}")
        rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for k, kind in enumerate(("chain", "random")):
                pairs = _seeded_pairs(rng, self.n, kind == "chain", rng.uniform(0.1, 0.25))
                up = oracle.close_order(self.n, pairs)
                path = workdir / f"top{r}{kind}.json"
                _write_poset(path, self.n, pairs)
                up8 = oracle.restrict(up, self.report_points)
                path8 = workdir / f"top{r}{kind}8.json"
                _write_poset(path8, len(up8), _full_pairs(up8), "full")
                name = TOPOLOGY_NAMES[(2 * r + k) % len(TOPOLOGY_NAMES)]
                ops.append(TopologyInput(kind, up, path, path8, up8, name))
            rounds.append(ops)
        return rounds

    def run(self, s: Session, op: TopologyInput):
        made = {}
        for name in TOPOLOGY_NAMES:
            _, made[name] = s.call("topo", "make", op.path, name)
        files = {}
        for name in ("upper", "lower", "intrinsic"):
            files[name] = s.workdir / f"{name}.json"
            files[name].write_text(made[name])
        _, joined = s.call("topo", "join", files["upper"], files["lower"])
        join_file = s.workdir / "join.json"
        join_file.write_text(joined)
        equal = s.call("topo", "equal", join_file, files["intrinsic"])
        report = s.call("topo", "report", op.path8, op.report_name)
        top, fmt = s.mods.topology, s.mods.formats
        left = top.subspace_topology(fmt.load_topology(made["upper"]), self.left)
        right = top.subspace_topology(fmt.load_topology(made["lower"]), self.right)
        product = top.product_topology(left, right)
        return made, joined, equal, report, product.n, product.opens

    def check(self, op: TopologyInput, result) -> None:
        made, joined, equal, report, product_n, product_opens = result
        for name in TOPOLOGY_NAMES:
            _check_family(made[name], len(op.up), oracle.least_neighbourhoods(op.up, name), name)
        _check_family(joined, len(op.up), tuple(1 << x for x in range(len(op.up))), "join of upper and lower")
        expect(equal == (0, "true\n"), f"topo equal of the join and intrinsic gave {equal}")
        rc, text = report
        own = oracle.separation(oracle.least_neighbourhoods(op.up8, op.report_name))
        expect(rc == 0 and json.loads(text) == own, f"topo report {op.report_name}: {text.strip()} != {own}")
        ups = oracle.restrict(op.up, self.left)
        downs = oracle.down_sets(oracle.restrict(op.up, self.right))
        expect(product_n == len(ups) * len(downs), f"product carrier {product_n}")
        expect(
            product_opens == oracle.unions(oracle.product_neighbourhoods(ups, downs)),
            "product opens are not the unions of U_x x U_y",
        )


def _check_family(text: str, n: int, minimal, label: str) -> None:
    doc = json.loads(text)
    expect(doc["n"] == n, f"{label}: carrier {doc['n']} != {n}")
    fam = [sum(1 << x for x in o) for o in doc["opens"]]
    expect(len(set(fam)) == len(fam), f"{label}: repeated opens")
    expect(set(fam) == oracle.unions(minimal), f"{label}: opens differ from the unions of U_x")


class OrderWorkload:
    """One op classifies an 11-point chain or dense poset, lists its maximal
    chains and settles way-below and way-way-below on it.

    A round is two chains and one random poset.  Random posets cost less
    than chains and spread widely, because `is_completely_distributive`
    stops at the first refuting element; with two chains in three ops the
    median op lies among the chains rather than in the gap between kinds.
    """

    name = "order"
    kinds = ("chain", "chain", "random")
    pool_rounds = 32
    nominal_round_s = 2.4
    n = 11
    pairs_per_query = 3

    def make_inputs(self, seed: int, workdir: Path) -> list[list[OrderInput]]:
        rng = random.Random(f"order:{seed}")
        rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for k, kind in enumerate(self.kinds):
                pairs = _seeded_pairs(rng, self.n, kind == "chain", rng.uniform(0.4, 0.6))
                path = workdir / f"ord{r}-{k}.json"
                _write_poset(path, self.n, pairs)
                queries = [(rng.randrange(self.n), rng.randrange(self.n)) for _ in range(2 * self.pairs_per_query)]
                ops.append(OrderInput(
                    kind, oracle.close_order(self.n, pairs), path,
                    tuple(queries[: self.pairs_per_query]), tuple(queries[self.pairs_per_query :]),
                ))
            rounds.append(ops)
        return rounds

    def run(self, s: Session, op: OrderInput):
        classified = s.call("poset", "classify", op.path)
        chains = s.call("poset", "maxchains", op.path)
        wb = tuple(s.call("waybelow", x, y, "--poset", op.path) for x, y in op.way_below)
        www = tuple(s.call("waybelow", x, y, "--poset", op.path, "--www") for x, y in op.way_way_below)
        rel = s.mods.relations
        P, _ = s.mods.formats.load_poset(op.path.read_text())
        report = rel.way_below_report(P)
        cd = rel.is_completely_distributive(P)
        cor3 = rel.corollary3_report(P).as_dict() if op.kind == "chain" else None
        return classified, chains, wb, www, report.ll, report.compact_mask, cd, cor3

    def check(self, op: OrderInput, result) -> None:
        classified, chains, wb, www, ll, compact, cd, cor3 = result
        up, n = op.up, len(op.up)
        for rc, _ in (classified, chains) + wb + www:
            expect(rc == 0, f"a poset or waybelow command exited {rc}")
        flags = json.loads(classified[1])
        for flag, value in oracle.classify(up).items():
            expect(flags[flag] == value, f"classify {flag}: {flags[flag]} != {value}")
        if op.kind == "chain":
            expect(flags["up_complete"] is True, "a finite chain is up-complete")
        _check_maximal_chains(up, json.loads(chains[1]))
        for (x, y), (rc, text) in zip(op.way_below, wb):
            expect(json.loads(text) == bool(up[x] >> y & 1), f"waybelow {x} {y} != ({x} <= {y})")
        rows = oracle.way_way_below(up)
        for (x, y), (rc, text) in zip(op.way_way_below, www):
            expect(json.loads(text) == bool(rows[x] >> y & 1), f"waybelow --www {x} {y}")
        expect(tuple(ll) == tuple(up), "way_below_report differs from <=")
        expect(compact == (1 << n) - 1, "some element of a finite poset is not compact")
        expect(cd == oracle.completely_distributive(up), "is_completely_distributive")
        if cor3 is not None:
            forced = {"cond1": False, "cond2": False, "order_dense": False, "conditionally_complete": True}
            expect(cor3 == forced, f"corollary3_report on a finite chain: {cor3}")


def _check_maximal_chains(up, chains) -> None:
    n = len(up)
    down = oracle.down_sets(up)
    masks = [sum(1 << x for x in c) for c in chains]
    expect(len(set(masks)) == len(masks), "maxchains repeats a chain")
    for m in masks:
        comparable_to_all = (1 << n) - 1
        for x in oracle.bits(m):
            comparable_to_all &= up[x] | down[x]
        expect(comparable_to_all & m == m, f"maxchains entry {oracle.bits(m)} is not a chain")
        expect(comparable_to_all == m, f"maxchains entry {oracle.bits(m)} is not maximal")
    count = oracle.maximal_chain_count(up)
    expect(len(masks) == count, f"{len(masks)} maximal chains listed, {count} cover paths")


WORKLOADS = {w.name: w for w in (SuiteWorkload(), TopologyWorkload(), OrderWorkload())}
