"""Run one chaintop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload topology --seed 0 --seconds 36 --trace 0

Run from the root of a chaintop source tree.  The process imports
``chaintop`` from ``src``, generates the seeded inputs and runs a closed
loop of one client over whole rounds of ops until the time spent in ops
reaches ``--seconds``; every op's output is checked outside the timed
region.  Up to twenty times over the run, between rounds, a fresh
interpreter is started that imports ``chaintop`` and generates and writes
the inputs; the median of these start-to-ready times is ``setup_s``.  Op and
set-up times are scaled to a reference host speed sampled while they run
(see ``hostspeed.py``); the wall times go to the result file in ``out/``.
With ``--trace 1`` it runs a fixed number of rounds twice, alternately
untraced and traced, in wall time, and reports the per-layer metrics of the
traced rounds.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import tracing
from workloads import WORKLOADS, CheckFailed, OpFailed, Session

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# set-up samples per run, one each time another twentieth of the run is
# spent; a sample now and then takes half as long again as the rest, and the
# median of ten moved by a fifth from run to run even while ops held steady
SETUP_SAMPLES = 20
# how a check fails: a wrong answer, or an output too malformed to read
CHECK_ERRORS = (CheckFailed, ValueError, LookupError, TypeError)
# the tail is p75, reported only by a run of at least 40 ops, so that ten
# ops or more lie beyond it
TAIL_PCT, TAIL_MIN_OPS = 75, 40


# one set-up in a fresh interpreter: import chaintop, then generate and write
# the inputs, with the host's speed sampled from its first statement on (the
# interpreter's start-up before it is scaled by the same share); prints the monotonic
# clock when ready for the first op, the time spent in probes and the mean
# share of the reference speed
SETUP_CHILD = """
import sys, time
src, bench, name, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, bench]
import hostspeed
sampler = hostspeed.Sampler().__enter__()
from pathlib import Path
import chaintop.cli
from workloads import WORKLOADS
Path(workdir).mkdir(parents=True)
WORKLOADS[name].make_inputs(int(seed), Path(workdir))
ready = time.monotonic()
sampler.__exit__()
inside = sampler.overhead_ns / 1e9
print(ready, inside, sampler.share())
"""


def import_chaintop():
    """Import chaintop (from ``src`` once it is first on ``sys.path``)."""
    cli = importlib.import_module("chaintop.cli")
    return SimpleNamespace(
        cli=cli,
        formats=sys.modules["chaintop.formats"],
        relations=sys.modules["chaintop.relations"],
        topology=sys.modules["chaintop.topology"],
    )


def setup_seconds(workload, seed: int, workdir: Path) -> tuple[float, float]:
    """Time one set-up from the start of a fresh interpreter to the first op:
    (at the reference speed, wall time)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(BENCH), workload.name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr}")
    shutil.rmtree(workdir)
    ready, overhead, share = map(float, proc.stdout.split()[-3:])
    return (ready - t0 - overhead) * share, ready - t0


class Runner:
    """Runs rounds of ops, timing each op and checking its output after.

    With a sampler, ``latencies_ns`` are at the reference host speed and
    ``wall_ns`` keeps the wall times; without one both are wall times.
    ``spent_ns``, which bounds the run, is always wall time."""

    def __init__(self, workload, session: Session, sampler: hostspeed.Sampler | None = None):
        self.workload = workload
        self.session = session
        self.sampler = sampler
        self.latencies_ns: list[float] = []
        self.wall_ns: list[int] = []
        self.spent_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, index: int, pool, tracer=None) -> None:
        for op in pool[index % len(pool)]:
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            try:
                result, dt, scaled = self.timed(op)
            except Exception as exc:
                self.failed += 1
                if not isinstance(exc, OpFailed):
                    traceback.print_exc(file=sys.stderr)
                self.problem(f"op failed: {exc}")
                continue
            self.wall_ns.append(dt)
            self.latencies_ns.append(scaled)
            try:
                self.workload.check(op, result)
            except CHECK_ERRORS as exc:
                self.problem(f"check failed: {exc!r}")

    def timed(self, op):
        """Run one op: (result, wall ns, ns at the reference speed)."""
        with self.sampler or contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            try:
                result = self.workload.run(self.session, op)
            finally:
                dt = time.perf_counter_ns() - t0
                self.spent_ns += dt
        return result, dt, self.sampler.scaled_ns(dt) if self.sampler else dt

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
            print(f"{self.workload.name}: {message}", file=sys.stderr)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies_ns) / 1e6


def end_to_end(runner: Runner, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(runner.latencies_ns) / (sum(runner.latencies_ns) / 1e9),
        "op_p50_ms": runner.p50_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail_ms(runner: Runner):
    """The p75 op latency, or None for a run of fewer than 40 ops."""
    if len(runner.latencies_ns) < TAIL_MIN_OPS:
        return None
    return statistics.quantiles(runner.latencies_ns, n=100, method="inclusive")[TAIL_PCT - 1] / 1e6


def per_layer(names, tracer: tracing.Tracer, session_chars: int, ops: int) -> dict:
    totals = tracer.totals()
    totals["cli.stdout_kb"] = session_chars / 1000
    out = {}
    for name in names:
        if name.startswith("suite.claim_ms."):
            key = "suite.claim." + name.removeprefix("suite.claim_ms.") + ".ms"
        else:
            key = name
        out[name] = totals.get(key, 0) / ops
    return out


def check_layer_names(names) -> None:
    """Refuse a per-layer metric name that no wrapper or counter can produce."""
    counters = {"cli.stdout_kb", "poset.directed_subsets", "topology.opens", "separating.cuts", "suite.instances"}
    for name in names:
        layer, _, rest = name.partition(".")
        if name in counters or (rest == "self_ms" and layer in tracing.LAYERS):
            continue
        if name.startswith("suite.claim_ms."):
            continue
        fn, _, kind = rest.rpartition(".")
        mod = sys.modules.get(f"chaintop.{layer}")
        known = mod is not None and (hasattr(mod, fn) or layer == "chains" and fn in tracing.CHAIN_METHODS)
        if kind not in ("ms", "calls") or not known:
            raise SystemExit(f"unknown per-layer metric {name!r}")


def measure(workload, runner: Runner, pool, seconds: float, seed: int) -> tuple[dict, list]:
    """Whole rounds until the time spent in ops reaches ``seconds``, with
    set-up samples spread over the run, so that they meet the same changes
    of the host's speed as the ops."""
    setup_workdir = OUT / f"setup-{workload.name}-{seed}-{os.getpid()}"
    setups: list[tuple[float, float]] = []
    i = 0
    while runner.spent_ns < seconds * 1e9:
        if len(setups) * seconds * 1e9 / SETUP_SAMPLES <= runner.spent_ns:
            setups.append(setup_seconds(workload, seed, setup_workdir))
        runner.round(i, pool)
        i += 1
    t = tail_ms(runner)
    print(
        f"{workload.name}: {len(runner.latencies_ns)} ops, op_p50_ms {runner.p50_ms():.1f}, "
        + (f"op_tail_ms (p{TAIL_PCT}) {t:.1f}" if t else f"no op_tail_ms (under {TAIL_MIN_OPS} ops)")
    )
    return end_to_end(runner, statistics.median(s for s, _ in setups)), setups


def trace(workload, runner: Runner, traced: Runner, pool, seconds: float, names) -> tuple[dict, tracing.Tracer]:
    """The same fixed rounds untraced and traced, alternating round by round
    so that both meet the same changes of the host's speed; per-layer
    metrics per traced op."""
    rounds = max(1, round(seconds / 2 / workload.nominal_round_s))
    check_layer_names(names)
    tracer = tracing.Tracer()
    chars = 0
    for i in range(rounds):
        runner.round(i, pool)
        chars0 = traced.session.stdout_chars
        tracer.install()
        try:
            traced.round(i, pool, tracer)
        finally:
            tracer.uninstall()
        chars += traced.session.stdout_chars - chars0
    print(
        f"{workload.name}: tracing overhead {traced.p50_ms() / runner.p50_ms():.3f} "
        f"(traced op_p50_ms {traced.p50_ms():.1f} / untraced {runner.p50_ms():.1f}, {rounds} rounds each)"
    )
    return per_layer(names, tracer, chars, len(traced.latencies_ns)), tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chaintop" / "__init__.py").is_file():
        print(f"error: no chaintop sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    mods = import_chaintop()
    pool = workload.make_inputs(args.seed, workdir)
    if not Path(mods.cli.__file__).resolve().is_relative_to(src):
        print(f"error: chaintop was imported from {mods.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    session = Session(mods, workdir)

    runners = [Runner(workload, session)]
    tracer = None
    setups: list = []  # (scaled, wall) set-up samples, taken only by untraced runs
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        runners.append(Runner(workload, session))
        metrics, tracer = trace(workload, *runners, pool, args.seconds, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runners[0].sampler = hostspeed.Sampler()
        metrics, setups = measure(workload, runners[0], pool, args.seconds, args.seed)

    if hasattr(workload, "check_once"):
        try:
            workload.check_once(session, pool)
        except (OpFailed, *CHECK_ERRORS) as exc:
            runners[0].problem(f"check failed: {exc!r}")

    result = {
        "correct": not any(r.problems for r in runners),
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = dict(
        result, setups_s=setups, latencies_ns=[r.latencies_ns for r in runners], wall_ns=[r.wall_ns for r in runners]
    )
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail))
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
