"""Steadiness check: rerun each workload on several seeds and print every
end-to-end metric's median and quartile spread beside its bound.

    python3 perfbench/steady.py --save perfbench/out/steady-a.json
    python3 perfbench/steady.py --first-seed 100 --against perfbench/out/steady-a.json

Every workload in BENCHMARK.json runs on ten consecutive seeds.  The spread
is (q3 - q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``.  It must stay within the metric's
bound and is steady below a third of it.  With
``--against`` each median is also compared with an earlier set's: it may be
worse by at most the bound ("vs earlier" is the share by which it is worse).  Each run is its own
process, one after another.  Exits 1 when a bound is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--save", type=Path, help="write the values of this set as JSON")
    parser.add_argument("--against", type=Path, help="an earlier set saved with --save")
    args = parser.parse_args()

    earlier = json.loads(args.against.read_text()) if args.against else {}
    results: dict = {}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(run_once(workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        results[workload] = {"failed_share": shares, "correct": correct}
        print(f"\n{workload}: {RUNS} runs, correct {correct}, failed share {shares}")
        print(f"  {'metric':12s} {'median':>10s} {'spread':>7s} {'bound':>6s}  {'vs earlier':>10s}")
        ok &= correct and len(shares) == 1
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            results[workload][name] = values
            median, s = spread(values)
            verdict = "steady" if s < bound / 3 else "within" if s <= bound else "OVER"
            ok &= verdict != "OVER"
            drift = ""
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (median - before) / before * (1 if m["better"] == "lower" else -1)
                drift = f"{worse:+.3f}"
                if worse > bound:
                    drift += " OVER"
                    ok = False
            print(f"  {name:12s} {median:10.4f} {s:7.3f} {bound:6.2f}  {drift:>10s}  {verdict}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
