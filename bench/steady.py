"""Run every workload N times, each with its own seed, and summarise the spread.

    python3 bench/steady.py --runs 10 --seed 100 --save bench/_work/set1.json
    python3 bench/steady.py --runs 10 --seed 200 --save bench/_work/set2.json \
        --compare bench/_work/set1.json
    python3 bench/steady.py --runs 5 --workloads cli-check --seconds 30

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound in BENCHMARK.json.  A spread above a
third of the bound is marked ``wide``; ``setup_s`` is exempt, since its bound
applies only to the median.  With ``--compare`` it also prints how far each
median moved from the earlier set, marked ``worse`` when it worsened by more
than the bound.  It checks that the share of failed operations is the same in
every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], spec: dict, earlier: list[dict] | None) -> list[str]:
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = list(runs[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        line = f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}"
        metric = bounds.get(name)
        if metric:
            line += f"  bound {metric['bound']}"
            if name != "setup_s" and spread > metric["bound"] / 3:
                line += "  wide"
            if earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier)
                change = (med - old) / old
                worse = change if metric["better"] == "lower" else -change
                line += f"  moved {change:+.3f}" + ("  worse" if worse > metric["bound"] else "")
        lines.append(line)
    shares = {(r["failed"], r["attempted"]) for r in runs}
    ratios = {f / a for f, a in shares}
    lines.append(f"  failed/attempted: {sorted(shares)}" + ("" if len(ratios) == 1 else "  UNEQUAL"))
    if not all(r["correct"] for r in runs):
        lines.append("  INCORRECT output in some run")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="first seed; runs use seed, seed+1, ...")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            runs.append(run_once(workload, args.seed + k, args.seconds, args.trace))
            print(f"{workload} seed {args.seed + k}: done", file=sys.stderr, flush=True)
        results[workload] = runs
        print(workload)
        print("\n".join(summarise(runs, spec, earlier.get(workload))), flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
