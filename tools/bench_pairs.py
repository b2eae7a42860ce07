"""Paired benchmark runs of a parent checkout and this tree, summarised per metric.

    python3 tools/bench_pairs.py --parent ../parent --workload decide-generic --pairs 10
    python3 tools/bench_pairs.py --parent ../parent --workload cli-check --pairs 5 \\
        --out BENCH_2026-10.json
    python3 tools/bench_pairs.py --parent . --workload decide-generic --pairs 1 --smoke

``--parent DIR`` is another checkout of the repository, for example a ``git
clone`` of the parent commit.  Each pair runs ``bench/run.py`` (the command in
``BENCHMARK.json``) once in ``DIR`` and once in this tree, with the same
workload, seed and run length; the side that goes first alternates from pair
to pair, so that a drift of the machine's speed falls on both sides alike.
``--trace 1`` compares the per-layer metrics instead of the end-to-end ones,
and ``--smoke`` passes ``--smoke`` on (one round of the smallest inputs).

For each metric the summary gives both sides' median and quartiles, how many
pairs each side won (ties count for neither), and one of three readings:
``gain`` when the change won at least nine tenths of the pairs and its median
is better than the parent's by more than the parent's interquartile range,
``worse`` when its median is worse than the parent's by more than the bound
``BENCHMARK.json`` fixes for that metric, and ``-`` otherwise.  Per-layer
metrics have no bound, so they read ``gain`` or ``-``.

``--out FILE`` appends one record to the JSON list in ``FILE`` (made when
missing) before the summary is printed: the settings, every run's metrics and
outcome counts, the summary, the commit, ``src/`` line count and bytecode
folders of each side, and the machine's cores, BLAS library, its OpenBLAS
kernel (``unknown`` where numpy bundles no OpenBLAS that names it) and thread
count, whether ``PYTHONDONTWRITEBYTECODE`` is set for the runs, and numpy and
Python versions.
It exits with 1 when a run fails or reports wrong output.

A side whose ``src/`` holds compiled ``__pycache__`` files imports without
compiling, about twice as fast as a side that compiles ``src/`` at each start
(``PYTHONDONTWRITEBYTECODE`` set, no cache), so set-up and import times no
longer compare.  Such folders are warned of on stderr
before the runs and listed in the record; with the variable set and no folder,
both sides compile ``src/`` at each start (12-17 ms of a ``cli-check``
operation on one machine).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from blas_core import blas_core

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(side: Path, args) -> dict:
    """One ``bench/run.py`` result, run from ``side``."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {side}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _git(side: Path, *args: str) -> str | None:
    out = subprocess.run(["git", "-C", str(side), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _side_facts(side: Path) -> dict:
    """The commit a side is on, whether its ``src/`` differs from it, its line count, and the
    ``__pycache__`` folders under its ``src/`` that hold compiled files."""
    status = _git(side, "status", "--porcelain", "--", "src")
    lines = sum(len(p.read_text().splitlines()) for p in sorted((side / "src").rglob("*.py")))
    bytecode = sorted(str(p.relative_to(side)) for p in (side / "src").rglob("__pycache__")
                      if any(p.glob("*.pyc")))
    return {"commit": _git(side, "rev-parse", "HEAD"), "src_modified": bool(status),
            "src_lines": lines, "bytecode": bytecode}


def _machine() -> dict:
    """Cores, BLAS and its kernel, BLAS threads of the runs, whether the runs may write
    bytecode, and numpy and Python versions."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import BLAS_THREADS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = None
    if Path("/proc/cpuinfo").is_file():
        model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    return {"cores": os.cpu_count(), "cpu": model or platform.machine(),
            "blas": f"{blas['name']} {blas['version']}", "blas_core": blas_core(),
            "blas_threads": int(BLAS_THREADS),
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "numpy": np.__version__, "python": platform.python_version()}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Median, quartiles and wins of each metric, and its reading (module docstring)."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        quartiles = {side: np.percentile(v, [25, 50, 75]).tolist() for side, v in values.items()}
        deltas = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "change_wins": sum(d > 0 for d in deltas),
                 "parent_wins": sum(d < 0 for d in deltas)}
        for side, (q1, median, q3) in quartiles.items():
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        (p1, p50, p3), c50 = quartiles["parent"], quartiles["change"][1]
        gain = sign * (c50 - p50)
        entry["change_vs_parent"] = (c50 - p50) / p50 if p50 else None
        if entry["change_wins"] >= 0.9 * len(deltas) and gain > p3 - p1:
            entry["reading"] = "gain"
        elif "bound" in metric and -gain > metric["bound"] * abs(p50):
            entry["reading"] = "worse"
        else:
            entry["reading"] = "-"
        summary[name] = entry
    return summary


def _table(summary: dict, pairs: int) -> str:
    rows = [f"{'metric':<40} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
            f"{'change':>8} {'wins c/p':>9}  reading"]
    for name, e in summary.items():
        sides = [f"{e[s]['median']:.4g} [{e[s]['q1']:.4g}, {e[s]['q3']:.4g}]"
                 for s in ("parent", "change")]
        rel = "" if e["change_vs_parent"] is None else f"{100 * e['change_vs_parent']:+.1f}%"
        rows.append(f"{name:<40} {sides[0]:>34} {sides[1]:>34} {rel:>8} "
                    f"{e['change_wins']:>4}/{e['parent_wins']:<4}  {e['reading']}")
    rows.append(f"({pairs} pairs; wins count pairs where one side was strictly better)")
    return "\n".join(rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to bench/run.py")
    parser.add_argument("--out", type=Path, help="JSON list to append the record to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"--parent {args.parent} has no bench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    facts = {side: _side_facts(path) for side, path in sides.items()}
    for side, fact in facts.items():
        if fact["bytecode"]:
            print(f"warning: {side} side holds bytecode in {', '.join(fact['bytecode'])}; "
                  "its imports skip compiling, so set-up and import times may not compare",
                  file=sys.stderr)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            print(f"pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(_run(sides[side], args))
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    summary = summarise(runs, metrics)
    if args.out is not None:  # first, so a closed stdout loses no runs
        results = json.loads(args.out.read_text()) if args.out.is_file() else []
        results.append({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "pairs": args.pairs,
            "sides": facts,
            "machine": _machine(), "summary": summary, "runs": runs,
        })
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs"
          f"{', smoke' if args.smoke else ''}{', traced' if args.trace else ''}")
    print(_table(summary, args.pairs))
    bad = [r for side in runs.values() for r in side if not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
