"""Run one workload of the trischmidt benchmark and print its result.

    python3 bench/run.py --workload cli-check --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload decide-generic --seed 1 --trace 1
    python3 bench/run.py --workload decide-degenerate --seed 1 --smoke

Workloads (README.md says why each was chosen):

    cli-check          one ``python -m trischmidt check FILE`` process per operation
    decide-generic     one in-process ``check()`` per operation, distinct weights
    decide-degenerate  one in-process ``check()`` per operation, tied weights,
                       with two known faults counted as failed

Load comes from this one process, one operation at a time, in a closed loop
over whole rounds of the same inputs.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` runs the same rounds untraced and then traced and
prints the per-layer metrics.  ``--smoke`` runs one round of the smallest
inputs.  The last line of stdout is one JSON object; progress goes to stderr.
The program is taken from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# One BLAS thread: on two cores the default spread a 16^3 check over
# 0.32-0.41 s in five runs, one thread over 0.36-0.37 s.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many set-ups in one run.
SETUP_REPEATS = 5
# Fewest operations in a run.  The tail is the percentile that leaves ten
# samples beyond it at that count: p75 for cli-check, p99 for decide-*.
MIN_OPS = {"cli-check": 40, "decide-generic": 1000, "decide-degenerate": 1000}

def fresh_import_s() -> float:
    """Time of ``import trischmidt`` in a new interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "cli_runner.py"), "--import-only"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    return float(out.stdout)


class DecideOps:
    """Operations of ``decide-*``: one in-process ``tripartite.check`` each."""

    def __init__(self, cases, workdir):
        import cases as oracle
        from trischmidt import PureState, TrischmidtError, tripartite

        self.oracle, self.tripartite, self.error = oracle, tripartite, TrischmidtError
        # PureState copies its amplitudes.  The oracle reads that copy, and
        # each input leaves the given list as it is copied, so that every
        # input is held once and peak_rss_mb is mostly the program's memory.
        self.states, self.cases = [], []
        cases.reverse()
        while cases:
            case = cases.pop()
            state = PureState(case.dims, case.tensor)
            self.states.append(state)
            self.cases.append(dataclasses.replace(case, tensor=state.tensor))

    def write_inputs(self) -> None:
        """Nothing to write: ``check()`` takes the states in memory."""

    def warm_up(self) -> None:
        for state in self.states[:3]:
            try:
                self.tripartite.check(state)
            except self.error:
                pass

    def call(self, i: int, tracer):
        case = self.cases[i]
        start = time.perf_counter()
        try:
            # looked up per call, so that the tracer's wrapper is used once installed
            verdict = self.tripartite.check(self.states[i])
        except self.error as exc:
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if case.weights is None:
            problem = "accepted a provably undecomposable state" if verdict.decomposable else None
        elif not verdict.decomposable:
            problem = f"rejected a decomposable state (max_residual {verdict.max_residual:.3e})"
        else:
            d = verdict.decomposition
            problem = self.oracle.check_decomposition(case, d.weights, d.basis_a, d.basis_b, d.basis_c)
        return latency, problem

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliOps:
    """Operations of ``cli-check``: one ``python -m trischmidt check FILE`` each.

    Each output is checked for its exit code, verdict and weights, for spectra
    equal to the unfolding SVDs, and for stdout bytes equal on every pass.
    """

    def __init__(self, cases, workdir):
        import cases as oracle

        self.oracle = oracle
        self.cases = cases
        self.workdir = workdir
        self.paths = [workdir / f"{i:02d}-{case.label}.json" for i, case in enumerate(cases)]
        self.digests: dict[int, str] = {}
        self.max_rss_kb = 0

    def write_inputs(self) -> None:
        """The state files, in the CLI's JSON format."""
        for case, path in zip(self.cases, self.paths):
            self.oracle.write_state_file(case, path)

    def warm_up(self) -> None:
        subprocess.run(
            [sys.executable, "-m", "trischmidt", "check", str(self.paths[0])],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT,
        )

    def call(self, i: int, tracer):
        spans_path = self.workdir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "trischmidt", "check", str(self.paths[i])]
        else:
            cmd = [sys.executable, str(BENCH / "cli_runner.py"), "--spans", str(spans_path),
                   str(self.paths[i])]
        with open(self.workdir / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as handle:
                offset = len(tracer.spans)
                for span in json.load(handle)["spans"]:
                    if span[3] >= 0:
                        span[3] += offset
                    span[4] = tracer.op
                    tracer.spans.append(span)
        return latency, self.judge(i, proc.returncode, out, stderr)

    def judge(self, i: int, code: int, out: bytes, stderr: bytes) -> str | None:
        case = self.cases[i]
        want = 0 if case.weights is not None else 1
        if code != want or stderr:
            return f"exit code {code}, expected {want}; stderr {stderr[-200:]!r}"
        digest = hashlib.sha256(out).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            return "stdout bytes differ from an earlier pass"
        report = json.loads(out)
        if report["verdict"]["decomposable"] is not (case.weights is not None):
            return f"verdict {report['verdict']}"
        if case.weights is not None:
            weights = report["weights"]
            if len(weights) != case.weights.size:
                return f"{len(weights)} weights, expected {case.weights.size}"
            err = max(abs(a - b) for a, b in zip(weights, case.weights))
            if err > self.oracle.WEIGHT_ATOL:
                return f"weights off by {err:.3e}"
        return self.oracle.check_spectra(case, report["spectra"])

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024


class Pass:
    """Latencies and outcomes of whole rounds of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0


def measure(ops, seconds: float, min_ops: int, rounds: int | None = None, tracer=None) -> Pass:
    """Closed loop over whole rounds until ``rounds`` are done, or until both
    ``seconds`` have passed and ``min_ops`` operations were made."""
    result = Pass()
    start = time.perf_counter()
    while True:
        for i, case in enumerate(ops.cases):
            if tracer is not None:
                tracer.op = len(result.latencies)
            latency, problem = ops.call(i, tracer)
            result.latencies.append(latency)
            if problem is not None:
                result.failed += 1
                if case.fault is None:
                    result.problems.append(f"{case.label}: {problem}")
        result.rounds += 1
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif time.perf_counter() - start >= seconds and len(result.latencies) >= min_ops:
            return result


def run(args, workdir: Path) -> dict:
    import numpy as np  # only after the BLAS thread count is pinned

    import cases
    from spans import Tracer, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops_class = CliOps if args.workload == "cli-check" else DecideOps
    # A set-up is the import of trischmidt in a fresh interpreter, building
    # the inputs and a warm-up.  Writing the state files is the benchmark's
    # own I/O and is not timed; neither is the proof of the expected verdicts,
    # made once below.
    setup_s, import_s = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        ops = None  # the previous set-up's inputs go before new ones are built
        imported = fresh_import_s()
        start = time.perf_counter()
        ops = ops_class(cases.BUILDERS[args.workload](args.seed, smoke=args.smoke), workdir)
        built = time.perf_counter() - start
        ops.write_inputs()
        start = time.perf_counter()
        ops.warm_up()
        setup_s.append(imported + built + time.perf_counter() - start)
        import_s.append(imported)
    cases.prove_expectations(ops.cases)

    min_ops = 1 if args.smoke else MIN_OPS[args.workload]
    tail_pct = 100.0 * (1.0 - 10.0 / MIN_OPS[args.workload])
    if args.trace:
        # Untraced for half the time, then the same number of rounds traced.
        plain = measure(ops, args.seconds / 2, 1, rounds=1 if args.smoke else None)
        tracer = Tracer()
        if ops_class is DecideOps:
            tracer.install()
        traced = measure(ops, 0, 1, rounds=plain.rounds, tracer=tracer)
        passes = [plain, traced]
        n = len(traced.latencies)
        metrics = {"cli.import_s": statistics.median(import_s)}
        metrics.update(layer_metrics(tracer.spans, n))
        metrics["trace.overhead_s"] = (sum(traced.latencies) - sum(plain.latencies)) / n
        listed = spec["per_layer"]
        with open(WORK / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    else:
        result = measure(ops, args.seconds, min_ops, rounds=1 if args.smoke else None)
        passes = [result]
        lat = np.asarray(result.latencies)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": lat.size / float(lat.sum()),
            "latency_p50_s": float(np.percentile(lat, 50)),
            "latency_tail_s": float(np.percentile(lat, tail_pct)),
            "peak_rss_mb": ops.peak_rss_mb(),
        }
        listed = spec["end_to_end"]
        print(f"{args.workload}: {lat.size} ops in {result.rounds} rounds of "
              f"{len(ops.cases)}; tail is p{tail_pct:g}", file=sys.stderr)
    problems = [p for run_pass in passes for p in run_pass.problems]
    for problem in problems[:10]:
        print(f"wrong output: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of the smallest inputs, all checks on")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trischmidt" / "__init__.py").is_file():
        print(f"run.py: no trischmidt sources in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
