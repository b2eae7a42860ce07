"""Where the time of one ``trischmidt check FILE`` goes, from traced runs.

    python3 bench/breakdown.py
    python3 bench/breakdown.py --blas-threads 2

Writes one 32x32x32 Haar state file (seed 1), times ``python -m trischmidt
check`` on it (median of five runs), then runs the traced CLI runner as often
and prints the median time of each stage.  The benchmark pins one BLAS
thread; --blas-threads sets another count for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, SRC, THREAD_VARS, WORK
from spans import END, INFO, NAME, START, sum_spans

DIMS = (32, 32, 32)
SEED = 1
REPEATS = 5


def _stages(spans: list) -> dict[str, float]:
    out, own, _ = sum_spans(spans)
    out["cli.main (self)"] = own["cli.main"]
    largest = max(s[INFO] for s in spans if s[NAME] == "states.reduced_density")
    # spectrum_report builds rho_BC last and eigendecomposes it next
    names = [s[NAME] for s in spans]
    last = len(names) - 1 - names[::-1].index("linalg.hermitian_eigendecompose")
    out[f"eigensolve of the largest rho ({largest} rows)"] = spans[last][END] - spans[last][START]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blas-threads", default="1")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = args.blas_threads
    os.environ["PYTHONPATH"] = str(SRC)
    import numpy as np

    import cases

    rng = np.random.default_rng(SEED)
    z = rng.standard_normal(DIMS) + 1j * rng.standard_normal(DIMS)
    case = cases.Case("haar", z / np.linalg.norm(z), None)
    WORK.mkdir(exist_ok=True)
    path = WORK / "breakdown-state.json"
    spans_path = WORK / "breakdown-spans.json"
    cases.write_state_file(case, path)

    plain_cmd = [sys.executable, "-m", "trischmidt", "check", str(path)]
    traced_cmd = [sys.executable, str(BENCH / "cli_runner.py"), "--spans", str(spans_path), str(path)]
    subprocess.run(plain_cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
    walls, stages = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run(plain_cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
        walls.append(time.perf_counter() - start)
        subprocess.run(traced_cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
        traced = json.loads(spans_path.read_text())
        stage = _stages(traced["spans"])
        stage["import trischmidt"] = traced["import_s"]
        stages.append(stage)
    print(f"trischmidt check on {'x'.join(map(str, DIMS))}, {args.blas_threads} BLAS thread(s), "
          f"median of {REPEATS}:")
    print(f"  {'end to end (untraced)':48s} {statistics.median(walls):8.3f} s")
    for name in stages[0]:
        print(f"  {name:48s} {statistics.median(s[name] for s in stages):8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
