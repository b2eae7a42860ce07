"""Digest of trischmidt's answers on the benchmark's decision inputs, and a diff of two digests.

    python3 tools/verdict_digest.py --out change.jsonl
    python3 tools/verdict_digest.py --src ../parent/src --out parent.jsonl
    python3 tools/verdict_digest.py --compare parent.jsonl change.jsonl
    python3 tools/verdict_digest.py --seeds 1 --hashes > tests/golden/verdicts.sha256

The first form runs ``tripartite.check`` on every input of ``decide-generic``
and ``decide-degenerate`` (built by ``bench/cases.py``, which is only
imported) for each seed, and writes one JSON record per check: the
verdict, the ``degenerate`` flag, the exception type, ``slice_ranks``,
``repr(max_residual)``, the weights, an accepted check's ``weight_error``
(the largest deviation of its weights from the input's constructed
``Case.weights``), and SHA-256 digests of the bytes of the verdict's
analysis' ``pivot_basis`` and ``slice_values`` and of an accepted
decomposition's ``basis_a``, ``basis_b`` and ``basis_c`` together, so that
a change can show that it keeps the eigenbasis and the factor bases bit
for bit.  Seeds 1-8 give 1312 records.  ``--src`` picks the trischmidt sources to digest, so two
versions of the program can be compared on the same inputs.  One BLAS
thread is pinned, as in the benchmark, because the last bits depend on it.
``--hashes`` writes one line per record instead: its workload, seed,
input and label, and the SHA-256 of its JSON line, after a first line
``# blas_core NAME`` that names the OpenBLAS kernel the hashes hold on.
``tests/golden/verdicts.sha256`` holds these lines for seed 1, and a tier-1
test compares them with a fresh digest.
An ``Indeterminate`` is read through the verdict it carries; versions before
``Indeterminate.verdict`` carried ``analysis`` and ``max_residual`` instead,
so digest such a version with its own copy of this tool, not with ``--src``.

``--compare A B`` prints every record whose verdict, flag, exception type,
slice ranks, or presence or length of numbers differ (a verdict-level
difference), counts per input kind the records that agree on all of those
but differ in some digest or number (a bit-level difference), and gives the
largest deviation and count of changed values of the weights and of
``max_residual`` over every record pair with numbers on both sides.  Over the
record pairs with a ``weight_error`` on both sides it gives each side's largest
and counts the checks whose weights moved closer to or farther from the
constructed ones.  It exits with 1 when some record differs at either level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path

from blas_core import header

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decide-generic", "decide-degenerate")
VERDICT = ("label", "decomposable", "degenerate", "error", "slice_ranks")
DIGESTS = ("basis_sha256", "values_sha256", "bases_sha256")
# a record's answer, in the order ``_record`` writes it
FIELDS = ("decomposable", "degenerate", "error", "slice_ranks", "max_residual", "weights",
          "weight_error", "bases_sha256", "basis_sha256", "values_sha256")


def _hashes(analysis) -> dict:
    """SHA-256 of the bytes of the eigenbasis and the slice singular values."""
    return {f"{name}_sha256": hashlib.sha256(array.tobytes()).hexdigest()
            for name, array in (("basis", analysis.pivot_basis),
                                ("values", analysis.slice_values))}


def _bases_hash(decomposition):
    """SHA-256 of the bytes of an accepted decomposition's three factor bases."""
    if decomposition is None:
        return None
    h = hashlib.sha256()
    for basis in (decomposition.basis_a, decomposition.basis_b, decomposition.basis_c):
        h.update(basis.tobytes())
    return h.hexdigest()


def _weight_error(accepted, case):
    """Largest deviation of accepted weights from the constructed ones, when both have one per term."""
    if accepted is None or case.weights is None or accepted.weights.shape != case.weights.shape:
        return None
    return float(abs(accepted.weights - case.weights).max())


def _record(tripartite, errors, case, state) -> dict:
    error = None
    try:
        verdict = tripartite.check(state)
    except errors.Indeterminate as exc:
        verdict, error = exc.verdict, "Indeterminate"
    except errors.TrischmidtError as exc:
        return dict(dict.fromkeys(FIELDS), error=type(exc).__name__)
    accepted = verdict.decomposition if verdict.decomposable else None
    return dict(decomposable=verdict.decomposable, degenerate=verdict.degenerate, error=error,
                slice_ranks=list(verdict.analysis.slice_ranks),
                max_residual=repr(verdict.max_residual),
                weights=accepted.weights.tolist() if accepted else None,
                weight_error=_weight_error(accepted, case),
                bases_sha256=_bases_hash(accepted),
                **_hashes(verdict.analysis))


def hash_line(line: str) -> str:
    """The ``--hashes`` line of one record's JSON line."""
    r = json.loads(line)
    key = " ".join(str(r[f]) for f in ("workload", "seed", "input", "label"))
    return f"{key} {hashlib.sha256(line.encode()).hexdigest()}"


def digest(src: Path, seeds, out, hashes=False) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    if hashes:  # after the pin: loading OpenBLAS fixes its thread count
        out.write(header() + "\n")
    import cases
    from trischmidt import PureState, exceptions as errors, tripartite

    count = 0
    for workload in WORKLOADS:
        for seed in seeds:
            for index, case in enumerate(cases.BUILDERS[workload](seed)):
                state = PureState(case.dims, case.tensor)
                record = dict(workload=workload, seed=seed, input=index, label=case.label,
                              **_record(tripartite, errors, case, state))
                line = json.dumps(record)
                out.write((hash_line(line) if hashes else line) + "\n")
                count += 1
    return count


def _load(path) -> dict:
    with open(path) as f:
        records = [json.loads(line) for line in f]
    return {(r["workload"], r["seed"], r["input"]): r for r in records}


def _verdict_differs(ra: dict, rb: dict) -> bool:
    """Whether two records differ in anything but the bits of their numbers."""
    return (any(ra.get(f) != rb.get(f) for f in VERDICT)
            or (ra["max_residual"] is None) != (rb["max_residual"] is None)
            or (ra["weights"] is None) != (rb["weights"] is None)
            or len(ra["weights"] or ()) != len(rb["weights"] or ()))


def compare(path_a, path_b) -> int:
    a, b = _load(path_a), _load(path_b)
    keys = sorted(a.keys() | b.keys(), key=repr)
    mismatches = [k for k in keys if k not in a or k not in b or _verdict_differs(a[k], b[k])]
    for key in mismatches:
        ra, rb = a.get(key, {}), b.get(key, {})
        print("mismatch", key, {f: (ra.get(f), rb.get(f)) for f in (*VERDICT, "weights")})
    paired = [(a[k], b[k]) for k in keys if k in a and k in b]
    bits = Counter(
        ra["label"].split("-")[0] for ra, rb in paired
        if not _verdict_differs(ra, rb)
        and any(ra[f] != rb[f] for f in (*DIGESTS, "max_residual", "weights"))
    )
    weight_dev = residual_dev = 0.0
    weights_changed = residuals_changed = 0
    for ra, rb in paired:
        for x, y in zip(ra["weights"] or (), rb["weights"] or ()):
            weights_changed += x != y
            weight_dev = max(weight_dev, abs(x - y))
        if ra["max_residual"] is not None and rb["max_residual"] is not None:
            residuals_changed += ra["max_residual"] != rb["max_residual"]
            x, y = float(ra["max_residual"]), float(rb["max_residual"])
            residual_dev = max(residual_dev, abs(x - y))
    print(f"records: {len(a)} vs {len(b)}; verdict-level differences: {len(mismatches)}; "
          f"bit-level differences: {sum(bits.values())} {dict(sorted(bits.items()))}")
    print(f"weights: max deviation {weight_dev:.3g}, {weights_changed} values changed")
    print(f"max_residual: max deviation {residual_dev:.3g}, {residuals_changed} values changed")
    errors = [(ra["weight_error"], rb["weight_error"]) for ra, rb in paired
              if ra.get("weight_error") is not None and rb.get("weight_error") is not None]
    closer, farther = sum(y < x for x, y in errors), sum(y > x for x, y in errors)
    print(f"weight error against the constructed weights: max {max((x for x, _ in errors), default=0.0):.3g}"
          f" -> {max((y for _, y in errors), default=0.0):.3g}; closer in {closer}, farther in {farther}"
          f" of {len(errors)} accepted checks")
    return 1 if mismatches or bits else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two digests")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the trischmidt package (default: src/)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 9)))
    parser.add_argument("--out", help="digest file (default: stdout)")
    parser.add_argument("--hashes", action="store_true",
                        help="write one line per record: workload, seed, input, label, SHA-256")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.src / "trischmidt" / "__init__.py").is_file():
        parser.error(f"no trischmidt sources in {args.src}")
    if args.out is None:
        count = digest(args.src.resolve(), args.seeds, sys.stdout, args.hashes)
    else:
        with open(args.out, "w") as out:
            count = digest(args.src.resolve(), args.seeds, out, args.hashes)
    print(f"{count} records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
