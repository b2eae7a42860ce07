"""Golden matrix of trischmidt's command-line answers, and a diff of two matrices.

    python3 tools/cli_golden.py --out change.jsonl
    python3 tools/cli_golden.py --src ../parent/src --out parent.jsonl
    python3 tools/cli_golden.py --compare parent.jsonl change.jsonl

The first form writes a fixed set of state files, built with plain numpy
from fixed seeds, into a temporary directory: 24 three-party states (Haar,
GHZ, W, product, distinct and tied weights, a 1e-7 weight gap, the
antisymmetric state and a|000>+b|101>), five bad files (not normalised,
the JSON literal ``NaN``, truncated, an amplitude that is a 401-digit
integer, arrays nested 100 000 deep) and five two-party states (Bell and
Haar up to 2x4096).  It then runs ``check``, ``check --all-pivots`` and
``spectra`` on the three-party and bad files, and ``decompose-bipartite``
on the two-party files, plus five valid ``gen`` runs (ghz, w, product,
schmidt and haar, seeded where the kind takes a seed) that pin the bytes of
generated state files.  Each run is its own ``python -m trischmidt`` process
with one BLAS thread, and writes one JSON record: the command, the exit
code, the SHA-256 of stdout and of stderr, and stdout itself.
``--src`` picks the trischmidt sources to run, so two versions of the
program can be compared on the same files.

``--compare A B`` prints every run whose exit code, stdout or stderr
differs; for a JSON stdout it names the top-level keys whose numbers or
values changed, how many numbers changed and the largest absolute
deviation.  It exits with 1 when some run differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREE_PARTY_COMMANDS = (("check",), ("check", "--all-pivots"), ("spectra",))
GEN_RUNS = (
    ("gen", "ghz", "--dims", "3,3,3"),
    ("gen", "w", "--dims", "2,2,2"),
    ("gen", "product", "--dims", "2,3,4"),
    ("gen", "schmidt", "--dims", "3,4,5", "--weights", "0.5,0.3,0.2", "--seed", "42"),
    ("gen", "haar", "--dims", "4,4,4", "--seed", "7"),
)


def _normalised(t: np.ndarray) -> np.ndarray:
    return t / np.linalg.norm(t)


def _haar(dims, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((2, *dims))
    return _normalised(g[0] + 1j * g[1])


def _unitary(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _schmidt(dims, weights, seed: int) -> np.ndarray:
    """sum_i sqrt(w_i) a_i (x) b_i (x) c_i over columns of Haar unitaries, weights normalised."""
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    a, b, c = (_unitary(d, rng)[:, : len(w)] for d in dims)
    return np.einsum("i,ai,bi,ci->abc", np.sqrt(w), a, b, c)


def _basis_sum(dims, terms) -> np.ndarray:
    t = np.zeros(dims, dtype=complex)
    for index, amplitude in terms:
        t[index] = amplitude
    return _normalised(t)


def _ghz(d: int) -> np.ndarray:
    return _basis_sum((d, d, d), [((i, i, i), 1.0) for i in range(d)])


def _w(d: int) -> np.ndarray:
    return _basis_sum((d, d, d), [((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0)])


def _product(dims, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a, b, c = (_unitary(d, rng)[:, 0] for d in dims)
    return np.einsum("a,b,c->abc", a, b, c)


def _antisymmetric() -> np.ndarray:
    terms = [((i, j, k), float(np.linalg.det(np.eye(3)[[i, j, k]])))
             for i in range(3) for j in range(3) for k in range(3) if len({i, j, k}) == 3]
    return _basis_sum((3, 3, 3), terms)


def three_party_states() -> dict[str, np.ndarray]:
    haar = [(2, 2, 2), (2, 3, 4), (5, 2, 2), (1, 3, 4), (3, 1, 4), (7, 2, 3), (3, 5, 5),
            (16, 16, 16), (1, 1, 5), (4, 4, 4)]
    states = {f"haar-{'x'.join(map(str, d))}": _haar(d, 100 + i) for i, d in enumerate(haar)}
    states["ghz-3x3x3"] = _ghz(3)
    states["w-2x2x2"] = _w(2)
    states["w-3x3x3"] = _w(3)
    states["product-3x4x5"] = _product((3, 4, 5), 200)
    for i, d in enumerate([(4, 5, 6), (8, 8, 8), (1, 3, 4), (12, 12, 12), (20, 20, 20)]):
        states[f"distinct-{'x'.join(map(str, d))}"] = _schmidt(d, np.arange(min(d), 0, -1), 300 + i)
    states["tied-6x7x8"] = _schmidt((6, 7, 8), [0.3, 0.3, 0.2, 0.2], 400)
    states["tied-3x3x3"] = _schmidt((3, 3, 3), [1.0, 1.0, 1.0], 401)
    states["gap1e-7-3x5x5"] = _schmidt((3, 5, 5), [0.4, 0.4 - 1e-7, 0.2 + 1e-7], 402)
    states["antisym-3x3x3"] = _antisymmetric()
    states["a000-b101-2x2x2"] = _basis_sum((2, 2, 2), [((0, 0, 0), 0.6), ((1, 0, 1), 0.8)])
    return states


def two_party_states() -> dict[str, np.ndarray]:
    states = {"bell-2x2": _basis_sum((2, 2), [((0, 0), 1.0), ((1, 1), 1.0)])}
    for i, d in enumerate([(3, 5), (16, 64), (64, 16), (2, 4096)]):
        states[f"haar-{d[0]}x{d[1]}"] = _haar(d, 500 + i)
    return states


def _payload(t: np.ndarray) -> dict:
    flat = t.reshape(-1)
    return {"dims": list(t.shape),
            "amplitudes": [[float(z.real), float(z.imag)] for z in flat]}


def write_inputs(directory: Path) -> tuple[list[str], list[str]]:
    """Write every state file; return the three-party and the two-party file names."""
    three, two = [], []
    for names, states in ((three, three_party_states()), (two, two_party_states())):
        for label, t in states.items():
            name = f"{label}.json"
            (directory / name).write_text(json.dumps(_payload(t)) + "\n")
            names.append(name)
    valid = json.dumps(_payload(_ghz(2)))
    unnormalised = _payload(np.ones((2, 2, 2), dtype=complex))
    nan = _payload(_ghz(2))
    nan["amplitudes"][0][0] = float("nan")
    hostile = '{"dims": [1, 1, 1], "amplitudes": %s}'
    bad = {"bad-unnormalised.json": json.dumps(unnormalised),
           "bad-nan.json": json.dumps(nan),  # json writes the literal NaN
           "bad-truncated.json": valid[: len(valid) // 2],
           "bad-overflow.json": hostile % ("[[1" + "0" * 400 + ", 0]]"),
           "bad-deep.json": hostile % ("[" * 100_000 + "]" * 100_000)}
    for name, text in bad.items():
        (directory / name).write_text(text + "\n")
        three.append(name)
    return three, two


def _run(src: Path, directory: Path, args: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "trischmidt", *args], cwd=directory,
                          env=env, capture_output=True)
    return dict(run=" ".join(args), exit=proc.returncode,
                stdout_sha256=hashlib.sha256(proc.stdout).hexdigest(),
                stderr_sha256=hashlib.sha256(proc.stderr).hexdigest(),
                stdout=proc.stdout.decode("utf-8", errors="replace"))


def golden(src: Path, out) -> int:
    count = 0
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as tmp:
        directory = Path(tmp)
        three, two = write_inputs(directory)
        runs = [(*cmd, name) for name in three for cmd in THREE_PARTY_COMMANDS]
        runs += [("decompose-bipartite", name) for name in two]
        runs += GEN_RUNS
        for args in runs:
            out.write(json.dumps(_run(src, directory, args)) + "\n")
            count += 1
    return count


def _load(path) -> dict:
    with open(path) as f:
        return {r["run"]: r for r in map(json.loads, f)}


def _leaves(obj, path=()):
    """(path, value) of every scalar in a JSON tree."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, (*path, i))
    else:
        yield path, obj


def _json_diff(a: str, b: str) -> str:
    """Changed top-level keys, changed numbers and their largest deviation, or ''."""
    try:
        la, lb = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    except json.JSONDecodeError:
        return ""
    keys, changed, deviation = set(), 0, 0.0
    for path in la.keys() | lb.keys():
        x, y = la.get(path), lb.get(path)
        if x == y and type(x) is type(y):
            continue
        keys.add(str(path[0]) if path else "")
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numbers:
            changed += 1
            deviation = max(deviation, abs(x - y))
    return f"keys {sorted(keys)}; {changed} numbers changed, max |deviation| {deviation:.3g}"


def compare(path_a, path_b) -> int:
    a, b = _load(path_a), _load(path_b)
    runs = list(a) + [r for r in b if r not in a]
    differing = 0
    for run in runs:
        ra, rb = a.get(run), b.get(run)
        if ra is None or rb is None:
            print(f"{run}: only in {'B' if ra is None else 'A'}")
            differing += 1
            continue
        fields = [f for f in ("exit", "stdout_sha256", "stderr_sha256") if ra[f] != rb[f]]
        if not fields:
            continue
        differing += 1
        detail = f"exit {ra['exit']} vs {rb['exit']}; " if "exit" in fields else ""
        if "stdout_sha256" in fields:
            detail += _json_diff(ra["stdout"], rb["stdout"]) or "stdout differs"
        print(f"{run}: {', '.join(fields)} differ; {detail}")
    print(f"runs: {len(a)} vs {len(b)}; differing runs: {differing}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two golden files")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the trischmidt package (default: src/)")
    parser.add_argument("--out", help="golden file (default: stdout)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.src / "trischmidt" / "__init__.py").is_file():
        parser.error(f"no trischmidt sources in {args.src}")
    if args.out is None:
        count = golden(args.src.resolve(), sys.stdout)
    else:
        with open(args.out, "w") as out:
            count = golden(args.src.resolve(), out)
    print(f"{count} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
