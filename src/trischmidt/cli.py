"""Command-line surface: state generation, file I/O, analysis reports.

State files are JSON documents ``{"dims": [..], "amplitudes": [[re, im], ..]}``
with amplitudes row-major, first index slowest.  Reports are JSON on
stdout; errors go to stderr.  All numbers are serialized with 17
significant digits so a report round-trips doubles losslessly.

Commands::

    trischmidt gen {ghz,w,product,schmidt,haar} --dims 2,2,2 [--weights ..] [--seed N]
    trischmidt check STATEFILE
    trischmidt spectra STATEFILE
    trischmidt decompose-bipartite STATEFILE

Exit codes: 0 decomposable / success, 1 not decomposable, 2 indeterminate
(degenerate refinement failed), 64 usage error, 65 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, generate
from .bipartite import entanglement_entropy, entropy_bits, schmidt_decompose
from .exceptions import Indeterminate, TrischmidtError
from .linalg import Tolerances
from .states import PureState, validate
from .tripartite import PARTY_NAMES, check, spectrum_report

EXIT_DECOMPOSABLE = 0
EXIT_NOT_DECOMPOSABLE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

_GEN_KINDS = ("ghz", "w", "product", "schmidt", "haar")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the
    # indeterminate verdict; remap to the documented usage code.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _format_number(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return format(float(x), ".17g")


def _dump_json(obj) -> str:
    """Serialize with 17-significant-digit floats and stable key order."""
    pieces: list[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_number(float(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _pairs(values: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def state_payload(state: PureState) -> dict:
    return {"dims": list(state.dims), "amplitudes": _pairs(state.amplitudes)}


def parse_state_payload(payload) -> PureState:
    if not isinstance(payload, dict):
        raise TrischmidtError("state file must be a JSON object")
    missing = {"dims", "amplitudes"} - set(payload)
    if missing:
        raise TrischmidtError(f"state file is missing keys: {sorted(missing)}")
    dims = payload["dims"]
    amplitudes = payload["amplitudes"]
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise TrischmidtError("dims must be a list of integers")
    try:
        amps = np.array([complex(re, im) for re, im in amplitudes], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise TrischmidtError(f"amplitudes must be [re, im] pairs: {exc}") from exc
    return PureState(tuple(dims), amps)


def load_state_file(path: str) -> PureState:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrischmidtError(f"invalid JSON in state file: {exc}") from exc
    return parse_state_payload(payload)


def _tolerances(args) -> Tolerances:
    return Tolerances(
        rank_rel=args.tol_rank, degen_rel=args.tol_degen, recon_abs=args.tol_recon
    )


def _tool_section() -> dict:
    return {"name": "trischmidt", "version": __version__, "rng": generate.RNG_NAME}


def _tolerance_section(tol: Tolerances) -> dict:
    return {
        "rank_rel": tol.rank_rel,
        "degen_rel": tol.degen_rel,
        "recon_abs": tol.recon_abs,
    }


def _spectra_sections(state: PureState, tol: Tolerances) -> tuple[dict, dict, dict]:
    report = spectrum_report(state, tol)
    single = {"A": report.spectrum_a, "B": report.spectrum_b, "C": report.spectrum_c}
    spectra = {name: [float(x) for x in s] for name, s in single.items()}
    spectra["BC"] = [float(x) for x in report.spectrum_bc]
    flags = {
        "A_B": report.equal_ab,
        "A_C": report.equal_ac,
        "B_C": report.equal_bc,
        "A_BC": report.equal_a_bc,
    }
    entropies = {name: entropy_bits(s, tol) for name, s in single.items()}
    return spectra, flags, entropies


def _check_payload(state: PureState, tol: Tolerances, all_pivots: bool) -> tuple[dict, int]:
    try:
        verdict = check(state, tol)
        decomposable: bool | None = verdict.decomposable
        degenerate = verdict.degenerate
        indeterminate = False
        residual = verdict.max_residual
        weights = (
            [float(w) for w in verdict.decomposition.weights] if verdict.decomposition else None
        )
        pivot = verdict.analysis.pivot_party
    except Indeterminate as exc:
        decomposable = None
        degenerate = True
        indeterminate = True
        residual = exc.max_residual
        weights = None
        pivot = exc.analysis.pivot_party if exc.analysis is not None else 0
    spectra, flags, entropies = _spectra_sections(state, tol)
    payload = {
        "tool": _tool_section(),
        "tolerances": _tolerance_section(tol),
        "dims": list(state.dims),
        "pivot_party": PARTY_NAMES[pivot],
        "verdict": {
            "decomposable": decomposable,
            "degenerate": degenerate,
            "indeterminate": indeterminate,
            "max_residual": residual,
        },
        "weights": weights,
        "spectra": spectra,
        "spectrum_equal": flags,
        "entropy_bits": entropies,
    }
    if all_pivots:
        payload["all_pivots"] = {
            PARTY_NAMES[p]: _pivot_verdict(state, tol, p) for p in range(3)
        }
    if indeterminate:
        code = EXIT_INDETERMINATE
    elif decomposable:
        code = EXIT_DECOMPOSABLE
    else:
        code = EXIT_NOT_DECOMPOSABLE
    return payload, code


def _pivot_verdict(state: PureState, tol: Tolerances, pivot: int) -> dict:
    if state.dims[pivot] == 1:
        # a trivial party has a single slice (the whole state); the
        # per-party rank-one criterion is meaningless there
        return {"decomposable": None, "max_residual": None, "slice_ranks": None}
    try:
        verdict = check(state, tol, pivot=pivot)
        return {
            "decomposable": verdict.decomposable,
            "max_residual": verdict.max_residual,
            "slice_ranks": list(verdict.analysis.slice_ranks),
        }
    except Indeterminate as exc:
        return {
            "decomposable": None,
            "max_residual": exc.max_residual,
            "slice_ranks": list(exc.analysis.slice_ranks) if exc.analysis else None,
        }


def _cmd_gen(args) -> int:
    dims = tuple(args.dims)
    kind = args.kind
    if kind in ("haar", "schmidt") and args.seed is None:
        print(f"trischmidt gen: error: --seed is required for kind '{kind}'", file=sys.stderr)
        return EXIT_USAGE
    if kind == "schmidt" and args.weights is None:
        print("trischmidt gen: error: --weights is required for kind 'schmidt'", file=sys.stderr)
        return EXIT_USAGE
    if kind == "ghz":
        state = generate.ghz_state(dims)
    elif kind == "w":
        state = generate.w_state(dims)
    elif kind == "product":
        state = generate.product_state(dims)
    elif kind == "schmidt":
        state = generate.schmidt_state(dims, args.weights, args.seed)
    else:
        state = generate.haar_state(dims, args.seed)
    text = _dump_json(state_payload(state)) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_DECOMPOSABLE


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    state = validate(load_state_file(args.input), tol)
    if state.n_parties != 3:
        raise TrischmidtError("check requires a tripartite state (3 dims)")
    payload, code = _check_payload(state, tol, args.all_pivots)
    sys.stdout.write(_dump_json(payload) + "\n")
    return code


def _cmd_spectra(args) -> int:
    tol = _tolerances(args)
    state = validate(load_state_file(args.input), tol)
    if state.n_parties != 3:
        raise TrischmidtError("spectra requires a tripartite state (3 dims)")
    spectra, flags, entropies = _spectra_sections(state, tol)
    payload = {
        "tool": _tool_section(),
        "tolerances": _tolerance_section(tol),
        "dims": list(state.dims),
        "spectra": spectra,
        "spectrum_equal": flags,
        "entropy_bits": entropies,
    }
    sys.stdout.write(_dump_json(payload) + "\n")
    return EXIT_DECOMPOSABLE


def _cmd_decompose_bipartite(args) -> int:
    tol = _tolerances(args)
    state = validate(load_state_file(args.input), tol)
    if state.n_parties != 2:
        raise TrischmidtError("decompose-bipartite requires a bipartite state (2 dims)")
    matrix = state.tensor
    sd = schmidt_decompose(matrix, tol)
    payload = {
        "tool": _tool_section(),
        "tolerances": _tolerance_section(tol),
        "dims": list(state.dims),
        "coefficients": [float(c) for c in sd.coefficients],
        "left_basis": [_pairs(sd.left_basis[:, i]) for i in range(sd.coefficients.size)],
        "right_basis": [_pairs(sd.right_basis[:, i]) for i in range(sd.coefficients.size)],
        "input_norm": sd.input_norm,
        "entropy_bits": entanglement_entropy(matrix, tol),
    }
    sys.stdout.write(_dump_json(payload) + "\n")
    return EXIT_DECOMPOSABLE


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers: {exc}")
    if not dims:
        raise argparse.ArgumentTypeError("dims must not be empty")
    return dims


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"weights must be comma-separated numbers: {exc}")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=1e-10, metavar="X",
                        help="relative zero cutoff for spectra (default 1e-10)")
    common.add_argument("--tol-degen", type=float, default=1e-8, metavar="X",
                        help="relative eigenvalue-equality threshold (default 1e-8)")
    common.add_argument("--tol-recon", type=float, default=1e-10, metavar="X",
                        help="absolute reconstruction/normalization threshold (default 1e-10)")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="seed for the numpy-pcg64 generator (haar/schmidt)")
    common.add_argument("--all-pivots", action="store_true",
                        help="also report per-party verdicts (equal-dimension mode)")

    parser = _Parser(prog="trischmidt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trischmidt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a state file")
    p_gen.add_argument("kind", choices=_GEN_KINDS)
    p_gen.add_argument("--dims", type=_parse_dims, required=True, metavar="D1,D2[,D3]")
    p_gen.add_argument("--weights", type=_parse_weights, default=None, metavar="W1,W2,..",
                       help="positive weights for kind 'schmidt' (normalized to sum 1)")
    p_gen.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="write the state file here instead of stdout")

    p_check = sub.add_parser("check", parents=[common],
                             help="test a tripartite state for a Schmidt decomposition")
    p_check.add_argument("input", help="state file path, or - for stdin")

    p_spec = sub.add_parser("spectra", parents=[common],
                            help="reduced-density spectra and equality flags")
    p_spec.add_argument("input", help="state file path, or - for stdin")

    p_bi = sub.add_parser("decompose-bipartite", parents=[common],
                          help="Schmidt coefficients, bases and entropy of a bipartite state")
    p_bi.add_argument("input", help="state file path, or - for stdin")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "spectra": _cmd_spectra,
        "decompose-bipartite": _cmd_decompose_bipartite,
    }
    try:
        return handlers[args.command](args)
    except Indeterminate as exc:
        print(f"trischmidt {args.command}: indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (TrischmidtError, ValueError, OSError) as exc:
        print(f"trischmidt {args.command}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
