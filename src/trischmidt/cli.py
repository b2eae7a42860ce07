"""Command-line surface: state generation, file I/O, analysis reports.

State files are JSON documents ``{"dims": [..], "amplitudes": [[re, im], ..]}``
with amplitudes row-major, first index slowest.  Reports are JSON on
stdout; errors go to stderr.  All numbers are serialized with 17
significant digits so a report round-trips doubles losslessly.

``python -m trischmidt`` and the ``trischmidt`` script run one BLAS thread
whatever the environment says (``__main__.main`` pins it before numpy loads);
``main`` called in-process uses the caller's, whose count can move last digits.

Commands, each with the options it reads::

    trischmidt gen {ghz,w,product} --dims 2,2,2 [-o FILE]
    trischmidt gen schmidt --dims 2,2,2 --weights W1,W2,.. --seed N [-o FILE]
    trischmidt gen haar --dims 2,2,2 --seed N [-o FILE]
    trischmidt check STATEFILE [--tol-rank X] [--tol-recon X] [--tol-degen X]
    trischmidt spectra STATEFILE [--tol-rank X] [--tol-recon X]
    trischmidt decompose-bipartite STATEFILE [--tol-rank X] [--tol-recon X]

Every report echoes the three tolerances; only ``check`` takes --tol-degen.

Exit codes: 0 decomposable / success, 1 not decomposable, 2 indeterminate
(degenerate refinement failed), 64 usage error (also a tolerance outside
(0, 1), a negative seed or a value the generator refuses), 65 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import __version__, generate
from .bipartite import entropy_bits, schmidt_decompose
from .exceptions import BadDims, BadWeights, Indeterminate, TrischmidtError
from .linalg import DEFAULT_TOL
from .states import PureState, validate
from .tripartite import PARTY_NAMES, check, spectrum_report

EXIT_DECOMPOSABLE = 0
EXIT_NOT_DECOMPOSABLE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# the options each generator kind takes; a kind requires them and refuses the others
_GEN_KINDS = {"ghz": (), "w": (), "product": (), "schmidt": ("seed", "weights"), "haar": ("seed",)}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the indeterminate
    # verdict: remap to the usage code, and name the form a value like -1,2 needs.
    def error(self, message):
        if message.endswith(": expected one argument"):
            option = message.split(":")[0].split("/")[-1].removeprefix("argument ")
            message += f" (write {option}=VALUE for a value that begins with '-')"
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dump_json(obj) -> str:
    """Serialize with 17-significant-digit floats and stable key order; a numpy
    array goes row by row, each row in bulk, complex entries as ``[re, im]``."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(key))}: {_dump_json(value)}" for key, value in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim > 1:
            return "[" + ", ".join(map(_dump_json, obj)) + "]"
        if not np.isfinite(obj).all():
            raise ValueError("non-finite number in output")
        if np.iscomplexobj(obj):
            numbers = map("[{:.17g}, {:.17g}]".format, obj.real.tolist(), obj.imag.tolist())
        else:
            numbers = map("{:.17g}".format, obj.tolist())
        return "[" + ", ".join(numbers) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(value) for value in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("non-finite number in output")
        return format(float(obj), ".17g")
    raise TypeError(f"cannot serialize {type(obj)!r}")


def state_payload(state: PureState) -> dict:
    return {"dims": list(state.dims), "amplitudes": state.amplitudes}


def parse_state_payload(payload) -> PureState:
    if not isinstance(payload, dict):
        raise TrischmidtError("state file must be a JSON object")
    missing = {"dims", "amplitudes"} - set(payload)
    if missing:
        raise TrischmidtError(f"state file is missing keys: {sorted(missing)}")
    dims = payload["dims"]
    amplitudes = payload["amplitudes"]
    # bool is an int subclass, so JSON true/false would pass as dims 1/0
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise TrischmidtError("dims must be a list of integers")
    try:
        amps = np.array([complex(re, im) for re, im in amplitudes], dtype=np.complex128)
        if any(type(re) is bool or type(im) is bool for re, im in amplitudes):
            raise TypeError("JSON true/false is not a number")
    except (TypeError, ValueError, OverflowError) as exc:
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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise TrischmidtError(f"invalid JSON in state file: {exc}") from exc
    return parse_state_payload(payload)


def _load(args, n_parties: int) -> tuple[PureState, dict]:
    """Read and validate ``args.input``; return it and the ``tool``,
    ``tolerances`` and ``dims`` sections every report opens with."""
    state = validate(load_state_file(args.input), args.tol)
    if state.n_parties != n_parties:
        kind = "tripartite" if n_parties == 3 else "bipartite"
        raise TrischmidtError(f"{args.command} requires a {kind} state ({n_parties} dims)")
    header = {
        "tool": {"name": "trischmidt", "version": __version__, "rng": generate.RNG_NAME},
        "tolerances": asdict(args.tol),
        "dims": list(state.dims),
    }
    return state, header


def _cmd_gen(args) -> int:
    dims = tuple(args.dims)
    kind = args.kind
    for option in ("seed", "weights"):
        given = getattr(args, option) is not None
        if given != (option in _GEN_KINDS[kind]):
            rule = "does not apply to" if given else "is required for"
            print(f"trischmidt gen: error: --{option} {rule} kind '{kind}'", file=sys.stderr)
            return EXIT_USAGE
    options = {option: getattr(args, option) for option in _GEN_KINDS[kind]}
    try:
        state = getattr(generate, f"{kind}_state")(dims, **options)
    except (BadDims, BadWeights) as exc:  # an option's value, not a state file, is at fault
        option = "--dims" if isinstance(exc, BadDims) else "--weights"
        print(f"trischmidt gen: error: argument {option}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = _dump_json(state_payload(state)) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_DECOMPOSABLE


def _cmd_check(args) -> int:
    state, report = _load(args, 3)
    try:
        verdict = check(state, args.tol)
    except Indeterminate as exc:  # the undecided verdict it carries
        verdict = exc.verdict
    report["pivot_party"] = PARTY_NAMES[verdict.analysis.pivot_party]
    report["verdict"] = {
        "decomposable": verdict.decomposable,
        "degenerate": verdict.degenerate,
        "indeterminate": verdict.decomposable is None,
        "max_residual": verdict.max_residual,
    }
    report["weights"] = verdict.decomposition.weights if verdict.decomposition else None
    report.update(spectrum_report(state, args.tol))
    sys.stdout.write(_dump_json(report) + "\n")
    if verdict.decomposable is None:
        return EXIT_INDETERMINATE
    return EXIT_DECOMPOSABLE if verdict.decomposable else EXIT_NOT_DECOMPOSABLE


def _cmd_spectra(args) -> int:
    state, report = _load(args, 3)
    report.update(spectrum_report(state, args.tol))
    sys.stdout.write(_dump_json(report) + "\n")
    return EXIT_DECOMPOSABLE


def _cmd_decompose_bipartite(args) -> int:
    state, report = _load(args, 2)
    sd = schmidt_decompose(state.tensor)
    report["coefficients"] = sd.coefficients
    report["left_basis"] = sd.left_basis.T  # one row per basis vector
    report["right_basis"] = sd.right_basis.T
    report["input_norm"] = sd.input_norm
    # validate bounded the norm, so the Schmidt coefficients are the
    # spectrum of either reduced density matrix
    report["entropy_bits"] = entropy_bits(sd.coefficients**2, args.tol)
    sys.stdout.write(_dump_json(report) + "\n")
    return EXIT_DECOMPOSABLE


def _comma_list(convert, message: str, text: str) -> list:
    """``convert`` of each comma-separated field; bound to ``convert`` and ``message``,
    the error text, it is an argparse type."""
    try:
        return [convert(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{message}: {exc}")


def _seed(text: str) -> int:
    if int(text) < 0:  # numpy's generator takes no negative seed
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


class _SetTolerance(argparse.Action):
    """Set one field of ``args.tol``; a value ``Tolerances`` refuses is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            namespace.tol = replace(namespace.tol, **{self.dest: value})
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from exc


def _build_parser() -> _Parser:
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.set_defaults(tol=DEFAULT_TOL)
    degen = argparse.ArgumentParser(add_help=False)  # only check reads degen_rel
    for parent, flag, field, text in (
        (tolerances, "--tol-rank", "rank_rel", "relative zero cutoff for spectra (default 1e-10)"),
        (tolerances, "--tol-recon", "recon_abs",
         "absolute reconstruction/normalization threshold (default 1e-10)"),
        (degen, "--tol-degen", "degen_rel",
         "relative eigenvalue-equality threshold (default 1e-8)"),
    ):
        parent.add_argument(flag, dest=field, type=float, action=_SetTolerance,
                            default=argparse.SUPPRESS, metavar="X", help=text)

    parser = _Parser(prog="trischmidt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"trischmidt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a state file")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("kind", choices=list(_GEN_KINDS))
    p_gen.add_argument("--dims", required=True, metavar="D1,D2[,D3]",
                       type=partial(_comma_list, int, "dims must be comma-separated integers"))
    p_gen.add_argument("--weights", default=None, metavar="W1,W2,..",
                       type=partial(_comma_list, float, "weights must be comma-separated numbers"),
                       help="positive weights for kind 'schmidt' (normalized to sum 1)")
    p_gen.add_argument("--seed", type=_seed, default=None, metavar="N",
                       help="nonnegative seed for the numpy-pcg64 generator (haar/schmidt)")
    p_gen.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="write the state file here instead of stdout")

    for name, handler, parents, text in (
        ("check", _cmd_check, [tolerances, degen],
         "test a tripartite state for a Schmidt decomposition"),
        ("spectra", _cmd_spectra, [tolerances], "reduced-density spectra and equality flags"),
        ("decompose-bipartite", _cmd_decompose_bipartite, [tolerances],
         "Schmidt coefficients, bases and entropy of a bipartite state"),
    ):
        reader = sub.add_parser(name, parents=parents, help=text)
        reader.set_defaults(handler=handler)
        reader.add_argument("input", help="state file path, or - for stdin")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (TrischmidtError, ValueError, OSError, MemoryError) as exc:
        print(f"trischmidt {args.command}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA

