"""The work each answer makes, as data: a change to the decision's work is a row diff.

Every SVD and eigensolve in ``src/`` runs through ``linalg._lapack`` (the lint
below holds it so), where the ``lapack_calls`` fixture records it.  A row gives
an input, its verdict (None: ``Indeterminate``), the exact calls of ``check``
and those a later read of ``max_residual`` adds: ``eigh``, ``values`` (singular
values only), ``thin`` or ``full`` (min(m, n) or all singular vectors).  The CLI
rows give the calls of ``check`` and ``spectra`` on a state file.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trischmidt import (
    DimensionMismatch,
    Indeterminate,
    analyze,
    cli,
    check,
    entanglement_entropy,
    ghz_state,
    haar_state,
    product_state,
    schmidt_state,
    spectrum_report,
    w_state,
)

from helpers import ANTISYM, UNEQUAL_SPECTRA, UNTIED_ENTANGLED, haar_rotated, tied_blocks_state

KINDS = {("eigh", ()): "eigh", ("svd", (("compute_uv", False),)): "values",
         ("svd", (("full_matrices", False),)): "thin", ("svd", ()): "full"}


def _calls(recorded) -> str:
    """``"eigh 32x32, values 32x32"`` for the recorded calls; other keywords spelled out."""
    return ", ".join(KINDS.get((name, tuple(sorted(kwargs.items()))), f"{name}{kwargs}")
                     + " " + "x".join(map(str, shape)) for name, shape, kwargs in recorded)


def _unfoldings(dims) -> str:
    return ", ".join(f"values {d}x{math.prod(dims) // d}" for d in dims)


# check: the pivot's eigensolve and slice 0's values; on a degenerate pivot only,
# one combination SVD of all retained slices (thin) and the closest unitary to their
# diagonals (full, slices x modes), after which the refined slicing's power-step
# residuals prove rank one with no SVD, so its slice 0 is decomposed only when
# read; one call over all the other slices wherever the ranks are read.
# spectrum_report: one values call per single-party unfolding, on every row
ROWS = {
    # slice 0 rejects; the read decomposes the other 31 slices in one call
    "haar-32": (haar_state((32, 32, 32), seed=94), False,
                "eigh 32x32, values 32x32", "values 31x32x32"),
    "haar-16": (haar_state((16, 16, 16), seed=97), False,
                "eigh 16x16, values 16x16", "values 15x16x16"),
    # power-step residuals prove rank one past slice 0
    "distinct-16": (schmidt_state((16, 16, 16), np.arange(16, 0, -1) / 136, seed=93), True,
                    "eigh 16x16, values 16x16", "values 15x16x16"),
    "tied-6x7x8": (schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92), True,
                   "eigh 6x6, values 7x8, thin 7x8, full 6x6", "values 7x8, values 5x7x8"),
    "haar-3x4x5": (haar_state((3, 4, 5), seed=3300), False,
                   "eigh 3x3, values 4x5", "values 2x4x5"),
    "ghz-2": (ghz_state((2, 2, 2)), True, "eigh 2x2, values 2x2", "values 1x2x2"),
    "w-2": (w_state((2, 2, 2)), False, "eigh 2x2, values 2x2", "values 1x2x2"),
    "w-3": (w_state((3, 3, 3)), False, "eigh 3x3, values 3x3", "values 1x3x3"),
    # one retained slice leaves nothing for the read
    "product-3x4x5": (product_state((3, 4, 5)), True, "eigh 3x3, values 4x5", ""),
    "ghz-3-rot": (haar_rotated(ghz_state((3, 3, 3)), 0), True,
                  "eigh 3x3, values 3x3, thin 3x3, full 3x3", "values 3x3, values 2x3x3"),
    # the untied-slice rule reads the ranks, not the unfoldings
    "untied-entangled": (UNTIED_ENTANGLED, False,
                         "eigh 3x3, values 4x4, thin 4x4, values 2x4x4", ""),
    "untied-entangled-rot": (haar_rotated(UNTIED_ENTANGLED, 3), False,
                             "eigh 3x3, values 4x4, thin 4x4, values 2x4x4", ""),
    # the spectra rule, and the undecided eps_ijk, end with the three unfoldings
    "unequal-spectra": (UNEQUAL_SPECTRA, False, "eigh 2x2, values 3x3, values 1x3x3, thin 3x3, "
                        + _unfoldings((2, 3, 3)), ""),
    "unequal-spectra-rot": (haar_rotated(UNEQUAL_SPECTRA, 3), False, "eigh 2x2, values 3x3, "
                            "thin 3x3, values 1x3x3, " + _unfoldings((2, 3, 3)), ""),
    "antisym": (ANTISYM, None, "eigh 3x3, values 3x3, thin 3x3, values 2x3x3, "
                + _unfoldings((3, 3, 3)), ""),
    "tied-blocks-16": (tied_blocks_state(16, 1)[0], True,
                       "eigh 16x16, values 16x16, thin 16x16, full 16x16",
                       "values 16x16, values 15x16x16"),
}


@pytest.mark.parametrize("state, decomposable, decide, read", ROWS.values(), ids=ROWS)
def test_check_makes_the_row_calls(state, decomposable, decide, read, lapack_calls):
    try:
        verdict = check(state)
    except Indeterminate as exc:
        verdict = exc.verdict
    assert verdict.decomposable is decomposable
    assert _calls(lapack_calls) == decide
    verdict.max_residual
    assert _calls(lapack_calls) == ", ".join(filter(None, (decide, read)))


@pytest.mark.parametrize("state", [row[0] for row in ROWS.values()], ids=ROWS)
def test_spectrum_report_makes_one_values_call_per_unfolding(state, lapack_calls):
    spectrum_report(state)
    assert _calls(lapack_calls) == _unfoldings(state.dims)


def test_entanglement_entropy_makes_one_values_call(lapack_calls):
    entanglement_entropy(np.eye(3, 5) / np.sqrt(3))
    assert _calls(lapack_calls) == "values 3x5"


def _verdict_calls(row: str) -> str:
    """The calls of the library row's ``check`` and of its ``max_residual`` read."""
    return ", ".join(filter(None, ROWS[row][2:]))


# cli.main(["check", F]) makes its verdict's calls, the max_residual read and
# spectrum_report's unfoldings
CLI_ROWS = {
    "haar-16": (ROWS["haar-16"][0], _verdict_calls("haar-16")),
    "tied-6x7x8": (ROWS["tied-6x7x8"][0], _verdict_calls("tied-6x7x8")),
    "antisym": (ANTISYM, _verdict_calls("antisym")),
    "unequal-spectra": (UNEQUAL_SPECTRA, _verdict_calls("unequal-spectra")),
    # pivot A has dimension 1 beside larger parties: the default pivot is B, and check refuses A
    "haar-1x3x4": (haar_state((1, 3, 4), seed=3400), "eigh 3x3, values 1x4, values 2x1x4"),
    # one retained slice
    "haar-1x1x5": (haar_state((1, 1, 5), seed=3401), "eigh 5x5, values 1x1"),
}


@pytest.mark.parametrize("command", ["check", "spectra"])
@pytest.mark.parametrize("state, verdict", CLI_ROWS.values(), ids=CLI_ROWS)
def test_cli_makes_the_row_calls(state, verdict, command, tmp_path, lapack_calls, capsys):
    path = tmp_path / "state.json"
    path.write_text(cli._dump_json(cli.state_payload(state)) + "\n")
    spectra = _unfoldings(state.dims)
    expected = {"check": [verdict, spectra], "spectra": [spectra]}[command]
    cli.main([command, str(path)])
    capsys.readouterr()
    assert _calls(lapack_calls) == ", ".join(expected)


@pytest.mark.parametrize("answer", [analyze, check], ids=["analyze", "check"])
def test_a_trivial_pivot_is_refused_before_any_decomposition(answer, lapack_calls):
    with pytest.raises(DimensionMismatch, match="pivot A has dimension 1"):
        answer(CLI_ROWS["haar-1x3x4"][0], pivot=0)
    assert lapack_calls == []


RAW = {f"{module}.linalg.{routine}" for module in ("np", "numpy")
       for routine in ("svd", "svdvals", "eigh", "eigvalsh", "eig", "eigvals")}


def test_every_raw_decomposition_in_src_runs_through_lapack():
    # a decomposition outside linalg._lapack would be work the table cannot see
    routed, stray = 0, []
    for path in sorted((Path(__file__).parents[1] / "src" / "trischmidt").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        through = {id(node.args[0]) for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and node.args and ast.unparse(node.func) in ("_lapack", "linalg._lapack")}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                stray += [f"{path.name}:{node.lineno}" for alias in node.names
                          if f"np.linalg.{alias.name}" in RAW]
            elif isinstance(node, ast.Attribute) and ast.unparse(node) in RAW:
                routed += id(node) in through
                stray += [] if id(node) in through else [f"{path.name}:{node.lineno}"]
    assert stray == [] and routed > 0


MEMORY = {"haar-2x64x64": haar_state((2, 64, 64), seed=3200),
          "haar-4x64x64": haar_state((4, 64, 64), seed=3201), "haar-32": ROWS["haar-32"][0],
          "haar-64x4x4": haar_state((64, 4, 4), seed=3202),
          "distinct-32": schmidt_state((32, 32, 32), np.arange(32, 0, -1) / 528, seed=93),
          "tied-blocks-16": ROWS["tied-blocks-16"][0]}


@pytest.mark.parametrize("answer, factor", [(lambda state: check(state).max_residual, 8),
                                            (spectrum_report, 2)], ids=["check", "spectra"])
@pytest.mark.parametrize("state", MEMORY.values(), ids=MEMORY)
def test_no_dense_object_larger_than_the_answer_needs(state, answer, factor):
    # peak traced bytes, the state not counted: measured at most 5.4 times the state
    # for check and 1.2 for the spectra; a two-party rho of 2x64x64 takes 268 MB
    tracemalloc.start()
    try:
        answer(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= factor * state.amplitudes.nbytes + 64 * 1024
