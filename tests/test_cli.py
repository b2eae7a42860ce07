import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from trischmidt import Indeterminate, PureState, ghz_state, w_state
from trischmidt.cli import (
    EXIT_DATA,
    EXIT_DECOMPOSABLE,
    EXIT_INDETERMINATE,
    EXIT_NOT_DECOMPOSABLE,
    EXIT_USAGE,
    load_state_file,
    main,
    parse_state_payload,
    state_payload,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, state):
    path = tmp_path / name
    from trischmidt.cli import _dump_json

    path.write_text(_dump_json(state_payload(state)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def state_files(tmp_path):
    bell = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    return {
        "ghz": write_state(tmp_path, "ghz.json", ghz_state((2, 2, 2))),
        "w": write_state(tmp_path, "w.json", w_state((2, 2, 2))),
        "bell": write_state(tmp_path, "bell.json", bell),
    }


def test_state_payload_round_trip():
    state = ghz_state((2, 2, 2))
    rebuilt = parse_state_payload(json.loads(json.dumps(state_payload(state))))
    assert rebuilt.dims == state.dims
    assert np.array_equal(rebuilt.amplitudes, state.amplitudes)


def test_gen_ghz_amplitudes(tmp_path, capsys):
    out_file = tmp_path / "ghz.json"
    code, out, _ = run_cli(["gen", "ghz", "--dims", "2,2,2", "-o", str(out_file)], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out_file.read_text())
    assert payload["dims"] == [2, 2, 2]
    amps = payload["amplitudes"]
    assert abs(amps[0][0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(amps[7][0] - 1 / np.sqrt(2)) < 1e-15


def test_gen_w_amplitudes(capsys):
    code, out, _ = run_cli(["gen", "w", "--dims", "2,2,2"], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    t = np.array([complex(re, im) for re, im in payload["amplitudes"]]).reshape(2, 2, 2)
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert abs(t[idx] - 1 / np.sqrt(3)) < 1e-15


def test_gen_is_byte_deterministic(capsys):
    args = ["gen", "haar", "--dims", "2,3,2", "--seed", "99"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_gen_requires_seed_for_random_kinds(capsys):
    code, _, err = run_cli(["gen", "haar", "--dims", "2,2,2"], capsys)
    assert code == EXIT_USAGE
    assert "--seed" in err
    code, _, err = run_cli(["gen", "schmidt", "--dims", "2,2,2", "--seed", "1"], capsys)
    assert code == EXIT_USAGE
    assert "--weights" in err


def test_gen_bad_weights_is_data_error(capsys):
    code, _, err = run_cli(
        ["gen", "schmidt", "--dims", "2,2,2", "--weights", "0.5,0.3,0.2", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_DATA
    assert "BadWeights" in err


def test_gen_overflowing_weight_sum_is_data_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["gen", "schmidt", "--dims", "2,2,2", "--weights", "1e308,1e308", "--seed", "1"],
            capsys,
        )
    assert code == EXIT_DATA
    assert out == ""
    assert err == "trischmidt gen: error: BadWeights: weights sum to inf, not a finite number\n"


@pytest.mark.parametrize("argv, message", [
    (["ghz", "--seed", "1"], "--seed does not apply to kind 'ghz'"),
    (["w", "--seed", "1"], "--seed does not apply to kind 'w'"),
    (["product", "--seed", "1"], "--seed does not apply to kind 'product'"),
    (["ghz", "--weights", "1"], "--weights does not apply to kind 'ghz'"),
    (["w", "--weights", "1"], "--weights does not apply to kind 'w'"),
    (["product", "--weights", "1"], "--weights does not apply to kind 'product'"),
    (["haar", "--seed", "3", "--weights", "1,2"], "--weights does not apply to kind 'haar'"),
    (["schmidt", "--weights", "1"], "--seed is required for kind 'schmidt'"),
])
def test_gen_options_follow_the_kind(argv, message, capsys):
    code, out, err = run_cli(["gen", *argv, "--dims", "2,2,2"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"trischmidt gen: error: {message}\n"


def test_check_ghz_exit_zero(tmp_path, capsys):
    path = write_state(tmp_path, "ghz.json", ghz_state((2, 2, 2)))
    code, out, _ = run_cli(["check", path], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    assert payload["verdict"]["decomposable"] is True
    assert np.max(np.abs(np.array(payload["weights"]) - 0.5)) < 1e-10
    assert payload["pivot_party"] == "A"


def test_check_w_exit_one_and_residual(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", w_state((2, 2, 2)))
    code, out, _ = run_cli(["check", path], capsys)
    assert code == EXIT_NOT_DECOMPOSABLE
    payload = json.loads(out)
    assert payload["verdict"]["decomposable"] is False
    assert abs(payload["verdict"]["max_residual"] - 0.57735026918962584) < 1e-9
    assert payload["weights"] is None
    spec = payload["spectra"]
    for party in ("A", "B", "C"):
        assert np.max(np.abs(np.array(spec[party]) - [2 / 3, 1 / 3])) < 1e-10


def test_check_truncated_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]]}', encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert "DimensionMismatch" in err
    assert out == ""
    # JSON true is a Python int subclass; it must not read as dimension 1
    path = tmp_path / "bool.json"
    path.write_text('{"dims": [true, 2, 2], "amplitudes": ' + json.dumps([[0.5, 0.0]] * 4) + "}",
                    encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert "dims must be a list of integers" in err
    assert out == ""
    # nor may JSON true/false read as the amplitude components 1/0
    path = tmp_path / "bool_amplitude.json"
    path.write_text('{"dims": [1, 1, 1], "amplitudes": [[true, false]]}', encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert "amplitudes must be [re, im] pairs" in err
    assert out == ""
    # json.loads accepts the literal NaN; validation must still refuse it
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [1, 1, 2], "amplitudes": [[NaN, 0.0], [1.0, 0.0]]}',
                    encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert "NotNormalized: amplitudes contain non-finite entries" in err
    assert out == ""


def test_check_invalid_json_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert "JSON" in err


@pytest.mark.parametrize("amplitudes, message", [
    # complex() cannot convert an integer this large to a float
    ("[[1" + "0" * 400 + ", 0]]", "amplitudes must be [re, im] pairs"),
    # json.loads runs out of recursion depth before it sees the end
    ("[" * 100_000 + "]" * 100_000, "invalid JSON in state file"),
], ids=["401-digit-integer", "nested-100000-deep"])
def test_check_hostile_file_is_data_error(amplitudes, message, tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_text('{"dims": [1, 1, 1], "amplitudes": ' + amplitudes + "}", encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert f"TrischmidtError: {message}" in err
    assert out == ""


def test_check_report_is_byte_deterministic(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", ghz_state((2, 2, 2)))
    _, out1, _ = run_cli(["check", path], capsys)
    _, out2, _ = run_cli(["check", path], capsys)
    assert out1 == out2


def test_check_indeterminate_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    import trischmidt.cli as cli_mod

    def fake_check(state, tol, pivot=None):
        raise Indeterminate("forced for the exit-code contract", analysis=None, max_residual=0.25)

    monkeypatch.setattr(cli_mod, "check", fake_check)
    path = write_state(tmp_path, "g.json", ghz_state((2, 2, 2)))
    code, out, _ = run_cli(["check", path], capsys)
    assert code == EXIT_INDETERMINATE
    payload = json.loads(out)
    assert payload["verdict"]["indeterminate"] is True
    assert payload["verdict"]["decomposable"] is None
    code, out, _ = run_cli(["check", path, "--all-pivots"], capsys)
    assert code == EXIT_INDETERMINATE
    for party in ("A", "B", "C"):
        entry = json.loads(out)["all_pivots"][party]
        assert entry["decomposable"] is None
        assert entry["slice_ranks"] is None


def test_check_rejects_bipartite_input(tmp_path, capsys):
    bell = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    path = write_state(tmp_path, "bell.json", bell)
    code, _, err = run_cli(["check", path], capsys)
    assert code == EXIT_DATA
    assert "tripartite" in err


def test_check_tolerance_flags_echoed(tmp_path, capsys):
    path = write_state(tmp_path, "g.json", ghz_state((2, 2, 2)))
    code, out, _ = run_cli(["check", path, "--tol-rank", "1e-6", "--tol-degen", "1e-5"], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    assert payload["tolerances"]["rank_rel"] == 1e-6
    assert payload["tolerances"]["degen_rel"] == 1e-5
    assert payload["tolerances"]["recon_abs"] == 1e-10


def test_check_all_pivots(tmp_path, capsys):
    path = write_state(tmp_path, "g.json", ghz_state((2, 2, 2)))
    code, out, _ = run_cli(["check", path, "--all-pivots"], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    for party in ("A", "B", "C"):
        assert payload["all_pivots"][party]["decomposable"] is True


def test_spectra_command(tmp_path, capsys):
    path = write_state(tmp_path, "w.json", w_state((2, 2, 2)))
    code, out, _ = run_cli(["spectra", path], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    assert "A_BC" in payload["spectrum_equal"]
    assert payload["spectrum_equal"]["A_BC"] is True
    assert np.max(np.abs(np.array(payload["spectra"]["A"]) - [2 / 3, 1 / 3])) < 1e-10
    assert "verdict" not in payload


def test_spectra_product_state(tmp_path, capsys):
    from trischmidt import product_state

    path = write_state(tmp_path, "p.json", product_state((2, 2, 2)))
    _, out, _ = run_cli(["spectra", path], capsys)
    payload = json.loads(out)
    for party in ("A", "B", "C"):
        assert payload["spectra"][party][0] == pytest.approx(1.0)


def test_check_product_state_prints_no_negative_zero(tmp_path, capsys):
    from trischmidt import product_state

    path = write_state(tmp_path, "p.json", product_state((2, 3, 2)))
    code, out, _ = run_cli(["check", path, "--all-pivots"], capsys)
    assert code == EXIT_DECOMPOSABLE
    assert json.loads(out)["entropy_bits"] == {"A": 0, "B": 0, "C": 0}
    assert re.search(r"-0[,\]}]", out) is None  # "-0" ends a number only as negative zero


def test_decompose_bipartite_bell(tmp_path, capsys):
    bell = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    path = write_state(tmp_path, "bell.json", bell)
    code, out, _ = run_cli(["decompose-bipartite", path], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    assert np.max(np.abs(np.array(payload["coefficients"]) - 0.70710678118654746)) < 1e-10
    assert abs(payload["entropy_bits"] - 1.0) < 1e-12


def test_decompose_bipartite_product_entropy_zero(tmp_path, capsys):
    prod = PureState((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    path = write_state(tmp_path, "prod.json", prod)
    _, out, _ = run_cli(["decompose-bipartite", path], capsys)
    assert json.loads(out)["entropy_bits"] == 0.0


def test_decompose_bipartite_skewed_entropy(tmp_path, capsys):
    state = PureState((2, 2), np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]))
    path = write_state(tmp_path, "s.json", state)
    _, out, _ = run_cli(["decompose-bipartite", path], capsys)
    expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    got = json.loads(out)["entropy_bits"]
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.46900) < 1e-4


def test_decompose_bipartite_rejects_tripartite(tmp_path, capsys):
    path = write_state(tmp_path, "g.json", ghz_state((2, 2, 2)))
    code, _, err = run_cli(["decompose-bipartite", path], capsys)
    assert code == EXIT_DATA
    assert "bipartite" in err


def test_usage_error_exit_code(tmp_path, capsys):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli([], capsys)
    assert code == EXIT_USAGE
    path = write_state(tmp_path, "g.json", ghz_state((2, 2, 2)))
    code, out, err = run_cli(["check", path, "--tol-rank", "2"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "rank_rel must lie strictly in (0, 1)" in err
    code, out, err = run_cli(["check", path, "--tol-recon", "nan"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "recon_abs must lie strictly in (0, 1)" in err


@pytest.mark.parametrize("argv", [
    ["check", "{ghz}", "--seed", "1"],
    ["spectra", "{ghz}", "--all-pivots"],
    ["spectra", "{ghz}", "--tol-degen", "1e-6"],
    ["decompose-bipartite", "{bell}", "--tol-degen", "1e-6"],
    ["decompose-bipartite", "{bell}", "--seed", "1"],
    ["gen", "ghz", "--dims", "2,2,2", "--tol-rank", "1e-6"],
])
def test_unread_option_is_usage_error(argv, state_files, capsys):
    code, out, err = run_cli([arg.format(**state_files) for arg in argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


def test_out_of_memory_is_data_error(capsys, monkeypatch):
    import trischmidt.generate as generate_mod

    def fake_ghz(dims):
        raise MemoryError("Unable to allocate the state")

    monkeypatch.setattr(generate_mod, "ghz_state", fake_ghz)
    code, out, err = run_cli(["gen", "ghz", "--dims", "2,2,2"], capsys)
    assert code == EXIT_DATA
    assert out == ""
    assert err == "trischmidt gen: error: MemoryError: Unable to allocate the state\n"


_HEADER = [
    "tool.name", "tool.version", "tool.rng",
    "tolerances.rank_rel", "tolerances.degen_rel", "tolerances.recon_abs",
    "dims",
]
_SPECTRA = [
    "spectra.A", "spectra.B", "spectra.C", "spectra.BC",
    "spectrum_equal.A_B", "spectrum_equal.A_C", "spectrum_equal.B_C", "spectrum_equal.A_BC",
    "entropy_bits.A", "entropy_bits.B", "entropy_bits.C",
]
_VERDICT = [
    "pivot_party",
    "verdict.decomposable", "verdict.degenerate", "verdict.indeterminate", "verdict.max_residual",
    "weights",
]
_ALL_PIVOTS = [
    "all_pivots.A.decomposable", "all_pivots.A.max_residual", "all_pivots.A.slice_ranks",
    "all_pivots.B.decomposable", "all_pivots.B.max_residual", "all_pivots.B.slice_ranks",
    "all_pivots.C.decomposable", "all_pivots.C.max_residual", "all_pivots.C.slice_ranks",
]
_BIPARTITE = ["coefficients", "left_basis", "right_basis", "input_norm", "entropy_bits"]


def _leaf_paths(obj, prefix=""):
    paths = []
    for key, value in obj.items():
        if isinstance(value, dict):
            paths += _leaf_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


@pytest.mark.parametrize("argv, expected", [
    (["check", "{w}"], _HEADER + _VERDICT + _SPECTRA),
    (["check", "{w}", "--all-pivots"], _HEADER + _VERDICT + _SPECTRA + _ALL_PIVOTS),
    (["spectra", "{w}"], _HEADER + _SPECTRA),
    (["decompose-bipartite", "{bell}"], _HEADER + _BIPARTITE),
])
def test_report_key_order(argv, expected, state_files, capsys):
    _, out, _ = run_cli([arg.format(**state_files) for arg in argv], capsys)
    assert _leaf_paths(json.loads(out)) == expected


def test_gen_check_pipeline_in_process(tmp_path, capsys):
    state_args = [
        "gen", "schmidt", "--dims", "3,4,4", "--weights", "0.5,0.3,0.2", "--seed", "42",
        "-o", str(tmp_path / "sd.json"),
    ]
    code, _, _ = run_cli(state_args, capsys)
    assert code == EXIT_DECOMPOSABLE
    code, out, _ = run_cli(["check", str(tmp_path / "sd.json")], capsys)
    assert code == EXIT_DECOMPOSABLE
    payload = json.loads(out)
    weights = np.sort(np.array(payload["weights"]))[::-1]
    assert np.max(np.abs(weights - [0.5, 0.3, 0.2])) < 1e-8


def test_load_state_file_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    from trischmidt.cli import _dump_json

    text = _dump_json(state_payload(w_state((2, 2, 2)))) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    state = load_state_file("-")
    assert state.dims == (2, 2, 2)


def test_subprocess_entry_point(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "trischmidt", "gen", "ghz", "--dims", "2,2,2"],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0
    check_run = subprocess.run(
        [sys.executable, "-m", "trischmidt", "check", "-"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert check_run.returncode == 0
    payload = json.loads(check_run.stdout)
    assert payload["verdict"]["decomposable"] is True
    w_run = subprocess.run(
        [sys.executable, "-m", "trischmidt", "gen", "w", "--dims", "2,2,2"],
        capture_output=True, text=True,
    )
    reject = subprocess.run(
        [sys.executable, "-m", "trischmidt", "check", "-"],
        input=w_run.stdout, capture_output=True, text=True,
    )
    assert reject.returncode == 1
