import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from trischmidt import (
    PureState,
    ghz_state,
    haar_state,
    tripartite,
    w_state,
)
from trischmidt.cli import (
    EXIT_DATA,
    EXIT_DECOMPOSABLE,
    EXIT_INDETERMINATE,
    EXIT_NOT_DECOMPOSABLE,
    EXIT_USAGE,
    _dump_json,
    load_state_file,
    main,
    parse_state_payload,
    state_payload,
)
from helpers import haar_rotated


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, state):
    path = tmp_path / name
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
    # the payload holds the amplitude array itself, which only _dump_json writes
    for state in (ghz_state((2, 2, 2)), haar_state((2, 3, 4), seed=5)):
        rebuilt = parse_state_payload(json.loads(_dump_json(state_payload(state))))
        assert rebuilt.dims == state.dims
        assert np.array_equal(rebuilt.amplitudes, state.amplitudes)


# signed zero, the smallest subnormal, a huge value, and values .17g must not round
_WRITER_VALUES = [-0.0, 5e-324, 1e308, 1.0, 0.1, 1 / 3]


def test_dump_json_writes_arrays_as_the_scalar_branch_writes_floats():
    real = np.array(_WRITER_VALUES)
    pairs = [complex(re, im) for re, im in zip(_WRITER_VALUES, _WRITER_VALUES[::-1])]
    rows = np.array([pairs, pairs[::-1]])
    assert _dump_json(real) == _dump_json([float(x) for x in _WRITER_VALUES])
    assert _dump_json(np.array(pairs)) == _dump_json([[z.real, z.imag] for z in pairs])
    assert _dump_json(rows) == _dump_json([[[z.real, z.imag] for z in row] for row in rows.tolist()])
    assert _dump_json(np.array([-0.0, 5e-324])) == "[-0, 4.9406564584124654e-324]"
    assert _dump_json(np.zeros(0)) == "[]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("place", ["real", "re", "im", "row", "scalar"])
def test_dump_json_rejects_non_finite_array_entries(bad, place):
    array = {
        "real": np.array([1.0, bad]),
        "re": np.array([1j, complex(bad, 0.0)]),
        "im": np.array([1j, complex(0.0, bad)]),
        "row": np.array([[1j, 1.0], [1.0, complex(0.0, bad)]]),
        "scalar": {"max_residual": float(bad)},  # the float branch, outside any array
    }[place]
    with pytest.raises(ValueError, match="non-finite number in output"):
        _dump_json(array)


def test_dump_json_refuses_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
        _dump_json({"spectra": {0.5}})


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


@pytest.mark.parametrize("argv", [
    ["haar", "--dims", "2,2,2", "--seed", "-1"],
    ["schmidt", "--dims", "2,2,2", "--weights", "0.5,0.5", "--seed", "-5"],
])
def test_gen_negative_seed_is_usage_error(argv, capsys):
    # numpy's generator refuses a negative seed; the parser refuses it first and names the option
    code, out, err = run_cli(["gen", *argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.endswith(f"error: argument --seed: must be a nonnegative integer, got {argv[-1]}\n")
    assert run_cli(["gen", *argv[:-1], "0"], capsys)[0] == EXIT_DECOMPOSABLE


@pytest.mark.parametrize("argv, message", [
    (["ghz", "--dims", "2,,2"], "dims must be comma-separated integers"),
    (["ghz", "--dims", "2,2,"], "dims must be comma-separated integers"),
    (["ghz", "--dims", ""], "dims must be comma-separated integers"),
    (["schmidt", "--dims", "2,2,2", "--weights", "0.5,,0.5", "--seed", "1"],
     "weights must be comma-separated numbers"),
    (["schmidt", "--dims", "2,2,2", "--weights", "0.5,0.5,", "--seed", "1"],
     "weights must be comma-separated numbers"),
])
def test_gen_empty_field_is_usage_error(argv, message, capsys):
    # an empty field between or after commas is a typo, not a value to drop
    code, out, err = run_cli(["gen", *argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_gen_bad_weights_is_usage_error(capsys):
    code, out, err = run_cli(
        ["gen", "schmidt", "--dims", "2,2,2", "--weights", "0.5,0.3,0.2", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("trischmidt gen: error: argument --weights: "
                   "3 weights exceed the smallest dimension 2\n")


def test_gen_overflowing_weight_sum_is_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["gen", "schmidt", "--dims", "2,2,2", "--weights", "1e308,1e308", "--seed", "1"],
            capsys,
        )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("trischmidt gen: error: argument --weights: "
                   "weights sum to inf, not a finite number\n")


@pytest.mark.parametrize("argv, message", [
    (["ghz", "--dims", "2"], "argument --dims: expected 2 or 3 dimensions, got 1"),
    (["haar", "--dims", "0,2,2", "--seed", "1"],
     "argument --dims: every dimension must be >= 1, got (0, 2, 2)"),
    (["w", "--dims", "1,2,2"], "argument --dims: w needs every dimension >= 2, got (1, 2, 2)"),
    (["schmidt", "--dims", "2,2,2", "--weights=-1,2", "--seed", "1"],
     "argument --weights: weights must be positive and finite, got [-1.0, 2.0]"),
])
def test_gen_value_the_generator_refuses_is_usage_error(argv, message, capsys):
    # the option's value is at fault, not a state file: exit 64, naming the option
    code, out, err = run_cli(["gen", *argv], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", f"trischmidt gen: error: {message}\n")


@pytest.mark.parametrize("option", ["--weights", "--dims"])
def test_gen_value_read_as_an_option_suggests_the_equals_form(option, capsys):
    argv = ["schmidt", "--dims", "2,2,2", "--weights", "1,2", "--seed", "1"]
    argv[argv.index(option) + 1] = "-1,2"
    code, out, err = run_cli(["gen", *argv], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(f"error: argument {option}: expected one argument "
                        f"(write {option}=VALUE for a value that begins with '-')\n")


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


@pytest.mark.parametrize("command", ["check", "spectra"])
def test_squared_norm_overflowing_to_nan_is_one_line_data_error(command, tmp_path, capsys):
    # every entry is finite, but |1e308 + 1e308j|^2 overflows and the norm sums to NaN
    path = tmp_path / "hugenorm.json"
    path.write_text('{"dims": [2, 2, 2], "amplitudes": [[1e308, 1e308]'
                    + ", [0.0, 0.0]" * 7 + "]}", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([command, str(path)], capsys)
    assert code == EXIT_DATA
    assert out == ""
    assert err == (f"trischmidt {command}: error: NotNormalized: "
                   "sum of |amplitude|^2 deviates from 1 by nan\n")
    assert caught == []


@pytest.mark.parametrize("text, message", [
    ("[[1.0, 0.0]]", "TrischmidtError: state file must be a JSON object"),
    ('{"dims": [1, 1, 1]}', "TrischmidtError: state file is missing keys: ['amplitudes']"),
    ('{"dims": [0, 2, 2], "amplitudes": []}', "DimensionMismatch: every dimension must be >= 1"),
], ids=["json-array", "no-amplitudes", "zero-dimension"])
def test_check_malformed_state_file_is_data_error(text, message, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == EXIT_DATA
    assert message in err
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
    # a rotated GHZ 3^3 with refinement switched off is indeterminate
    state = haar_rotated(ghz_state((3, 3, 3)), seed=0)
    monkeypatch.setattr(tripartite, "refine_degenerate", lambda analysis: None)
    path = write_state(tmp_path, "g.json", state)
    code, out, _ = run_cli(["check", path], capsys)
    assert code == EXIT_INDETERMINATE
    payload = json.loads(out)
    assert payload["verdict"]["indeterminate"] is True
    assert payload["verdict"]["decomposable"] is None
    assert payload["verdict"]["degenerate"] is True
    assert payload["verdict"]["max_residual"] > 0.1
    assert payload["weights"] is None
    assert payload["pivot_party"] == "A"


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
    code, out, _ = run_cli(["check", path], capsys)
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
    ["check", "{ghz}", "--all-pivots"],
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
    (["spectra", "{w}"], _HEADER + _SPECTRA),
    (["decompose-bipartite", "{bell}"], _HEADER + _BIPARTITE),
    # an accepted verdict prints the same keys in the same order
    (["check", "{ghz}"], _HEADER + _VERDICT + _SPECTRA),
    (["spectra", "{ghz}"], _HEADER + _SPECTRA),
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
