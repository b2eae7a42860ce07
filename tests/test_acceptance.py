"""Acceptance suite: one test per contract criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json

import numpy as np
import pytest

from trischmidt import (
    check,
    entanglement_entropy,
    ghz_state,
    haar_state,
    haar_unitary,
    hermitian_eigendecompose,
    overlap,
    reconstruct_tripartite,
    reduced_density,
    schmidt_decompose,
    schmidt_state,
    spectrum_report,
    svd,
    w_state,
)
from trischmidt.cli import (
    EXIT_DATA,
    EXIT_DECOMPOSABLE,
    EXIT_INDETERMINATE,
    EXIT_NOT_DECOMPOSABLE,
    EXIT_USAGE,
    main,
    state_payload,
)

from helpers import apply_local_unitary


def _passed(name):
    print(f"ACCEPTANCE PASS: {name}")


def draw_weights(rng, k, force_degenerate):
    """Positive weights summing to 1; duplicates are exact, distinct values
    keep a relative gap >= 1e-4 so eigenvector conditioning stays clean."""
    while True:
        w = rng.uniform(0.2, 1.0, size=k)
        if force_degenerate and k >= 2:
            w[1] = w[0]
            if k >= 4 and rng.integers(0, 2):
                w[3] = w[2]
        w = np.sort(w / w.sum())[::-1]
        distinct = sorted(set(w.tolist()), reverse=True)
        if all((a - b) >= 1e-4 * distinct[0] for a, b in zip(distinct, distinct[1:])):
            return w


def test_ghz_acceptance():
    verdict = check(ghz_state((2, 2, 2)))
    assert verdict.decomposable
    assert np.max(np.abs(np.sort(verdict.decomposition.weights)[::-1] - 0.5)) <= 1e-10
    spectra = spectrum_report(ghz_state((2, 2, 2)))["spectra"]
    for party in "BC":
        assert np.max(np.abs(spectra[party] - spectra["A"])) <= 1e-10
    _passed("GHZ accepted with weights (0.5, 0.5) and equal single-party spectra")


def test_w_rejection():
    w = w_state((2, 2, 2))
    verdict = check(w)
    assert not verdict.decomposable
    assert verdict.analysis.slice_ranks == (2, 1)
    assert abs(verdict.max_residual - 1 / np.sqrt(3)) <= 1e-9
    spectra = spectrum_report(w)["spectra"]
    for party in "ABC":
        assert np.max(np.abs(spectra[party] - [2 / 3, 1 / 3])) <= 1e-10
    _passed("W rejected: ranks (2, 1), residual 1/sqrt(3), equal spectra (2/3, 1/3)")


def test_randomized_completeness():
    rng = np.random.default_rng(20260811)
    accepted = 0
    for trial in range(200):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        force_degenerate = trial % 3 == 0
        k_max = min(dims)
        k = int(rng.integers(2, k_max + 1)) if k_max >= 2 else 1
        weights = draw_weights(rng, k, force_degenerate and k >= 2)
        state = schmidt_state(dims, weights, seed=int(rng.integers(0, 2**32)))
        verdict = check(state)
        assert verdict.decomposable, (trial, dims, weights.tolist())
        got = np.sort(verdict.decomposition.weights)[::-1]
        assert np.max(np.abs(got - weights)) <= 1e-8, (trial, dims)
        rebuilt = reconstruct_tripartite(verdict.decomposition)
        assert abs(overlap(state, rebuilt)) >= 1 - 1e-9, (trial, dims)
        accepted += 1
    assert accepted == 200
    _passed("200/200 generator-built states accepted, weights 1e-8, overlap 1-1e-9")


def test_randomized_soundness():
    rng = np.random.default_rng(77001)
    dims_grid = [(a, b, c) for a in (2, 3, 4) for b in (2, 3, 4) for c in (2, 3, 4)]
    accepted = 0
    for trial in range(200):
        dims = dims_grid[trial % len(dims_grid)]
        state = haar_state(dims, seed=int(rng.integers(0, 2**32)))
        verdict = check(state)
        if verdict.decomposable:
            accepted += 1
            rebuilt = reconstruct_tripartite(verdict.decomposition)
            assert abs(overlap(state, rebuilt)) >= 1 - 1e-9, (trial, dims)
    # generic Haar states are entangled in the obstructing way
    assert accepted == 0
    _passed("200 Haar states: no unsound acceptance (all rejected)")


def test_a_bc_equal_spectrum():
    rng = np.random.default_rng(31415)
    for trial in range(100):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        state = haar_state(dims, seed=int(rng.integers(0, 2**32)))
        spec_a, _ = hermitian_eigendecompose(reduced_density(state, (0,)))
        spec_bc, _ = hermitian_eigendecompose(reduced_density(state, (1, 2)))
        n = spec_a.size
        assert np.max(np.abs(spec_a - spec_bc[:n])) <= 1e-10, (trial, dims)
        assert np.max(np.abs(spec_bc[n:]), initial=0.0) <= 1e-10
    _passed("100 random states: nonzero spectra of rho_A and rho_BC match to 1e-10")


def test_local_unitary_invariance():
    rng = np.random.default_rng(55117)
    for trial in range(50):
        if trial % 2 == 0:
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            k = min(dims)
            weights = draw_weights(rng, k, force_degenerate=(trial % 10 == 0) and k >= 2)
            state = schmidt_state(dims, weights, seed=int(rng.integers(0, 2**32)))
        else:
            dims = (int(rng.integers(2, 4)),) * 3
            state = haar_state(dims, seed=int(rng.integers(0, 2**32)))
        base = check(state)
        rotated = state
        for party in range(3):
            rotated = apply_local_unitary(rotated, party, haar_unitary(state.dims[party], rng))
        after = check(rotated)
        assert after.decomposable == base.decomposable, (trial, dims)
        if base.decomposable:
            w0 = np.sort(base.decomposition.weights)[::-1]
            w1 = np.sort(after.decomposition.weights)[::-1]
            assert np.max(np.abs(w0 - w1)) <= 1e-8, (trial, dims)
    _passed("50 states: verdict and sorted weights invariant under local unitaries")


def test_bipartite_engine():
    rng = np.random.default_rng(90210)
    for trial in range(100):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        state = haar_state(dims, seed=int(rng.integers(0, 2**32)))
        v = state.tensor
        sd = schmidt_decompose(v)
        rho_a = reduced_density(state, (0,))
        w, vecs = hermitian_eigendecompose(rho_a)
        k = sd.coefficients.size
        assert np.max(np.abs(sd.coefficients**2 - w[:k])) <= 1e-10, trial
        s, left, right = svd(v)
        rebuilt = (left * s) @ right.conj().T
        assert np.max(np.abs(rebuilt - v)) <= 1e-10
        rebuilt = (vecs * w) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - rho_a)) <= 1e-10
    bell = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)
    assert abs(entanglement_entropy(bell) - 1.0) <= 1e-12
    skew = np.diag([np.sqrt(0.9), np.sqrt(0.1)])
    direct = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert abs(entanglement_entropy(skew) - direct) <= 1e-12
    assert abs(entanglement_entropy(skew) - 0.46900) <= 1e-4
    _passed("bipartite engine: coefficients, reconstructions, Bell and (0.9, 0.1) entropy")


def test_degenerate_refinement():
    rng = np.random.default_rng(424242)
    ghz = ghz_state((2, 2, 2))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    rotations = [hadamard] + [haar_unitary(2, rng) for _ in range(5)]
    for u in rotations:
        rotated = apply_local_unitary(ghz, 0, u)
        verdict = check(rotated)
        assert verdict.decomposable
        assert np.max(np.abs(np.sort(verdict.decomposition.weights)[::-1] - 0.5)) <= 1e-9
    # generator-built degenerate states must never be falsely rejected
    for seed, weights in ((11, [0.4, 0.4, 0.2]), (12, [0.25] * 4), (13, [0.5, 0.5])):
        dims = (max(len(weights), 2), 6, 5)
        state = schmidt_state(dims, weights, seed=seed)
        rotated = state
        for party in range(3):
            rotated = apply_local_unitary(rotated, party, haar_unitary(dims[party], rng))
        verdict = check(rotated)
        assert verdict.decomposable, (seed, weights)
    # a refinement failure surfaces as the indeterminate exit code, nothing else
    assert EXIT_INDETERMINATE == 2
    _passed("rotated GHZ accepted with weights (0.5, 0.5); degenerate generators never rejected")


def test_cli_contract(tmp_path, capsys):
    from trischmidt.cli import _dump_json

    def run(args):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ghz_path = tmp_path / "ghz.json"
    code, _, _ = run(["gen", "ghz", "--dims", "2,2,2", "-o", str(ghz_path)])
    assert code == EXIT_DECOMPOSABLE
    code, out_a, _ = run(["check", str(ghz_path)])
    assert code == EXIT_DECOMPOSABLE
    code, out_b, _ = run(["check", str(ghz_path)])
    assert out_a == out_b  # byte-identical reports

    w_path = tmp_path / "w.json"
    run(["gen", "w", "--dims", "2,2,2", "-o", str(w_path)])
    code, out_w, _ = run(["check", str(w_path)])
    assert code == EXIT_NOT_DECOMPOSABLE
    assert abs(json.loads(out_w)["verdict"]["max_residual"] - 1 / np.sqrt(3)) <= 1e-9

    sd_args = ["gen", "schmidt", "--dims", "3,4,4", "--weights", "0.5,0.3,0.2", "--seed", "7"]
    code, sd_one, _ = run(sd_args + ["-o", str(tmp_path / "sd.json")])
    assert code == EXIT_DECOMPOSABLE
    code, sd_two, _ = run(sd_args)
    assert sd_two == (tmp_path / "sd.json").read_text()  # seeded gen is deterministic
    code, out_sd, _ = run(["check", str(tmp_path / "sd.json")])
    assert code == EXIT_DECOMPOSABLE
    weights = np.sort(np.array(json.loads(out_sd)["weights"]))[::-1]
    assert np.max(np.abs(weights - [0.5, 0.3, 0.2])) <= 1e-8

    code, out_spec, _ = run(["spectra", str(w_path)])
    assert code == EXIT_DECOMPOSABLE
    assert json.loads(out_spec)["spectrum_equal"]["A_BC"] is True

    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"dims": [2, 2, 2], "amplitudes": [[0.5, 0.0]]}', encoding="utf-8")
    code, _, err = run(["check", str(trunc)])
    assert code == EXIT_DATA and "DimensionMismatch" in err
    code, _, _ = run(["gen", "nope", "--dims", "2,2,2"])
    assert code == EXIT_USAGE
    _passed("CLI: exit codes honored, reports byte-deterministic for fixed seeds")
