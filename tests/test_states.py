import itertools

import numpy as np
import pytest

from trischmidt import (
    DimensionMismatch,
    NotNormalized,
    PureState,
    ghz_state,
    haar_state,
    haar_unitary,
    overlap,
    partial_inner_product,
    reduced_density,
    validate,
    w_state,
)

from helpers import apply_local_unitary


def brute_force_reduced(state, keep):
    """Partial trace by explicit index summation, the slow way."""
    dims = state.dims
    t = state.tensor
    keep = tuple(keep)
    rest = tuple(i for i in range(len(dims)) if i not in keep)
    keep_sizes = [dims[i] for i in keep]
    rest_sizes = [dims[i] for i in rest]
    dim = int(np.prod(keep_sizes))
    rho = np.zeros((dim, dim), dtype=complex)
    for row, ki in enumerate(itertools.product(*[range(s) for s in keep_sizes])):
        for col, kj in enumerate(itertools.product(*[range(s) for s in keep_sizes])):
            acc = 0.0 + 0.0j
            for rr in itertools.product(*[range(s) for s in rest_sizes]):
                idx_i = [0] * len(dims)
                idx_j = [0] * len(dims)
                for axis, value in zip(keep, ki):
                    idx_i[axis] = value
                for axis, value in zip(keep, kj):
                    idx_j[axis] = value
                for axis, value in zip(rest, rr):
                    idx_i[axis] = value
                    idx_j[axis] = value
                acc += t[tuple(idx_i)] * t[tuple(idx_j)].conjugate()
            rho[row, col] = acc
    return rho


def test_validate_accepts_ghz():
    state = ghz_state((2, 2, 2))
    assert validate(state) is state


def test_validate_rejects_wrong_amplitude_count():
    with pytest.raises(DimensionMismatch):
        validate(PureState((2, 2, 2), np.ones(7)))


def test_validate_rejects_zero_state():
    with pytest.raises(NotNormalized):
        validate(PureState((2, 2, 2), np.zeros(8)))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.5, -np.inf)])
def test_validate_rejects_non_finite_amplitudes(entry):
    amplitudes = np.full(8, np.sqrt(1 / 8), dtype=complex)
    amplitudes[5] = entry
    with pytest.raises(NotNormalized, match="non-finite entries"):
        validate(PureState((2, 2, 2), amplitudes))


def test_validate_reports_a_finite_entry_too_large_to_square_as_a_deviation():
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[0] = 1e200
    with pytest.raises(NotNormalized, match="deviates from 1 by inf"):
        validate(PureState((2, 2, 2), amplitudes))


def test_validate_rejects_wrong_party_count():
    with pytest.raises(DimensionMismatch):
        validate(PureState((8,), np.ones(8) / np.sqrt(8)))


def test_partial_inner_product_ghz():
    ghz = ghz_state((2, 2, 2))
    slice0 = partial_inner_product(ghz, 0, [1.0, 0.0])
    expected = np.zeros((2, 2))
    expected[0, 0] = 1 / np.sqrt(2)
    assert np.allclose(slice0, expected)


def test_partial_inner_product_w():
    w = w_state((2, 2, 2))
    slice0 = partial_inner_product(w, 0, [1.0, 0.0])
    expected = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(3)
    assert np.allclose(slice0, expected)
    slice1 = partial_inner_product(w, 0, [0.0, 1.0])
    expected1 = np.zeros((2, 2))
    expected1[0, 0] = 1 / np.sqrt(3)
    assert np.allclose(slice1, expected1)


def test_partial_inner_product_requires_unit_vector():
    ghz = ghz_state((2, 2, 2))
    with pytest.raises(NotNormalized):
        partial_inner_product(ghz, 0, [2.0, 0.0])
    with pytest.raises(DimensionMismatch):
        partial_inner_product(ghz, 0, [1.0, 0.0, 0.0])


def test_partial_inner_product_completeness():
    # summing |u_i> (x) <u_i|psi> over any orthonormal basis rebuilds psi
    rng = np.random.default_rng(11)
    state = haar_state((3, 4, 2), seed=902)
    for party in range(3):
        basis = haar_unitary(state.dims[party], rng)
        rebuilt = np.zeros(state.dims, dtype=complex)
        for i in range(state.dims[party]):
            piece = partial_inner_product(state, party, basis[:, i])
            rebuilt += np.tensordot(basis[:, i], piece, axes=0).transpose(
                np.argsort([party] + [p for p in range(3) if p != party])
            )
        assert np.max(np.abs(rebuilt - state.tensor)) < 1e-12


def test_reduced_density_ghz():
    rho = reduced_density(ghz_state((2, 2, 2)), (0,))
    assert np.allclose(rho, np.eye(2) / 2)


def test_reduced_density_w_matches_brute_force():
    w = w_state((2, 2, 2))
    rho = reduced_density(w, (0,))
    assert np.allclose(rho, np.diag([2 / 3, 1 / 3]))
    assert np.max(np.abs(rho - brute_force_reduced(w, (0,)))) < 1e-12


def test_reduced_density_product_projector():
    state = PureState((2, 2, 2), np.eye(8)[0])
    rho = reduced_density(state, (1, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_reduced_density_random_matches_brute_force():
    state = haar_state((2, 3, 2), seed=77)
    for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
        rho = reduced_density(state, keep)
        assert np.max(np.abs(rho - brute_force_reduced(state, keep))) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_reduced_density_rejects_bad_subsets():
    ghz = ghz_state((2, 2, 2))
    with pytest.raises(DimensionMismatch):
        reduced_density(ghz, ())
    with pytest.raises(DimensionMismatch):
        reduced_density(ghz, (0, 1, 2))


def test_apply_local_unitary_identity_and_flip():
    state = PureState((2, 2, 2), np.eye(8)[0])
    same = apply_local_unitary(state, 0, np.eye(2))
    assert np.allclose(same.amplitudes, state.amplitudes)
    flip = apply_local_unitary(state, 0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(flip.amplitudes, np.eye(8)[4])  # |100>


def test_apply_local_unitary_preserves_other_reduced_density():
    ghz = ghz_state((2, 2, 2))
    u = haar_unitary(2, np.random.default_rng(8))
    rotated = apply_local_unitary(ghz, 1, u)
    before = brute_force_reduced(ghz, (0,))
    after = brute_force_reduced(rotated, (0,))
    assert np.max(np.abs(after - before)) < 1e-10


def test_overlap_values():
    ghz = ghz_state((2, 2, 2))
    w = w_state((2, 2, 2))
    zero = PureState((2, 2, 2), np.eye(8)[0])
    assert abs(overlap(ghz, ghz) - 1.0) < 1e-12
    assert abs(overlap(ghz, w)) < 1e-12  # disjoint supports
    assert abs(overlap(zero, ghz) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(DimensionMismatch):
        overlap(ghz, PureState((2, 4), ghz.amplitudes))


def test_slice_gram_equals_reduced_density():
    # Gram matrix of the slices over any orthonormal basis of party 0 is
    # the matrix of rho_A in that basis
    rng = np.random.default_rng(19)
    for seed in range(5):
        state = haar_state((3, 3, 4), seed=1000 + seed)
        basis = haar_unitary(3, rng)
        rho = reduced_density(state, (0,))
        slices = [partial_inner_product(state, 0, basis[:, i]) for i in range(3)]
        gram = np.array([[np.vdot(slices[j], slices[i]) for j in range(3)] for i in range(3)])
        expected = np.array(
            [[basis[:, i].conj() @ rho @ basis[:, j] for j in range(3)] for i in range(3)]
        )
        assert np.max(np.abs(gram - expected)) < 1e-10
        assert abs(sum(np.linalg.norm(s) ** 2 for s in slices) - 1.0) < 1e-10


def test_a_bc_spectra_agree():
    for seed in range(5):
        state = haar_state((3, 4, 2), seed=400 + seed)
        spec_a = np.sort(np.linalg.eigvalsh(reduced_density(state, (0,))))[::-1]
        spec_bc = np.sort(np.linalg.eigvalsh(reduced_density(state, (1, 2))))[::-1]
        assert np.max(np.abs(spec_a - spec_bc[: len(spec_a)])) < 1e-10
        assert np.max(np.abs(spec_bc[len(spec_a):])) < 1e-10


def test_local_unitary_preserves_spectra_of_other_parties():
    state = haar_state((2, 3, 3), seed=55)
    rng = np.random.default_rng(2)
    rotated = apply_local_unitary(state, 2, haar_unitary(3, rng))
    for party in (0, 1):
        before = np.linalg.eigvalsh(reduced_density(state, (party,)))
        after = np.linalg.eigvalsh(reduced_density(rotated, (party,)))
        assert np.max(np.abs(before - after)) < 1e-10
