import math

import numpy as np
import pytest

from trischmidt import (
    NotNormalized,
    ZeroVector,
    entanglement_entropy,
    entropy_bits,
    haar_state,
    haar_unitary,
    reconstruct_bipartite,
    schmidt_decompose,
    schmidt_rank,
)

BELL = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2)


def svd2x2_values(m):
    """Closed-form singular values of a 2x2 matrix, descending."""
    g = m.conj().T @ m
    t = (g[0, 0] + g[1, 1]).real
    d = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    root = math.sqrt(max(t * t / 4 - d, 0.0))
    return math.sqrt(max(t / 2 + root, 0.0)), math.sqrt(max(t / 2 - root, 0.0))


def test_schmidt_decompose_bell():
    sd = schmidt_decompose(BELL)
    assert np.allclose(sd.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert abs(sd.input_norm - 1.0) < 1e-12


def test_schmidt_decompose_product():
    v = np.zeros((2, 2))
    v[0, 1] = 1.0
    sd = schmidt_decompose(v)
    assert np.allclose(sd.coefficients, [1.0, 0.0])


def test_schmidt_decompose_diagonal_weights():
    v = np.diag([np.sqrt(0.9), np.sqrt(0.1)])
    sd = schmidt_decompose(v)
    assert np.allclose(sd.coefficients, [np.sqrt(0.9), np.sqrt(0.1)])


def test_schmidt_decompose_rejects_zero():
    with pytest.raises(ZeroVector):
        schmidt_decompose(np.zeros((2, 2)))


def test_schmidt_rank_cases():
    assert schmidt_rank(BELL) == 2
    rng = np.random.default_rng(31)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert schmidt_rank(np.outer(b, c)) == 1


def test_schmidt_rank_w_slice_against_closed_form():
    m = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(3)
    hi, lo = svd2x2_values(m)
    assert abs(hi - 1 / np.sqrt(3)) < 1e-14 and abs(lo - 1 / np.sqrt(3)) < 1e-14
    assert schmidt_rank(m) == 2
    sd = schmidt_decompose(m)
    assert np.max(np.abs(sd.coefficients - [hi, lo])) < 1e-14


def test_reconstruct_round_trips():
    assert np.max(np.abs(reconstruct_bipartite(schmidt_decompose(BELL)) - BELL)) < 1e-12
    rng = np.random.default_rng(13)
    v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert np.max(np.abs(reconstruct_bipartite(schmidt_decompose(v)) - v)) <= 1e-10


def test_reconstruct_single_term():
    v = np.zeros((2, 3))
    v[1, 2] = 1.0
    sd = schmidt_decompose(v)
    assert np.allclose(reconstruct_bipartite(sd), v)


def test_entropy_bell_and_product():
    assert abs(entanglement_entropy(BELL) - 1.0) < 1e-12
    v = np.zeros((2, 2))
    v[0, 0] = 1.0
    assert entanglement_entropy(v) == 0.0
    # +0.0, so reports never print -0
    assert math.copysign(1.0, entanglement_entropy(v)) == 1.0
    assert math.copysign(1.0, entropy_bits([1.0, 0.0])) == 1.0


def test_entropy_09_01_against_direct_formula():
    # oracle: direct evaluation of -0.9 log2 0.9 - 0.1 log2 0.1
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    v = np.diag([np.sqrt(0.9), np.sqrt(0.1)])
    got = entanglement_entropy(v)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.46900) < 1e-4


def test_entropy_requires_normalized_input():
    with pytest.raises(NotNormalized):
        entanglement_entropy(2.0 * BELL)


def test_coefficients_match_reduced_density_spectrum():
    # squared coefficients equal the eigenvalues of either reduced state
    for seed in range(10):
        dims = (2 + seed % 7, 2 + (3 * seed) % 7)
        state = haar_state(dims, seed=600 + seed)
        v = state.tensor
        sd = schmidt_decompose(v)
        rho_a = v @ v.conj().T
        spec = np.sort(np.linalg.eigvalsh(rho_a))[::-1][: sd.coefficients.size]
        assert np.max(np.abs(sd.coefficients**2 - spec)) < 1e-10
        assert sd.coefficients.size == min(dims)
        assert schmidt_rank(v) <= min(dims)


def test_rank_one_iff_outer_product():
    rng = np.random.default_rng(9)
    for seed in range(5):
        state = haar_state((3, 4), seed=700 + seed)
        v = state.tensor
        sd = schmidt_decompose(v)
        rank = schmidt_rank(v)
        top = sd.coefficients[0] * np.outer(sd.left_basis[:, 0], sd.right_basis[:, 0])
        if rank == 1:
            assert np.max(np.abs(v - top)) < 1e-10
        else:
            assert np.max(np.abs(v - top)) > 1e-6
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    prod = np.outer(b / np.linalg.norm(b), np.ones(3) / np.sqrt(3))
    assert schmidt_rank(prod) == 1
    sd = schmidt_decompose(prod)
    rebuilt = sd.coefficients[0] * np.outer(sd.left_basis[:, 0], sd.right_basis[:, 0])
    assert np.max(np.abs(prod - rebuilt)) < 1e-10


def test_entropy_invariant_under_local_unitaries():
    rng = np.random.default_rng(29)
    state = haar_state((4, 4), seed=801)
    v = state.tensor
    base = entanglement_entropy(v)
    for _ in range(3):
        u = haar_unitary(4, rng)
        w = haar_unitary(4, rng)
        assert abs(entanglement_entropy(u @ v @ w.T) - base) < 1e-10


def test_bases_are_orthonormal_and_coefficients_sum():
    state = haar_state((3, 6), seed=404)
    sd = schmidt_decompose(state.tensor)
    k = sd.coefficients.size
    assert np.max(np.abs(sd.left_basis.conj().T @ sd.left_basis - np.eye(k))) < 1e-10
    assert np.max(np.abs(sd.right_basis.conj().T @ sd.right_basis - np.eye(k))) < 1e-10
    assert abs(np.sum(sd.coefficients**2) - sd.input_norm**2) < 1e-10
