import warnings

import numpy as np
import pytest

from trischmidt import (
    BadDims,
    BadWeights,
    ghz_state,
    haar_state,
    haar_unitary,
    product_state,
    schmidt_state,
    validate,
    w_state,
)

from helpers import is_unitary


def test_ghz_amplitudes():
    state = ghz_state((2, 2, 2))
    amps = state.amplitudes
    assert abs(amps[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(amps[7] - 1 / np.sqrt(2)) < 1e-15
    assert np.count_nonzero(amps) == 2
    validate(state)


def test_ghz_generalizes_to_qudits():
    state = ghz_state((3, 4, 3))
    t = state.tensor
    for i in range(3):
        assert abs(t[i, i, i] - 1 / np.sqrt(3)) < 1e-15
    assert np.count_nonzero(state.amplitudes) == 3


def test_w_amplitudes():
    state = w_state((2, 2, 2))
    t = state.tensor
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert abs(t[idx] - 1 / np.sqrt(3)) < 1e-15
    assert np.count_nonzero(state.amplitudes) == 3


def test_w_rejects_trivial_dims():
    with pytest.raises(BadDims):
        w_state((2, 1, 2))


def test_product_state():
    state = product_state((2, 3, 2))
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_dims_validation():
    with pytest.raises(BadDims):
        ghz_state((2,))
    with pytest.raises(BadDims):
        ghz_state((2, 0, 2))


def test_schmidt_state_deterministic_and_normalized():
    a = schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=9)
    b = schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=9)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    validate(a)
    c = schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=10)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_schmidt_state_normalizes_weights():
    a = schmidt_state((2, 2, 2), [2.0, 2.0], seed=4)
    b = schmidt_state((2, 2, 2), [0.5, 0.5], seed=4)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-15


def test_schmidt_state_weight_validation():
    with pytest.raises(BadWeights):
        schmidt_state((2, 2, 2), [], seed=1)
    with pytest.raises(BadWeights):
        schmidt_state((2, 2, 2), [0.5, -0.5], seed=1)
    with pytest.raises(BadWeights):
        schmidt_state((2, 2, 2), [0.4, 0.3, 0.3], seed=1)


def test_schmidt_state_rejects_overflowing_weight_sum():
    # each weight is finite, their sum is not; no overflow warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadWeights, match="sum to inf"):
            schmidt_state((2, 2, 2), [1e308, 1e308], seed=1)


def test_schmidt_state_bipartite():
    state = schmidt_state((3, 5), [0.6, 0.4], seed=2)
    validate(state)
    rho = state.tensor @ state.tensor.conj().T
    spec = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.max(np.abs(spec[:2] - [0.6, 0.4])) < 1e-12


def test_haar_state_normalized_and_seeded():
    a = haar_state((2, 3, 4), seed=12)
    b = haar_state((2, 3, 4), seed=12)
    validate(a)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 7):
        assert is_unitary(haar_unitary(dim, rng))
