import numpy as np
import pytest

from trischmidt import (
    DEFAULT_TOL,
    NotHermitian,
    Tolerances,
    hermitian_eigendecompose,
    numerical_rank,
    svd,
)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_eigendecompose_diagonal():
    res = hermitian_eigendecompose(np.diag([2.0, 1.0]))
    assert np.allclose(res.eigenvalues, [2.0, 1.0])
    assert np.allclose(res.eigenvectors, np.eye(2))


def test_eigendecompose_pauli_x():
    res = hermitian_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(res.eigenvalues, [1.0, -1.0])


def test_eigenvalue_sum_equals_trace():
    # oracle: the trace read off the diagonal, independent of the solver
    rng = np.random.default_rng(41)
    h = random_hermitian(4, rng)
    trace = sum(h[i, i].real for i in range(4))
    res = hermitian_eigendecompose(h)
    assert abs(res.eigenvalues.sum() - trace) < 1e-10


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_eigendecompose_reconstruction(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(n, rng)
    res = hermitian_eigendecompose(h)
    v, w = res.eigenvectors, res.eigenvalues
    assert np.all(np.diff(w) <= 1e-12)
    assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
    # each column carries the canonical phase
    for k in range(n):
        top = v[np.argmax(np.abs(v[:, k])), k]
        assert top.real > 0 and abs(top.imag) <= 1e-12 * abs(top)


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(5)
    h = random_hermitian(6, rng)
    a = hermitian_eigendecompose(h)
    b = hermitian_eigendecompose(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_svd_identity():
    res = svd(np.eye(2))
    assert np.allclose(res.singular_values, [1.0, 1.0])


def test_svd_column_vector():
    res = svd(np.array([[3.0], [4.0]]))
    assert np.allclose(res.singular_values, [5.0])


def test_svd_squared_values_match_gram_eigenvalues():
    # oracle: eigendecomposition of the explicitly accumulated Gram matrix
    rng = np.random.default_rng(17)
    a = random_complex((3, 4), rng)
    gram = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            gram[i, j] = sum(a[k, i].conjugate() * a[k, j] for k in range(3))
    expected = np.sort(np.linalg.eigvalsh(gram))[::-1]
    res = svd(a)
    k = res.singular_values.size
    assert np.max(np.abs(res.singular_values**2 - expected[:k])) < 1e-10
    assert np.max(np.abs(expected[k:])) < 1e-10


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (8, 4), (16, 16), (64, 48), (2, 4096)])
def test_svd_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a = random_complex(shape, rng)
    res = svd(a)
    m, n = shape
    k = min(m, n)
    # thin: k paired columns on each side, no m x m or n x n basis
    assert res.left_vectors.shape == (m, k)
    assert res.right_vectors.shape == (n, k)
    rebuilt = (res.left_vectors * res.singular_values) @ res.right_vectors.conj().T
    assert np.max(np.abs(rebuilt - a)) <= 1e-10
    assert np.max(np.abs(res.left_vectors.conj().T @ res.left_vectors - np.eye(k))) <= 1e-10
    assert np.max(np.abs(res.right_vectors.conj().T @ res.right_vectors - np.eye(k))) <= 1e-10
    assert np.all(np.diff(res.singular_values) <= 0)
    assert np.all(res.singular_values >= 0)


def test_numerical_rank_threshold_rule():
    assert numerical_rank([1.0, 1e-15]) == 1
    assert numerical_rank([0.5, 0.5]) == 2
    assert numerical_rank([]) == 0
    assert numerical_rank([0.0, 0.0]) == 0


def test_numerical_rank_of_w_slice():
    # oracle: closed-form singular values of a 2x2 matrix via its Gram trace
    # and determinant; the slice is (|01> + |10>)/sqrt(3)
    m = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(3)
    g = m.conj().T @ m
    t = g[0, 0].real + g[1, 1].real
    d = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    root = np.sqrt(max(t * t / 4 - d, 0.0))
    values = np.sqrt([t / 2 + root, t / 2 - root])
    assert numerical_rank(values) == 2
    assert np.allclose(values, 1 / np.sqrt(3))


def test_numerical_rank_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        values = np.sort(np.abs(rng.standard_normal(6)))[::-1]
        values[rng.integers(0, 6)] = 0.0
        values = np.sort(values)[::-1]
        scale = float(rng.uniform(1e-8, 1e8))
        assert numerical_rank(values) == numerical_rank(values * scale)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(degen_rel=1.5)
    assert 0 < DEFAULT_TOL.rank_rel < 1


def _scalar_phase(v):
    # the scalar rule the column-wise helper must reproduce bit for bit
    a = complex(v[int(np.argmax(np.abs(v)))])
    return 1.0 + 0.0j if abs(a) == 0.0 else abs(a) / a


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_column_phases_match_scalar_rule_bit_for_bit():
    from trischmidt.linalg import _column_phases

    rng = np.random.default_rng(43)
    columns = random_complex((7, 2000), rng) * 10.0 ** rng.integers(-300, 300, size=2000)
    edges = np.array([
        [0, 2, -2, 2j, -2j, 1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 1, 1j, 0.6 + 0.8j,
         complex(-3.0, -0.0), complex(0.0, -3.0), complex(-0.0, 3.0)],
        [0, 0.5, 1j, -1, 0, 0, 0, 0, 0, 1j, -1, 0.8 - 0.6j, 1, 1, -2],
    ])
    for v in (columns, edges):
        expected = np.array([_scalar_phase(v[:, k]) for k in range(v.shape[1])])
        assert np.array_equal(_bits(_column_phases(v)), _bits(expected))
    # equal magnitudes in rows 0 and 1: the lowest index wins
    assert _column_phases(edges)[9] == 1.0
    assert _column_phases(edges)[10] == -1j


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_eigendecompose_phases_match_scalar_loop(n):
    rng = np.random.default_rng(44 + n)
    h = random_hermitian(n, rng)
    _, v = np.linalg.eigh(h)
    v = np.ascontiguousarray(v[:, ::-1])
    for k in range(n):
        v[:, k] *= _scalar_phase(v[:, k])
    assert np.array_equal(_bits(hermitian_eigendecompose(h).eigenvectors), _bits(v))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 2)])
def test_svd_phases_match_scalar_loop(shape):
    rng = np.random.default_rng(45)
    a = random_complex(shape, rng)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(vh.conj().T)
    for i in range(u.shape[1]):
        ph = _scalar_phase(u[:, i])
        u[:, i] *= ph
        v[:, i] *= ph
    res = svd(a)
    assert np.array_equal(_bits(res.left_vectors), _bits(u))
    assert np.array_equal(_bits(res.right_vectors), _bits(v))
