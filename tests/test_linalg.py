import numpy as np
import pytest

from trischmidt import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    Tolerances,
    hermitian_eigendecompose,
    numerical_rank,
    schmidt_decompose,
    svd,
)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_eigendecompose_diagonal():
    w, v = hermitian_eigendecompose(np.diag([2.0, 1.0]))
    assert np.allclose(w, [2.0, 1.0])
    assert np.allclose(v, np.eye(2))


def test_eigendecompose_pauli_x():
    w, _ = hermitian_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])


def test_eigenvalue_sum_equals_trace():
    # oracle: the trace read off the diagonal, independent of the solver
    rng = np.random.default_rng(41)
    h = random_hermitian(4, rng)
    trace = sum(h[i, i].real for i in range(4))
    w, _ = hermitian_eigendecompose(h)
    assert abs(w.sum() - trace) < 1e-10


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_eigendecompose_reconstruction(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(n, rng)
    w, v = hermitian_eigendecompose(h)
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
    wa, va = hermitian_eigendecompose(h)
    wb, vb = hermitian_eigendecompose(h.copy())
    assert np.array_equal(wa, wb)
    assert np.array_equal(va, vb)


def test_svd_identity():
    s, _, _ = svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_column_vector():
    s, _, _ = svd(np.array([[3.0], [4.0]]))
    assert np.allclose(s, [5.0])


def test_svd_squared_values_match_gram_eigenvalues():
    # oracle: eigendecomposition of the explicitly accumulated Gram matrix
    rng = np.random.default_rng(17)
    a = random_complex((3, 4), rng)
    gram = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            gram[i, j] = sum(a[k, i].conjugate() * a[k, j] for k in range(3))
    expected = np.sort(np.linalg.eigvalsh(gram))[::-1]
    s, _, _ = svd(a)
    k = s.size
    assert np.max(np.abs(s**2 - expected[:k])) < 1e-10
    assert np.max(np.abs(expected[k:])) < 1e-10


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (8, 4), (16, 16), (64, 48), (2, 4096)])
def test_svd_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a = random_complex(shape, rng)
    s, u, v = svd(a)
    m, n = shape
    k = min(m, n)
    # thin: k paired columns on each side, no m x m or n x n basis
    assert u.shape == (m, k)
    assert v.shape == (n, k)
    rebuilt = (u * s) @ v.conj().T
    assert np.max(np.abs(rebuilt - a)) <= 1e-10
    assert np.max(np.abs(u.conj().T @ u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(k))) <= 1e-10
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


def test_numerical_rank_threshold_rule():
    assert numerical_rank([1.0, 1e-15]) == 1
    assert numerical_rank([0.5, 0.5]) == 2
    assert numerical_rank([]) == 0
    assert numerical_rank([0.0, 0.0]) == 0


def _count_along_last_axis(values, tol=DEFAULT_TOL):
    # the form numerical_rank must reproduce exactly, for 1-D and 2-D input alike
    vals = np.asarray(values, dtype=float)
    ranks = np.count_nonzero(vals > tol.rank_rel * vals[..., :1], axis=-1)
    return tuple(ranks.tolist()) if vals.ndim > 1 else int(ranks)


@pytest.mark.parametrize("values, rank", [
    ([], 0), ([0.0], 0), ([0.0, 0.0, 0.0], 0), ([2.0], 1),
    ([1.0, 0.25, 0.25], 1),  # exactly at the cutoff: not above it
    ([1.0, np.nextafter(0.25, 1.0), 0.25], 2),
    ([[1.0, 0.5, 0.25], [0.0, 0.0, 0.0], [4.0, np.nextafter(1.0, 2.0), 1.0]], (2, 0, 2)),
    (np.zeros((3, 0)), (0, 0, 0)), (np.zeros((0, 4)), ()),
], ids=["empty", "zero", "zeros", "one", "at-cutoff", "above-cutoff", "rows", "empty-rows",
        "no-rows"])
def test_numerical_rank_matches_the_count_along_the_last_axis(values, rank):
    tol = Tolerances(rank_rel=0.25)
    assert numerical_rank(values, tol) == _count_along_last_axis(values, tol) == rank
    assert type(numerical_rank(values, tol)) is type(rank)
    rng = np.random.default_rng(49)
    stack = -np.sort(-rng.uniform(0.0, 1.0, (50, 6)) ** 40, axis=1)  # ranks spread over 1-6
    assert numerical_rank(stack) == _count_along_last_axis(stack)
    assert [numerical_rank(row) for row in stack] == list(_count_along_last_axis(stack))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_norms_are_the_bits_of_numpy_norm(axis):
    # the power steps' norms along the last two axes, and the unit-column test's along
    # axis 0, on contiguous and strided input, extreme magnitudes and zero vectors
    from trischmidt.linalg import _norms

    rng = np.random.default_rng(50 + axis)
    x = random_complex((5, 6, 7), rng) * 10.0 ** rng.integers(-150, 150, size=(5, 6, 7))
    x[0] = 0.0
    for a in (x, x[:, ::2, ::-3], np.swapaxes(x, 0, 2), x[:, :1], x[:, :, :1], x.real):
        expected = np.linalg.norm(a, axis=axis, keepdims=True)
        assert np.array_equal(_bits(_norms(a, axis)), _bits(expected))


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: svd([[np.nan]]),
        lambda: svd(np.zeros((0, 0))),
        lambda: svd(np.ones(3)),
        lambda: hermitian_eigendecompose(np.zeros((0, 0))),
        lambda: hermitian_eigendecompose([[1.0, np.inf], [np.inf, 1.0]]),
        lambda: schmidt_decompose([[np.inf]]),
        lambda: schmidt_decompose(np.zeros((2, 0))),
    ],
    ids=["svd-nan", "svd-empty", "svd-1d", "eigh-empty", "eigh-inf", "schmidt-inf", "schmidt-empty"],
)
def test_matrix_input_faults_raise_dimension_mismatch(call):
    # one rule for 2-D, nonempty and finite input, inside the package's error hierarchy
    with pytest.raises(DimensionMismatch):
        call()


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
    assert np.array_equal(_bits(hermitian_eigendecompose(h)[1]), _bits(v))


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
    _, got_u, got_v = svd(a)
    assert np.array_equal(_bits(got_u), _bits(u))
    assert np.array_equal(_bits(got_v), _bits(v))


def _lex_key(v):
    return tuple(np.stack([v.real, v.imag], axis=1).ravel().tolist())


def _scalar_tie_order(values, blocks):
    # reference: scan runs of exactly equal values and sort each run by a
    # stable, descending sort of the primary block's (re, im) key tuples
    n, start = len(values), 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            order = sorted(range(start, stop), key=lambda k: _lex_key(blocks[0][:, k]),
                           reverse=True)
            for block in blocks:
                block[:, start:stop] = block[:, order]
        start = stop


def test_order_ties_matches_scalar_loop_bit_for_bit():
    from trischmidt.linalg import _order_ties

    rng = np.random.default_rng(46)
    for _ in range(300):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        values = np.sort(rng.choice([2.0, 1.0, 0.0, -0.0], size=k))[::-1].copy()
        # entries from a small set, so keys tie on many leading components
        primary = (rng.integers(-1, 2, (n, k)) + 1j * rng.integers(-1, 2, (n, k))) * 0.5
        primary[:, rng.random(k) < 0.2] = 0.0  # zero columns
        primary[:, rng.random(k) < 0.2] = primary[:, :1]  # duplicate columns
        primary[rng.random((n, k)) < 0.2] *= -1.0  # signed zeros
        paired = random_complex((3, k), rng)
        expected = [primary.copy(), paired.copy()]
        _scalar_tie_order(values, expected)
        got = [primary.copy(), paired.copy()]
        _order_ties(values, got)
        for a, b in zip(got, expected):
            assert np.array_equal(_bits(a), _bits(b))


def _ghz_rho():
    from trischmidt import ghz_state, reduced_density

    return reduced_density(ghz_state((3, 3, 3)), (1, 2))  # 1/3 three times, then zeros


TIED = {
    "ghz-rho": _ghz_rho(),
    "identity-block": np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.0]).astype(complex),
    "bell": np.eye(2) / np.sqrt(2),
    "zero-columns": np.array([[1.0, 0, 0, 0], [0, 0, 1j, 0], [0, 0, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(TIED))
def test_svd_tie_order_matches_scalar_loop(name):
    from trischmidt.linalg import _column_phases

    a = np.asarray(TIED[name], dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(vh.conj().T)
    ph = _column_phases(u)
    u *= ph
    v *= ph
    assert np.any(s[1:] == s[:-1])  # the input has exact ties
    _scalar_tie_order(s, [u, v])
    got_s, got_u, got_v = svd(a)
    for got, expected in ((got_s, s), (got_u, u), (got_v, v)):
        assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("name", ["ghz-rho", "identity-block", "bell"])
def test_eigendecompose_tie_order_matches_scalar_loop(name):
    from trischmidt.linalg import _column_phases, _eigh_canonical

    a = np.asarray(TIED[name], dtype=complex)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    w, v = np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])
    v *= _column_phases(v)
    assert np.any(w[1:] == w[:-1])  # the input has exact ties
    kept = numerical_rank(np.maximum(w, 0.0))
    retained = v[:, :kept].copy()
    _scalar_tie_order(w, [v])
    _scalar_tie_order(w[:kept], [retained])
    for got, expected in ((hermitian_eigendecompose(a), (w, v)),
                          (_eigh_canonical(a, DEFAULT_TOL, retained=True), (w, retained))):
        for x, y in zip(got, expected):
            assert np.array_equal(_bits(x), _bits(y))
