"""Dense complex linear-algebra kernels with deterministic output conventions.

Matrices are plain numpy arrays with ``complex128`` entries.  The kernels
wrap LAPACK (via ``numpy.linalg``) and then impose the package-wide
conventions on the result:

* thin SVDs: min(m, n) paired columns, never an m x m or n x n basis;
* eigenvalues and singular values sorted descending;
* every returned vector rotated so its largest-magnitude entry is real
  and positive (magnitude ties broken by lowest index);
* exactly tied eigenvalues / singular values ordered by descending
  lexicographic key of the phase-fixed vectors, so identical inputs can
  never produce permuted outputs.

``numerical_rank`` is the one rank count: of one descending spectrum, or
row by row of a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    rank_rel
        Relative cutoff: a singular value or eigenvalue counts as zero
        when it is <= ``rank_rel`` times the largest one.
    degen_rel
        Relative gap below which two eigenvalues count as equal.
    recon_abs
        Absolute bound for symmetry, orthonormality, normalization and
        reconstruction checks.
    """

    rank_rel: float = 1e-10
    degen_rel: float = 1e-8
    recon_abs: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "degen_rel", "recon_abs"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a nonempty 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")
    return m


def _column_phases(v: np.ndarray) -> np.ndarray:
    """Per column, ``abs(a) / a`` of its largest-magnitude entry ``a`` (lowest index among
    equals), which makes that entry real positive; 1 for a zero column."""
    a = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.array([abs(x) / x if x else 1.0 for x in a.tolist()], dtype=np.complex128)


def _order_ties(values: np.ndarray, column_blocks: list[np.ndarray]) -> None:
    """Reorder columns inside runs of exactly equal (descending) values, in place.

    Ties go by descending lexicographic key of the primary block's (first
    entry's) columns, interleaved (re, im) row by row; equal keys keep their
    order.  Every block is permuted identically so pairings survive.
    """
    if not np.any(values[1:] == values[:-1]):
        return
    primary = column_blocks[0]
    keys = np.stack([primary.real, primary.imag], axis=1).reshape(-1, primary.shape[1])
    order = np.lexsort(np.vstack([-keys[::-1], -values]))
    for block in column_blocks:
        block[:] = block[:, order]


def hermitian_eigendecompose(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(values, vectors)`` of a (numerically) Hermitian matrix.

    ``vectors[:, k]`` belongs to ``values[k]``; the column set is unitary.
    Raises NotHermitian when ``a`` is not square or ``max|A - A^H|``
    exceeds ``tol.recon_abs``; NoConvergence when LAPACK gives up.
    """
    m = as_complex_matrix(a)
    rows, cols = m.shape
    if rows != cols:
        raise NotHermitian(f"matrix is {rows}x{cols}, not square")
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if deviation > tol.recon_abs:
        raise NotHermitian(
            f"max |A - A^H| = {deviation:.3e} exceeds recon_abs = {tol.recon_abs:.3e}"
        )
    return _eigh_canonical((m + m.conj().T) / 2.0, tol)


def _lapack(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` for a ``numpy.linalg`` routine; LAPACK failure raises NoConvergence.

    Every raw ``np.linalg.svd`` and ``np.linalg.eigh`` call in the package goes
    through here, with ``fn`` looked up by the caller at call time.  The tests
    record each call here, routine, input shape and keywords, and compare them
    with a table of the exact LAPACK work each answer makes
    (``tests/test_work_budget.py``), where a lint also holds every raw call here.
    """
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _eigh_canonical(m, tol: Tolerances, retained: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of an exactly Hermitian matrix, unchecked, in the module's conventions."""
    w, v = _lapack(np.linalg.eigh, m)
    w = np.ascontiguousarray(w[::-1])
    # ``retained`` keeps the eigenvectors above the rank cutoff, which no exact tie straddles
    kept = numerical_rank(np.maximum(w, 0.0), tol) if retained else len(w)
    v = np.ascontiguousarray(v[:, ::-1][:, :kept])
    v *= _column_phases(v)
    _order_ties(w[:kept], [v])
    return w, v


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(s, u, v)``, ``A = U diag(s) V^H``, in the module's conventions.

    With ``k = min(m, n)``, ``u`` (m x k) and ``v`` (n x k) have orthonormal
    columns and ``s`` has length k.  Paired left/right columns are rotated
    by a common phase so each left vector's largest-magnitude entry is real
    positive.
    """
    u, s, vh = _lapack(np.linalg.svd, as_complex_matrix(a), full_matrices=False)
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(vh.conj().T)
    ph = _column_phases(u)
    u *= ph
    v *= ph
    _order_ties(s, [u, v])
    return s, u, v


def numerical_rank(values, tol: Tolerances = DEFAULT_TOL) -> int | tuple[int, ...]:
    """Count entries strictly above ``rank_rel`` times the largest value.

    ``values`` must be nonnegative and sorted descending.  A 1-D list gives
    one count, 0 when it is empty or all zero; a 2-D stack gives a tuple
    with one count per row.
    """
    vals = np.asarray(values, dtype=float)
    above = vals > tol.rank_rel * vals[..., :1]  # 1-D: numpy's C count, with no axis to wrap
    return tuple(above.sum(axis=-1).tolist()) if vals.ndim > 1 else int(np.count_nonzero(above))


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis, keepdims=True)`` bit for bit, by its own expression."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis, keepdims=True))

