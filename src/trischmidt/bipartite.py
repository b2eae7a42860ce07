"""Bipartite Schmidt decomposition and entanglement entropy.

A bipartite state is handled as its amplitude matrix ``v[j, k]``; the
decomposition ``v = sum_i c_i  left_i (x) right_i`` is the SVD written in
state-vector form (the right basis is the conjugated V block, so no
further conjugation appears in reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, NotNormalized, ZeroVector
from .linalg import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class BipartiteSchmidt:
    """Schmidt data of one bipartite vector.

    ``coefficients`` are nonnegative, descending, of length min(shape);
    the basis blocks hold one orthonormal column per coefficient.
    ``input_norm`` is the Frobenius norm of the decomposed vector, so
    ``sum(coefficients**2) == input_norm**2`` up to roundoff.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    input_norm: float


def schmidt_decompose(v) -> BipartiteSchmidt:
    """Schmidt-decompose a nonzero bipartite amplitude matrix.

    Zero coefficients are retained up to min(shape) so the basis blocks
    stay orthonormal and reconstruction keeps a predictable shape.
    """
    m = linalg.as_complex_matrix(v)
    if not m.any():
        raise ZeroVector("cannot decompose the zero vector")
    coeffs, left, right = linalg.svd(m)
    return BipartiteSchmidt(coeffs, left, right.conj(), float(np.linalg.norm(m)))


def entropy_bits(probabilities, tol: Tolerances = DEFAULT_TOL) -> float:
    """Shannon entropy (base 2) of a spectrum in any order, over the entries ``numerical_rank`` keeps."""
    p = np.asarray(probabilities, dtype=float)
    if not np.isfinite(p).all():
        raise DimensionMismatch("spectrum contains non-finite entries")
    p = np.maximum(np.sort(p)[::-1], 0.0)
    p = p[: linalg.numerical_rank(p, tol)]
    return float(0.0 - (p * np.log2(p)).sum())  # 0 - x, not -x: never -0.0


def entanglement_entropy(v, tol: Tolerances = DEFAULT_TOL) -> float:
    """Von Neumann entropy (bits) across the cut of a normalized state.

    Reads the norm from the matrix and the Schmidt coefficients from one
    values-only SVD, so no singular vector is computed; the errors are those of
    ``schmidt_decompose``, plus ``NotNormalized``.
    """
    m = linalg.as_complex_matrix(v)
    if not m.any():
        raise ZeroVector("cannot decompose the zero vector")
    deviation = abs(float(np.linalg.norm(m)) - 1.0)
    if deviation > tol.recon_abs:
        raise NotNormalized(f"state norm deviates from 1 by {deviation:.3e}")
    return entropy_bits(linalg._lapack(np.linalg.svd, m, compute_uv=False) ** 2, tol)
