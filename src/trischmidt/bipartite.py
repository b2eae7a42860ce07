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


def _as_state_matrix(v) -> np.ndarray:
    m = np.asarray(v, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"expected a 2-D amplitude matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("amplitude matrix contains non-finite entries")
    if not m.any():
        raise ZeroVector("cannot decompose the zero vector")
    return m


def schmidt_decompose(v) -> BipartiteSchmidt:
    """Schmidt-decompose a nonzero bipartite amplitude matrix.

    Zero coefficients are retained up to min(shape) so the basis blocks
    stay orthonormal and reconstruction keeps a predictable shape.
    """
    m = _as_state_matrix(v)
    res = linalg.svd(m)
    return BipartiteSchmidt(
        coefficients=res.singular_values,
        left_basis=res.left_vectors,
        right_basis=res.right_vectors.conj(),
        input_norm=float(np.linalg.norm(m)),
    )


def entropy_bits(probabilities, tol: Tolerances = DEFAULT_TOL) -> float:
    """Shannon entropy (base 2) of a spectrum, ignoring zero entries."""
    p = np.asarray(probabilities, dtype=float)
    if p.size == 0:
        return 0.0
    top = float(p.max(initial=0.0))
    if top <= 0.0:
        return 0.0
    p = p[p > tol.rank_rel * top]
    return float(0.0 - (p * np.log2(p)).sum())  # 0 - x, not -x: never -0.0


def entanglement_entropy(v, tol: Tolerances = DEFAULT_TOL) -> float:
    """Von Neumann entropy (bits) across the cut of a normalized state."""
    m = _as_state_matrix(v)
    deviation = abs(float(np.linalg.norm(m)) - 1.0)
    if deviation > tol.recon_abs:
        raise NotNormalized(f"state norm deviates from 1 by {deviation:.3e}")
    coeffs = linalg.svd(m).singular_values
    return entropy_bits(coeffs**2, tol)
