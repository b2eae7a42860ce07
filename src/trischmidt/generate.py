"""Seeded state generators: GHZ, W, product, built decompositions, Haar.

All randomness flows through ``numpy.random.default_rng`` (the PCG64 bit
generator), so a fixed seed reproduces the same state byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import BadDims, BadWeights
from .states import PureState

RNG_NAME = "numpy-pcg64"


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (2, 3):
        raise BadDims(f"expected 2 or 3 dimensions, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise BadDims(f"every dimension must be >= 1, got {dims}")
    return dims


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph.conj()


def _basis_state(dims: tuple[int, ...], terms) -> PureState:
    """The state ``sum amplitude |index>`` over ``terms`` of ``(index, amplitude)``."""
    t = np.zeros(dims, dtype=np.complex128)
    for index, amplitude in terms:
        t[index] = amplitude
    return PureState(dims, t.reshape(-1))


def ghz_state(dims) -> PureState:
    """Uniform single-sum state over the computational basis, e.g. GHZ."""
    dims = _check_dims(dims)
    n = min(dims)
    return _basis_state(dims, [((i,) * len(dims), 1.0 / math.sqrt(n)) for i in range(n)])


def w_state(dims) -> PureState:
    """Uniform superposition of single-excitation basis states."""
    dims = _check_dims(dims)
    if any(d < 2 for d in dims):
        raise BadDims(f"w needs every dimension >= 2, got {dims}")
    amp = 1.0 / math.sqrt(len(dims))
    return _basis_state(dims, [(tuple(row), amp) for row in np.eye(len(dims), dtype=int)])


def product_state(dims) -> PureState:
    """The all-zero computational basis state."""
    dims = _check_dims(dims)
    return _basis_state(dims, [((0,) * len(dims), 1.0)])


def schmidt_state(dims, weights, seed: int) -> PureState:
    """Build ``sum_i sqrt(d_i) x_i (x) y_i (x) z_i`` from seeded Haar bases.

    Weights must be positive, at most min(dims) of them; they are
    normalized to sum to one.  The same seed reproduces the same bases,
    which makes this generator its own oracle in round-trip tests.
    """
    dims = _check_dims(dims)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise BadWeights("at least one weight is required")
    if np.any(w <= 0.0) or not np.isfinite(w).all():
        raise BadWeights(f"weights must be positive and finite, got {w.tolist()}")
    if w.size > min(dims):
        raise BadWeights(f"{w.size} weights exceed the smallest dimension {min(dims)}")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise BadWeights(f"weights sum to {total}, not a finite number")
    w = w / total
    rng = np.random.default_rng(seed)
    bases = [haar_unitary(d, rng)[:, : w.size] for d in dims]
    roots = np.sqrt(w)
    if len(dims) == 2:
        t = np.einsum("i,ai,bi->ab", roots, *bases)
    else:
        t = np.einsum("i,ai,bi,ci->abc", roots, *bases)
    return PureState(dims, t.reshape(-1))


def haar_state(dims, seed: int) -> PureState:
    """Pure state drawn uniformly from the unit sphere of the joint space."""
    dims = _check_dims(dims)
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, z / np.linalg.norm(z))
