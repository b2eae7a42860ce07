"""Helpers the tests share; the package itself needs none of them.

The tests only ever pass Haar or hand-written unitaries, so nothing here
validates its input.
"""

import itertools

import numpy as np

from trischmidt import PureState, haar_unitary, schmidt_state
from trischmidt.generate import _basis_state as basis_state


def apply_local_unitary(state: PureState, party: int, u) -> PureState:
    """``state`` with the matrix ``u`` applied to one party."""
    t = np.tensordot(np.asarray(u, dtype=np.complex128), state.tensor, axes=(1, party))
    return PureState(state.dims, np.moveaxis(t, 0, party).reshape(-1))


def haar_rotated(state: PureState, seed: int) -> PureState:
    """``state`` with a Haar unitary drawn from ``default_rng(seed)`` applied to each party."""
    rng = np.random.default_rng(seed)
    for party, d in enumerate(state.dims):
        state = apply_local_unitary(state, party, haar_unitary(d, rng))
    return state


def permute_parties(state: PureState, perm) -> PureState:
    """``state`` with its parties reordered: party ``k`` of the result is party ``perm[k]``."""
    return PureState(tuple(state.dims[p] for p in perm), state.tensor.transpose(perm).reshape(-1))


def is_unitary(u, atol: float = 1e-10) -> bool:
    """True iff ``u`` is square and ``max|U^H U - I| <= atol``."""
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= atol


def reconstruct_bipartite(sd) -> np.ndarray:
    """The amplitude matrix ``sum_i c_i left_i right_i^T`` of a ``BipartiteSchmidt``."""
    return (sd.left_basis * sd.coefficients) @ sd.right_basis.T


# eps_ijk / sqrt(6): every slice is an antisymmetric matrix of rank two
ANTISYM = basis_state((3, 3, 3), [(perm, np.linalg.det(np.eye(3)[list(perm)]) / np.sqrt(6))
                                  for perm in itertools.permutations(range(3))])
# rho_A = diag(0.4, 0.3, 0.3): the untied eigenvector's slice has rank two in any basis
UNTIED_ENTANGLED = basis_state((3, 4, 4), [((0, 0, 0), np.sqrt(0.2)), ((0, 1, 1), np.sqrt(0.2)),
                                           ((1, 2, 2), np.sqrt(0.3)), ((2, 3, 3), np.sqrt(0.3))])
# rho_A = diag(0.5, 0.5) but rho_B = diag(0.25, 0.25, 0.5): no slicing can be rank one
UNEQUAL_SPECTRA = basis_state((2, 3, 3), [((0, 0, 0), 0.5), ((0, 1, 1), 0.5),
                                          ((1, 2, 2), np.sqrt(0.5))])


def tied_blocks_state(d: int, seed: int) -> tuple[PureState, np.ndarray]:
    """A seeded d^3 Schmidt state and its weights, tied exactly in blocks of 2, 1, 3, 2, ..."""
    sizes = []
    for size in itertools.cycle((2, 1, 3)):
        if sum(sizes) >= d:
            break
        sizes.append(min(size, d - sum(sizes)))
    levels = np.cumsum(np.random.default_rng(seed).uniform(1.0, 2.0, len(sizes)))[::-1]
    weights = np.repeat(levels, sizes) / np.sum(np.repeat(levels, sizes))
    return schmidt_state((d, d, d), weights, seed=seed), weights
