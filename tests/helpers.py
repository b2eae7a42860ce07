"""Helpers the tests share; the package itself needs none of them.

The tests only ever pass Haar or hand-written unitaries, so nothing here
validates its input.
"""

import numpy as np

from trischmidt import PureState, haar_unitary


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


def is_unitary(u, atol: float = 1e-10) -> bool:
    """True iff ``u`` is square and ``max|U^H U - I| <= atol``."""
    m = np.asarray(u, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= atol


def reconstruct_bipartite(sd) -> np.ndarray:
    """The amplitude matrix ``sum_i c_i left_i right_i^T`` of a ``BipartiteSchmidt``."""
    return (sd.left_basis * sd.coefficients) @ sd.right_basis.T
