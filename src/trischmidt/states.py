"""Pure states of bipartite/tripartite systems and their basic operations.

Amplitudes are stored flat in row-major order with the first party's
index varying slowest, so the slice belonging to one basis vector of the
first party is a contiguous matrix over the remaining parties.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotNormalized
from .linalg import DEFAULT_TOL, Tolerances, _norms


@dataclass(frozen=True, eq=False)
class PureState:
    """A pure state: subsystem dimensions plus a flat amplitude vector.

    Construction only coerces types; call :func:`validate` to enforce the
    shape and normalization invariants.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amplitudes.reshape(self.dims)


def validate(state: PureState, tol: Tolerances = DEFAULT_TOL) -> PureState:
    """Return ``state`` unchanged if it is a well-formed normalized state."""
    if state.n_parties not in (2, 3):
        raise DimensionMismatch(f"expected 2 or 3 parties, got {state.n_parties}")
    if any(d < 1 for d in state.dims):
        raise DimensionMismatch(f"every dimension must be >= 1, got {state.dims}")
    expected = math.prod(state.dims)
    if state.amplitudes.size != expected:
        raise DimensionMismatch(
            f"dims {state.dims} require {expected} amplitudes, got {state.amplitudes.size}"
        )
    deviation = abs(float(np.vdot(state.amplitudes, state.amplitudes).real) - 1.0)
    if not math.isfinite(deviation) and not np.isfinite(state.amplitudes).all():
        raise NotNormalized("amplitudes contain non-finite entries")
    if not deviation <= tol.recon_abs:  # a NaN squared norm fails too
        raise NotNormalized(f"sum of |amplitude|^2 deviates from 1 by {deviation:.3e}")
    return state


def _check_party(state: PureState, party: int) -> int:
    if isinstance(party, bool):  # an int subclass: True would name party 1
        raise DimensionMismatch(f"party index must be an integer, got {party!r}")
    try:
        party = operator.index(party)
    except TypeError as exc:
        raise DimensionMismatch(f"party index must be an integer, got {party!r}") from exc
    if not 0 <= party < state.n_parties:
        raise DimensionMismatch(f"party index {party} out of range for {state.n_parties} parties")
    return party


def partial_inner_product(
    state: PureState, party: int, vector, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Contract one party's unit vector against a tripartite state.

    Returns the (possibly unnormalized) amplitude matrix over the two
    remaining parties, kept in their original order.
    """
    if state.n_parties != 3:
        raise DimensionMismatch("partial inner product is defined for tripartite states")
    party = _check_party(state, party)
    vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if vec.size != state.dims[party]:
        raise DimensionMismatch(
            f"vector has length {vec.size}, party {party} has dimension {state.dims[party]}"
        )
    _check_unit_columns(vec, tol)
    return np.tensordot(vec.conj(), state.tensor, axes=(0, party))


def _check_unit_columns(vectors: np.ndarray, tol: Tolerances) -> None:
    """Raise NotNormalized unless each column of ``vectors`` has norm 1 within ``recon_abs``."""
    deviation = float(np.abs(_norms(vectors, 0) - 1.0).max())
    if not deviation <= tol.recon_abs:  # a NaN norm fails too
        raise NotNormalized(f"contraction vector norm deviates from 1 by {deviation:.3e}")


def _unfold(t: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Amplitude matrix of ``t``: the ``keep`` parties as rows, the rest in order as columns."""
    rest = tuple(i for i in range(t.ndim) if i not in keep)
    return t.transpose(keep + rest).reshape(math.prod(t.shape[i] for i in keep), -1)


def _gram(m: np.ndarray) -> np.ndarray:
    """``m m^H``, symmetrized so the result is exactly Hermitian."""
    rho = m @ m.conj().T
    return (rho + rho.conj().T) / 2.0


def reduced_density(state: PureState, keep) -> np.ndarray:
    """Partial trace of ``|psi><psi|`` onto the parties listed in ``keep``."""
    if not np.iterable(keep):
        raise DimensionMismatch(f"keep must be a collection of party indices, got {keep!r}")
    keep = tuple(sorted({_check_party(state, k) for k in keep}))
    if not keep or len(keep) >= state.n_parties:
        raise DimensionMismatch(
            f"keep must be a nonempty proper subset of parties, got {keep}"
        )
    return _gram(_unfold(state.tensor, keep))


def overlap(s1: PureState, s2: PureState) -> complex:
    """Inner product ``<s1|s2>``."""
    if s1.dims != s2.dims:
        raise DimensionMismatch(f"dims differ: {s1.dims} vs {s2.dims}")
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))
