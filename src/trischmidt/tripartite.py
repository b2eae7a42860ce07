"""Tripartite Schmidt decomposition: existence test and construction.

The decision procedure slices the state along the eigenbasis of the
pivot party's reduced density matrix (the pivot is the smallest
nontrivial subsystem).  Each slice is the partial inner product of one
eigenvector with the state, a bipartite vector over the remaining two
parties.  The state admits a single-sum decomposition
``sum_i sqrt(d_i) |i>|i>|i>`` exactly when every slice is a product
vector and the slice factors form orthonormal families on both remaining
parties; the weights ``d_i`` are the squared slice norms, which are the
pivot eigenvalues.

``analyze`` takes the pivot's reduced density matrix and the slices from one
unfolding of the state.  It eigendecomposes that matrix, Hermitian by
construction, without re-checking it, and canonicalizes only the kept
eigenvectors.  One product gives all slices, one batched call their singular
values; power steps give the leading factors of the slices on first access.

Rank-one slices alone are *not* enough: a state such as
``a|000> + b|101>`` has product slices whose B-side factors coincide,
and no single-sum decomposition exists (its single-party spectra
differ).  ``check`` therefore verifies the factor families as well, so
that an accepted verdict always comes with a valid decomposition.

A degenerate pivot spectrum makes the eigenbasis non-unique, so a
rank-one slicing may only exist in some other basis of the retained
span: exactly when all retained slices are simultaneously diagonal in
shared orthonormal factor bases, which the SVD of one generic combination
of them exposes (``_shared_factors``).  ``refine_degenerate`` reads the
rotation off the diagonals and turns the pivot basis with the slices, so
a refined ``pivot_basis`` is a rotated basis of the retained span, not a
set of computed eigenvectors.  When that fails and no sound rejection
applies, ``check`` raises :class:`~trischmidt.exceptions.Indeterminate`
instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .exceptions import DimensionMismatch, Indeterminate, NotNormalized, RankNotOne
from .linalg import DEFAULT_TOL, Tolerances
from .states import PureState, _check_party, _gram, _unfold, validate

# Unused here, but kept importable by name because the benchmark tracer wraps
# them, as it wraps ``_shared_basis_spectrum`` below.
from .bipartite import schmidt_decompose  # noqa: F401
from .states import partial_inner_product, reduced_density  # noqa: F401

PARTY_NAMES = ("A", "B", "C")


@dataclass(frozen=True, eq=False)
class SliceAnalysis:
    """Slicing of a tripartite state along a pivot basis, and the singular values of its slices.

    ``pivot_spectrum`` is the full descending spectrum of the pivot's
    reduced density matrix; slices are kept only for eigenvalues above
    the rank cutoff (``pivot_basis`` has one column per retained slice).
    ``analyze`` takes the eigenvectors as ``pivot_basis``; after
    ``refine_degenerate`` it is a rotated basis of the same retained span.
    ``slices`` stacks them (r x d1 x d2, over the two remaining parties);
    row i of ``slice_values`` (r x min(d1, d2)) holds slice i's descending
    singular values.  Column i of ``left_factors`` (d1 x r) and
    ``right_factors`` (d2 x r) are its leading factors, found by power steps
    on first access and meaningful only when slice i has rank one.
    """

    dims: tuple[int, ...]
    pivot_party: int
    pivot_basis: np.ndarray
    pivot_spectrum: np.ndarray
    slices: np.ndarray
    slice_values: np.ndarray
    slice_ranks: tuple[int, ...]

    _factors = cached_property(lambda self: _power_step_factors(self.slices))
    left_factors = property(lambda self: self._factors[0])
    right_factors = property(lambda self: self._factors[1])

    @property
    def remaining_parties(self) -> tuple[int, int]:
        a, b = (i for i in range(3) if i != self.pivot_party)
        return a, b


@dataclass(frozen=True, eq=False)
class TripartiteSchmidt:
    """Weights and orthonormal bases of a single-sum decomposition.

    Weights are nonnegative, descending, and sum to one; basis block
    ``basis_x[:, i]`` pairs with ``weights[i]``.  For a party of
    dimension one the "basis" is the repeated scalar 1, which cannot be
    orthogonal between terms; orthonormality is meaningful only for
    parties of dimension >= 2.
    """

    weights: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    basis_c: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.basis_a.shape[0], self.basis_b.shape[0], self.basis_c.shape[0])


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of the existence test.

    ``max_residual`` is the largest second Schmidt coefficient across the
    slices of the analysis the verdict was based on: zero-ish for clean
    acceptances, and a graded distance-to-criterion for rejections.
    """

    decomposable: bool
    decomposition: TripartiteSchmidt | None
    analysis: SliceAnalysis
    degenerate: bool
    max_residual: float


def _pivot_party(dims: tuple[int, ...]) -> int:
    # Parties of dimension 1 cannot pivot: their single slice is the whole
    # state and would wrongly demand global rank one.  A trivial party is
    # instead carried along as a scalar factor of the slices.
    candidates = [i for i, d in enumerate(dims) if d > 1] or [0]
    return min(candidates, key=lambda i: (dims[i], i))


def degeneracy_groups(spectrum, tol: Tolerances = DEFAULT_TOL) -> list[list[int]]:
    """Group indices of a descending spectrum by near-equality.

    Consecutive values are chained into one group when their gap is at
    most ``degen_rel`` relative to the largest value.
    """
    vals = np.asarray(spectrum, dtype=float)
    if vals.size == 0:
        return []
    scale = max(abs(float(vals[0])), np.finfo(float).tiny)
    groups = [[0]]
    for i in range(1, vals.size):
        if float(vals[i - 1] - vals[i]) <= tol.degen_rel * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _slice_fields(slices: np.ndarray, tol: Tolerances) -> dict:
    """``SliceAnalysis`` fields of a slice stack: its batched singular values and ranks."""
    values = linalg._lapack(np.linalg.svd, slices, compute_uv=False)
    ranks = np.count_nonzero(values > tol.rank_rel * values[:, :1], axis=1)
    return dict(slices=slices, slice_values=values, slice_ranks=tuple(ranks.tolist()))


def _power_step_factors(slices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading factors of each slice by power steps from its largest row; exact for rank one."""
    rows = np.argmax(np.linalg.norm(slices, axis=2), axis=1)
    u = slices @ slices[np.arange(len(slices)), rows, :, None].conj()
    vh = np.swapaxes(u.conj(), 1, 2) @ slices
    vh /= np.linalg.norm(vh, axis=2, keepdims=True)
    u = slices @ np.swapaxes(vh.conj(), 1, 2)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u[:, :, 0].T, vh[:, 0, :].T


def analyze(state: PureState, tol: Tolerances = DEFAULT_TOL, pivot: int | None = None) -> SliceAnalysis:
    """Slice ``state`` along the pivot eigenbasis and take the slices' singular values.

    ``pivot`` defaults to the smallest party of dimension >= 2 (ties go
    to A before B before C); passing it explicitly supports the
    all-pivots mode for equal dimensions.
    """
    validate(state, tol)
    if state.n_parties != 3:
        raise DimensionMismatch("analysis is defined for tripartite states")
    pivot = _pivot_party(state.dims) if pivot is None else _check_party(state, pivot)
    m = _unfold(state.tensor, (pivot,))
    # rho is exactly Hermitian by construction, so it is not checked again
    spectrum, basis = linalg._eigh_canonical(_gram(m), tol, retained=True)
    deviation = float(np.max(np.abs(np.linalg.norm(basis, axis=0) - 1.0)))
    if deviation > tol.recon_abs:
        raise NotNormalized(f"contraction vector norm deviates from 1 by {deviation:.3e}")
    slices = (basis.conj().T.copy() @ m).reshape(-1, *state.dims[:pivot], *state.dims[pivot + 1:])
    return SliceAnalysis(
        dims=state.dims,
        pivot_party=pivot,
        pivot_basis=basis,
        pivot_spectrum=spectrum,
        **_slice_fields(slices, tol),
    )


def _shared_factors(slices, tol: Tolerances):
    """Orthonormal factor bases that diagonalize every slice at once, or None.

    When ``X_i = y diag(d_i) z^H`` for shared orthonormal ``y`` and ``z``, a
    generic combination ``sum_i c_i X_i`` has that form with distinct
    singular values, so its SVD recovers ``y`` and ``z`` (Jennrich's
    simultaneous diagonalization; Leurgans, Ross & Abel, SIAM J. Matrix
    Anal. Appl. 14, 1993).  Its ``k`` nonzero modes are accepted when every
    ``y^H X_i z`` is diagonal within ``1e3 * recon_abs`` and the diagonals
    hold all the slices' mass.  ``diag[i]`` is the diagonal of slice i.
    """
    stack = np.asarray(slices)
    mixed = np.tensordot(_mix(len(stack)), stack, axes=1)
    u, s, vh = linalg._lapack(np.linalg.svd, mixed, full_matrices=False)
    k = linalg.numerical_rank(s, tol)
    y, z = u[:, :k], vh[:k].conj().T
    d = y.conj().T @ stack @ z
    diag = np.diagonal(d, axis1=1, axis2=2)
    off = d - diag[:, :, None] * np.eye(k)
    if float(np.max(np.abs(off), initial=0.0)) > 1e3 * tol.recon_abs:
        return None
    mass = float(np.sum(np.abs(diag) ** 2)) - float(np.sum(np.abs(stack) ** 2))
    if abs(mass) > math.sqrt(tol.recon_abs):  # mass escaped the retained modes
        return None
    return y, z, diag


@lru_cache(maxsize=64)
def _mix(n: int) -> np.ndarray:
    """Generic mixing coefficients of ``_shared_factors``, read-only; fixed so runs reproduce."""
    re, im = np.random.default_rng(0x5EED5).standard_normal((2, n))
    mix = re + 1j * im
    mix.setflags(write=False)
    return mix


def _shared_basis_spectrum(slices, tol: Tolerances) -> np.ndarray | None:
    """Per-mode sums of slice Schmidt weights, when one slice basis fits all; tracer-only."""
    shared = _shared_factors(slices, tol)
    if shared is None:
        return None
    return np.sort(np.sum(np.abs(shared[2]) ** 2, axis=0))[::-1]


def _families_orthonormal(left: np.ndarray, right: np.ndarray, tol: Tolerances) -> bool:
    """Whether the factor columns form orthonormal families on both parties.

    Parties of dimension 1 (one-row factors) are skipped: their factors
    are scalars and cannot be orthogonal, yet they contribute nothing to
    the state.
    """
    eye = np.eye(left.shape[1])
    return all(
        f.shape[0] == 1 or float(np.max(np.abs(f.conj().T @ f - eye))) <= math.sqrt(tol.recon_abs)
        for f in (left, right)
    )


def _configuration_valid(analysis: SliceAnalysis, tol: Tolerances) -> bool:
    if any(rank != 1 for rank in analysis.slice_ranks):
        return False
    return _families_orthonormal(analysis.left_factors, analysis.right_factors, tol)


def refine_degenerate(analysis: SliceAnalysis, tol: Tolerances = DEFAULT_TOL) -> SliceAnalysis | None:
    """Rotate the retained slices to a rank-one slicing, or None when none exists.

    Returns the input unchanged when every slice already has rank one.
    Otherwise a rank-one orthogonal slicing exists in the span of the slices
    exactly when they are simultaneously diagonal in shared factor bases with
    one mode per slice (``_shared_factors``).  Then
    ``slices[i] = sum_m diag[i, m] y_m z_m^H``, where the rows of ``diag`` are
    orthogonal (the slices are), and the closest unitary to ``diag^H``
    rotates the slices onto the rank-one terms.  The pivot basis turns with
    them, ``u~_m = sum_i conj(coeff[m, i]) u_i``, so that each rotated basis
    vector still gives its rotated slice by the partial inner product.
    """
    if all(rank == 1 for rank in analysis.slice_ranks):
        return analysis
    slices = analysis.slices
    shared = _shared_factors(slices, tol)
    if shared is None or shared[2].shape[1] != len(slices):
        return None
    u, _, vh = linalg._lapack(np.linalg.svd, shared[2].conj().T)
    coeff = u @ vh  # closest unitary: keeps the new slicing an exact rotation
    return replace(
        analysis,
        pivot_basis=analysis.pivot_basis @ coeff.conj().T,
        **_slice_fields(np.tensordot(coeff, slices, axes=1), tol),
    )


def construct(analysis: SliceAnalysis) -> TripartiteSchmidt:
    """Assemble the decomposition from an all-rank-one slicing.

    Weights are the squared top singular values (the squared slice
    norms); bases are the pivot basis and the slice factor pairs,
    sorted by descending weight.  Phases are normalized so the largest
    entries of the A and B vectors are real positive, with the leftover
    phase absorbed by the C vector.
    """
    if any(rank != 1 for rank in analysis.slice_ranks):
        raise RankNotOne(f"slice ranks {analysis.slice_ranks} are not all one")
    # C pow(x, 2) as in float ** 2; x * x differs in the last bit of some weights
    weights = np.float_power(analysis.slice_values[:, 0], 2)
    first, second = analysis.remaining_parties
    blocks = {
        analysis.pivot_party: analysis.pivot_basis,
        first: analysis.left_factors,
        second: analysis.right_factors,
    }
    order = np.argsort(-weights, kind="stable")
    weights = weights[order]
    basis_a = np.ascontiguousarray(blocks[0][:, order])
    basis_b = np.ascontiguousarray(blocks[1][:, order])
    basis_c = np.ascontiguousarray(blocks[2][:, order])
    for basis in (basis_a, basis_b):
        ph = linalg._column_phases(basis)
        basis *= ph
        basis_c *= np.conj(ph)
    return TripartiteSchmidt(weights=weights, basis_a=basis_a, basis_b=basis_b, basis_c=basis_c)


def reconstruct(sd: TripartiteSchmidt) -> PureState:
    """Rebuild ``sum_i sqrt(d_i) a_i (x) b_i (x) c_i`` as a PureState."""
    amplitudes = np.einsum(
        "i,ai,bi,ci->abc", np.sqrt(sd.weights), sd.basis_a, sd.basis_b, sd.basis_c
    )
    return PureState(sd.dims, amplitudes.reshape(-1))


def _spectra_match(p, q, tol: Tolerances, atol: float) -> bool:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p = p[: linalg.numerical_rank(np.maximum(p, 0.0), tol)]
    q = q[: linalg.numerical_rank(np.maximum(q, 0.0), tol)]
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    return bool(np.max(np.abs(p - q), initial=0.0) <= atol)


def _verdict(analysis: SliceAnalysis, degenerate: bool, accept: bool = False) -> Verdict:
    """The verdict on ``analysis``, constructed when accepted; the residual is its worst slice."""
    residual = float(np.max(analysis.slice_values[:, 1:], initial=0.0))
    decomposition = construct(analysis) if accept else None
    return Verdict(accept, decomposition, analysis, degenerate, residual)


def check(state: PureState, tol: Tolerances = DEFAULT_TOL, pivot: int | None = None) -> Verdict:
    """Decide whether ``state`` admits a single-sum decomposition.

    Acceptance is constructive: the verdict carries the decomposition
    and is only issued when the slicing is rank one with orthonormal
    factor families.  Rejection is issued when it is sound: a
    non-degenerate eigenbasis is unique, so its slicing is forced; in
    the degenerate case a rejection needs either a forced rank defect
    outside the degenerate blocks, an in-block contradiction, or
    clearly unequal single-party spectra.  Anything else raises
    :class:`Indeterminate`.  A pivot ``_pivot_party`` never picks (dimension
    1 beside a larger party) raises :class:`DimensionMismatch`.
    """
    analysis = analyze(state, tol, pivot=pivot)
    if state.dims[analysis.pivot_party] == 1 < max(state.dims):
        raise DimensionMismatch(f"pivot {PARTY_NAMES[analysis.pivot_party]} has dimension 1")
    groups = degeneracy_groups(analysis.pivot_spectrum[: len(analysis.slices)], tol)
    degenerate = any(len(g) > 1 for g in groups)
    if _configuration_valid(analysis, tol):
        return _verdict(analysis, degenerate, accept=True)
    if not degenerate:
        return _verdict(analysis, False)
    refined = refine_degenerate(analysis, tol)
    if refined is not None and _configuration_valid(refined, tol):
        return _verdict(refined, True, accept=True)

    # Degenerate pivot spectrum and no valid slicing found: reject only on
    # sound grounds, read from the eigenbasis slicing, otherwise refuse to guess.
    rejection = _verdict(analysis, True)
    if any(len(g) == 1 and analysis.slice_ranks[g[0]] != 1 for g in groups):
        return rejection
    for group in groups:
        if len(group) < 2 or any(analysis.slice_ranks[i] != 1 for i in group):
            continue
        # All-rank-one block whose members are not factor-orthogonal: the
        # span of this block contains no valid slicing at all.
        left, right = analysis.left_factors[:, group], analysis.right_factors[:, group]
        if not _families_orthonormal(left, right, tol):
            return rejection
    # A decomposition forces equal nonzero single-party spectra.
    a, b, c = _party_spectra(state)
    margin = math.sqrt(tol.recon_abs)
    if not all(_spectra_match(p, q, tol, margin) for p, q in ((a, b), (a, c), (b, c))):
        return rejection
    raise Indeterminate(
        "degenerate eigenspace could not be refined to a rank-one slicing",
        analysis=analysis,
        max_residual=rejection.max_residual,
    )


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Descending spectra of the single-party cuts and of the BC pair (A's, zero-padded)."""

    spectrum_a: np.ndarray
    spectrum_b: np.ndarray
    spectrum_c: np.ndarray
    spectrum_bc: np.ndarray
    equal_ab: bool
    equal_ac: bool
    equal_bc: bool
    equal_a_bc: bool


def _party_spectra(state: PureState) -> list[np.ndarray]:
    """Spectra of rho_A, rho_B, rho_C: squared unfolding singular values, padded to d_p."""
    t = state.tensor
    spectra = []
    for p, d in enumerate(state.dims):
        s = linalg._lapack(np.linalg.svd, _unfold(t, (p,)), compute_uv=False) ** 2
        spectra.append(np.pad(s, (0, d - s.size)))
    return spectra


def spectrum_report(state: PureState, tol: Tolerances = DEFAULT_TOL) -> SpectrumReport:
    """Reduced-density spectra plus pairwise equality flags.

    Spectra are squared singular values of the single-party unfoldings.
    The BC spectrum is A's nonzero spectrum zero-padded (the Schmidt
    identity on the A|BC cut), so no (d_B*d_C)^2 matrix is built and the A
    vs BC flag holds by theorem.  Equality compares nonzero parts within
    ``recon_abs``; the single-party flags are necessary but not sufficient.
    """
    validate(state, tol)
    if state.n_parties != 3:
        raise DimensionMismatch("spectrum report is defined for tripartite states")
    a, b, c = _party_spectra(state)
    bc = np.zeros(state.dims[1] * state.dims[2])
    bc[: a.size] = a[: bc.size]
    return SpectrumReport(
        spectrum_a=a,
        spectrum_b=b,
        spectrum_c=c,
        spectrum_bc=bc,
        equal_ab=_spectra_match(a, b, tol, tol.recon_abs),
        equal_ac=_spectra_match(a, c, tol, tol.recon_abs),
        equal_bc=_spectra_match(b, c, tol, tol.recon_abs),
        equal_a_bc=_spectra_match(a, bc, tol, tol.recon_abs),
    )
