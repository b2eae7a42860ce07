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
eigenvectors.  One product gives all slices; their singular values and leading
factors (by power steps) are computed on first read.  An eigenbasis slicing's
rank test reads slice 0 first: a non-degenerate pivot forces the slicing, so one
entangled slice rejects.  Past slice 0 it proves rank one from each slice's
power-step residual, which bounds its second singular value, and reads the SVD
only when that proof fails; a refined slicing, built to be rank one, proves first.
An analysis carries the ``Tolerances`` it was made with, and every test of it
(ranks, factor families, refinement) reads them from there.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .bipartite import entropy_bits
from .exceptions import DimensionMismatch, Indeterminate, RankNotOne
from .linalg import DEFAULT_TOL, Tolerances
from .states import PureState, _check_unit_columns, _gram, _unfold, validate

# Unused here, but kept importable by name because the benchmark tracer wraps
# them, as it wraps ``_shared_basis_spectrum`` below.
from .bipartite import schmidt_decompose  # noqa: F401
from .states import partial_inner_product, reduced_density  # noqa: F401

PARTY_NAMES = ("A", "B", "C")


@dataclass(frozen=True, eq=False)
class SliceAnalysis:
    """Slicing of a tripartite state along a pivot basis; slice spectra and factors on first read.

    ``pivot_spectrum`` is the full descending spectrum of the pivot's
    reduced density matrix; slices are kept only for eigenvalues above
    the rank cutoff (``pivot_basis`` has one column per retained slice).
    ``analyze`` takes the eigenvectors as ``pivot_basis``; after
    ``refine_degenerate`` it is a rotated basis of the same retained span.
    ``slices`` stacks them (r x d1 x d2, over the two remaining parties);
    row i of ``slice_values`` (r x min(d1, d2)) holds slice i's descending
    singular values, slice 0's by its own call and the rest by one batched call;
    ``slice_ranks`` counts those above ``tol.rank_rel`` times the row's largest.
    Column i of ``left_factors`` (d1 x r) and ``right_factors`` (d2 x r) are
    its leading factors, found by power steps and meaningful only when slice i
    has rank one.  The same power steps give ``rank_one_residuals[i]``, slice
    i's ``||X - (Xv) v^H||_F / ||Xv||``, an upper bound on its
    ``sigma_2 / sigma_1``, and ``squared_norms[i]``, its ``||X||_F^2``.
    ``all_rank_one`` is the one rank test of the slicing; ``valid`` adds orthonormal
    factor families, which make the slicing a decomposition.  ``groups`` are the
    ``degeneracy_groups`` of the retained pivot spectrum, ``degenerate`` whether one
    ties.  All are computed on first read, the factors, residuals and norms by one
    pass.  ``tol`` holds the tolerances the analysis was made with, and every later
    test of it reads them.
    """

    pivot_party: int
    pivot_basis: np.ndarray
    pivot_spectrum: np.ndarray
    slices: np.ndarray
    tol: Tolerances

    _first_values = cached_property(lambda self: _values(self.slices[0])[None])
    slice_ranks = cached_property(lambda self: linalg.numerical_rank(self.slice_values, self.tol))
    _factors = cached_property(lambda self: _power_step_factors(self.slices))
    left_factors = property(lambda self: self._factors[0])
    right_factors = property(lambda self: self._factors[1])
    rank_one_residuals = property(lambda self: self._factors[2])
    squared_norms = property(lambda self: self._factors[3])

    @cached_property
    def slice_values(self) -> np.ndarray:
        first, rest = self._first_values, self.slices[1:]
        return np.concatenate((first, _values(rest))) if len(rest) else first

    @cached_property
    def all_rank_one(self) -> bool:
        """Whether every slice has rank one, as ``slice_ranks`` counts it, reading as little as it can.

        Residuals all within ``rank_rel / 2`` prove rank one without an SVD: a
        residual bounds ``sigma_2 / sigma_1`` from above, and the other half of
        ``rank_rel`` covers the rounding of both it and the SVD, a few float64
        ulps of ``sigma_1``.  It comes first when the factors are at hand (a refined
        slicing's), else after slice 0's own SVD; ``slice_ranks`` only if it fails.
        """
        proof = lambda: bool((self.rank_one_residuals <= self.tol.rank_rel / 2).all())  # noqa: E731
        if "_factors" in vars(self) and proof():
            return True
        if linalg.numerical_rank(self._first_values[0], self.tol) != 1:
            return False
        return proof() or all(rank == 1 for rank in self.slice_ranks)

    @cached_property
    def valid(self) -> bool:
        return self.all_rank_one and _families_orthonormal(self.left_factors, self.right_factors, self.tol)

    @cached_property
    def groups(self) -> list[list[int]]:
        return degeneracy_groups(self.pivot_spectrum[: len(self.slices)], self.tol)

    degenerate = property(lambda self: any(len(g) > 1 for g in self.groups))


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
    acceptances, and a graded distance-to-criterion for rejections, on distinct
    weights.  Inside a near-tied block the eigenbasis is an arbitrary rotation, so
    a tied state plus 1e-9 of noise can read 0.33 (the noisy-tie xfails).  It reads
    ``analysis.slice_values``, so only a caller that reads it pays for them;
    ``degenerate`` reads ``analysis.degenerate`` the same way.
    ``decomposable`` is None only in the verdict an :class:`Indeterminate`
    carries: the rejection that could not be made sound.
    """

    decomposable: bool | None
    decomposition: TripartiteSchmidt | None
    analysis: SliceAnalysis
    degenerate = property(lambda self: self.analysis.degenerate)
    max_residual = property(lambda self: float(np.max(self.analysis.slice_values[:, 1:], initial=0.0)))


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
    vals = np.asarray(spectrum, dtype=float).tolist()  # Python floats: no numpy scalar per step
    if not vals:
        return []
    cut = tol.degen_rel * max(abs(vals[0]), np.finfo(float).tiny)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i - 1] - vals[i] <= cut:  # a NaN gap starts a group
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _values(slices: np.ndarray) -> np.ndarray:
    """Descending singular values of one slice, or of each slice of a stack in one call."""
    return linalg._lapack(np.linalg.svd, slices, compute_uv=False)


def _power_step_factors(slices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Leading factors of each slice by power steps from its largest row; exact for rank one.

    Also returns each slice's residual ``||X - (Xv) v^H||_F / ||Xv||`` and its
    squared norm ``||X||_F^2``.  Since ``sigma_2(X) <= ||X - R||_F`` for every
    rank-one ``R`` (Eckart-Young-Mirsky) and ``sigma_1(X) >= ||Xv||``, the
    residual bounds ``sigma_2 / sigma_1`` from above.  Squared moduli are summed
    over the float view, so only the residual needs an r x d1 x d2 temporary.
    """
    flat = slices.view(np.float64)
    row_squares = np.einsum("ijk,ijk->ij", flat, flat)
    rows = np.argmax(row_squares, axis=1)
    u = slices @ slices[np.arange(len(slices)), rows, :, None].conj()
    vh = np.swapaxes(u.conj(), 1, 2) @ slices
    vh /= linalg._norms(vh, 2)
    u = slices @ np.swapaxes(vh.conj(), 1, 2)
    gain = linalg._norms(u, 1)
    rest = u * vh
    np.subtract(slices, rest, out=rest)
    rest = rest.view(np.float64)
    residuals = np.sqrt(np.einsum("ijk,ijk->i", rest, rest)) / gain[:, 0, 0]
    u /= gain
    return u[:, :, 0].T, vh[:, 0, :].T, residuals, row_squares.sum(axis=1)


def analyze(state: PureState, tol: Tolerances = DEFAULT_TOL) -> SliceAnalysis:
    """Slice ``state`` along the pivot eigenbasis; the slices are decomposed on first read.

    The pivot is the smallest party of dimension >= 2 (ties go to A before
    B before C), the space of smaller dimension whose basis the paper takes.
    """
    validate(state, tol)
    if state.n_parties != 3:
        raise DimensionMismatch("analysis is defined for tripartite states")
    pivot = _pivot_party(state.dims)
    m = _unfold(state.tensor, (pivot,))
    # rho is exactly Hermitian by construction, so it is not checked again
    spectrum, basis = linalg._eigh_canonical(_gram(m), tol, retained=True)
    _check_unit_columns(basis, tol)
    slices = (basis.conj().T.copy() @ m).reshape(-1, *state.dims[:pivot], *state.dims[pivot + 1:])
    return SliceAnalysis(pivot, basis, spectrum, slices, tol)


def _shared_factors(slices, tol: Tolerances):
    """The slices' diagonals in shared orthonormal factor bases that diagonalize them all, or None.

    When ``X_i = y diag(d_i) z^H`` for shared orthonormal ``y`` and ``z``, a
    generic combination ``sum_i c_i X_i`` has that form with distinct
    singular values, so its SVD recovers ``y`` and ``z`` (Jennrich's
    simultaneous diagonalization; Leurgans, Ross & Abel, SIAM J. Matrix
    Anal. Appl. 14, 1993).  Its ``k`` nonzero modes are accepted when every
    ``y^H X_i z`` is diagonal within ``1e3 * recon_abs`` and the diagonals
    hold all the slices' mass.  Row i of the result is the diagonal of slice i.
    """
    stack = np.asarray(slices)
    n = len(stack)  # tensordot's (1, n) x (n, d1 d2) product, so BLAS makes the same call
    mixed = np.dot(_mix(n).reshape(1, n), stack.reshape(n, -1)).reshape(stack.shape[1:])
    u, s, vh = linalg._lapack(np.linalg.svd, mixed, full_matrices=False)
    k = linalg.numerical_rank(s, tol)
    y, z = u[:, :k], vh[:k].conj().T
    d = y.conj().T @ stack @ z
    diag = np.diagonal(d, axis1=1, axis2=2).copy()
    d.reshape(n, -1)[:, :: k + 1] = 0.0  # leaves the off-diagonal part
    if float(np.abs(d).max(initial=0.0)) > 1e3 * tol.recon_abs:
        return None
    mass = float(np.sum(np.abs(diag) ** 2)) - float(np.sum(np.abs(stack) ** 2))
    if abs(mass) > math.sqrt(tol.recon_abs):  # mass escaped the retained modes
        return None
    return diag


@lru_cache(maxsize=64)
def _mix(n: int) -> np.ndarray:
    """Generic mixing coefficients of ``_shared_factors``, read-only; fixed so runs reproduce."""
    re, im = np.random.default_rng(0x5EED5).standard_normal((2, n))
    mix = re + 1j * im
    mix.setflags(write=False)
    return mix


def _shared_basis_spectrum(slices, tol: Tolerances) -> np.ndarray | None:
    """Per-mode sums of slice Schmidt weights, when one slice basis fits all; tracer-only."""
    diag = _shared_factors(slices, tol)
    return None if diag is None else np.sort(np.sum(np.abs(diag) ** 2, axis=0))[::-1]


def _families_orthonormal(left: np.ndarray, right: np.ndarray, tol: Tolerances) -> bool:
    """Whether the factor columns form orthonormal families on both parties.

    Parties of dimension 1 (one-row factors) are skipped: their factors
    are scalars and cannot be orthogonal, yet they contribute nothing to
    the state.
    """
    def deviation(f):  # max |f^H f - I|, the diagonal's one subtracted in place
        gram = f.conj().T @ f
        gram.reshape(-1)[:: len(gram) + 1] -= 1.0
        return float(np.abs(gram).max())
    return all(f.shape[0] == 1 or deviation(f) <= math.sqrt(tol.recon_abs) for f in (left, right))


def refine_degenerate(analysis: SliceAnalysis) -> SliceAnalysis | None:
    """Rotate the retained slices to a rank-one slicing, or None when none exists.

    Returns the input unchanged when every slice already has rank one.
    Otherwise a rank-one orthogonal slicing exists in the span of the slices
    exactly when they are simultaneously diagonal in shared factor bases with
    one mode per slice (``_shared_factors``).  Then
    ``slices[i] = sum_m diag[i, m] y_m z_m^H``, where the rows of ``diag`` are
    orthogonal (the slices are), and the closest unitary to ``diag^H``
    rotates the slices onto the rank-one terms.  The pivot basis turns with
    them, ``u~_m = sum_i conj(coeff[m, i]) u_i``, so that each rotated basis
    vector still gives its rotated slice by the partial inner product.  The
    analysis' own tolerances apply throughout.
    """
    if analysis.all_rank_one:
        return analysis
    slices = analysis.slices
    diag = _shared_factors(slices, analysis.tol)
    if diag is None or diag.shape[1] != len(slices):
        return None
    u, _, vh = linalg._lapack(np.linalg.svd, diag.conj().T)
    coeff = u @ vh  # closest unitary: keeps the new slicing an exact rotation
    rotated = np.dot(coeff, slices.reshape(len(slices), -1)).reshape(slices.shape)  # tensordot's
    refined = SliceAnalysis(analysis.pivot_party, analysis.pivot_basis @ coeff.conj().T,
                            analysis.pivot_spectrum, rotated, analysis.tol)
    refined._factors  # built to be rank one, so it proves that first from these power steps
    return refined


def construct(analysis: SliceAnalysis) -> TripartiteSchmidt:
    """Assemble the decomposition from an all-rank-one slicing.

    Weights are the squared slice norms (``squared_norms``, sums of squared
    moduli, not squared singular values); bases are the pivot basis and the
    slice factor pairs, sorted by descending weight with exact ties kept in
    slice order.  Phases are normalized so the largest entries of the A and B
    vectors are real positive, with the leftover phase absorbed by the C
    vector.  Raises :class:`RankNotOne` unless ``all_rank_one`` holds.
    """
    if not analysis.all_rank_one:
        raise RankNotOne(f"slice ranks {analysis.slice_ranks} are not all one")
    order = np.argsort(-analysis.squared_norms, kind="stable")
    weights = analysis.squared_norms[order]
    blocks = [analysis.left_factors, analysis.right_factors]
    blocks.insert(analysis.pivot_party, analysis.pivot_basis)
    basis_a, basis_b, basis_c = (np.ascontiguousarray(block[:, order]) for block in blocks)
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


def _spectra_match(p: np.ndarray, q: np.ndarray, tol: Tolerances, atol: float) -> bool:
    """Whether two ``_party_spectra`` agree within ``atol`` on their nonzero parts."""
    p = p[: linalg.numerical_rank(p, tol)]
    q = q[: linalg.numerical_rank(q, tol)]
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size))
    q = np.pad(q, (0, n - q.size))
    return bool(np.max(np.abs(p - q), initial=0.0) <= atol)


def check(state: PureState, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """Decide whether ``state`` admits a single-sum decomposition.

    Acceptance is constructive: the verdict carries the decomposition
    and is only issued when the slicing is rank one with orthonormal
    factor families.  Rejection is issued when it is sound: a
    non-degenerate eigenbasis is unique, so its slicing is forced; in
    the degenerate case a rejection needs either a forced rank defect
    outside the degenerate blocks, an in-block contradiction, or
    clearly unequal single-party spectra.  Anything else raises :class:`Indeterminate`.
    It pivots on the smallest party of dimension >= 2, the smaller space the paper uses.
    """
    analysis = analyze(state, tol)
    if analysis.valid:
        return Verdict(True, construct(analysis), analysis)
    if not analysis.degenerate:
        return Verdict(False, None, analysis)
    refined = refine_degenerate(analysis)
    if refined is not None and refined.valid:
        return Verdict(True, construct(refined), refined)

    # Degenerate pivot spectrum and no valid slicing found: reject only on
    # sound grounds, read from the eigenbasis slicing, otherwise refuse to guess.
    rejection = Verdict(False, None, analysis)
    for group in analysis.groups:
        if any(analysis.slice_ranks[i] != 1 for i in group):
            if len(group) == 1:  # an untied eigenvector forces its entangled slice
                return rejection
        elif len(group) > 1 and not _families_orthonormal(
                analysis.left_factors[:, group], analysis.right_factors[:, group], analysis.tol):
            return rejection  # a rank-one block that is not factor-orthogonal holds no valid slicing
    # A decomposition forces equal nonzero single-party spectra.
    a, b, c = _party_spectra(state)
    margin = math.sqrt(analysis.tol.recon_abs)
    if not all(_spectra_match(p, q, analysis.tol, margin) for p, q in ((a, b), (a, c), (b, c))):
        return rejection
    raise Indeterminate("degenerate eigenspace could not be refined to a rank-one slicing",
                        Verdict(None, None, analysis))


def _party_spectra(state: PureState) -> list[np.ndarray]:
    """Spectra of rho_A, rho_B, rho_C: squared unfolding singular values, padded to d_p."""
    t = state.tensor
    spectra = []
    for p, d in enumerate(state.dims):
        s = _values(_unfold(t, (p,))) ** 2
        spectra.append(np.pad(s, (0, d - s.size)))
    return spectra


def spectrum_report(state: PureState, tol: Tolerances = DEFAULT_TOL) -> dict:
    """The report's ``spectra``, ``spectrum_equal`` and ``entropy_bits`` sections.

    Spectra are squared singular values of the single-party unfoldings.
    The BC spectrum is A's nonzero spectrum zero-padded (the Schmidt
    identity on the A|BC cut), so no (d_B*d_C)^2 matrix is built.  Equality
    compares nonzero parts within ``recon_abs``; the single-party flags are
    necessary but not sufficient.
    """
    validate(state, tol)
    if state.n_parties != 3:
        raise DimensionMismatch("spectrum report is defined for tripartite states")
    a, b, c = _party_spectra(state)
    bc = np.zeros(state.dims[1] * state.dims[2])
    bc[: a.size] = a[: bc.size]
    return {
        "spectra": {"A": a, "B": b, "C": c, "BC": bc},
        "spectrum_equal": {
            "A_B": _spectra_match(a, b, tol, tol.recon_abs),
            "A_C": _spectra_match(a, c, tol, tol.recon_abs),
            "B_C": _spectra_match(b, c, tol, tol.recon_abs),
            # a theorem, not a test: bc is a zero-padded, or cut where a is only padding
            "A_BC": True,
        },
        "entropy_bits": {name: entropy_bits(s, tol) for name, s in zip("ABC", (a, b, c))},
    }
