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

Rank-one slices alone are *not* enough: a state such as
``a|000> + b|101>`` has product slices whose B-side factors coincide,
and no single-sum decomposition exists (its single-party spectra
differ).  ``check`` therefore verifies the factor families as well, so
that an accepted verdict always comes with a valid decomposition.

A degenerate pivot spectrum makes the eigenbasis non-unique, so a
rank-one slicing may only exist after rotating inside each degenerate
eigenspace; ``refine_degenerate`` searches for that rotation.  When the
search fails and no sound rejection applies, ``check`` raises
:class:`~trischmidt.exceptions.Indeterminate` instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .bipartite import BipartiteSchmidt, schmidt_decompose
from .exceptions import DimensionMismatch, Indeterminate, NoConvergence, RankNotOne
from .linalg import DEFAULT_TOL, Tolerances
from .states import PureState, partial_inner_product, reduced_density, validate

PARTY_NAMES = ("A", "B", "C")

# Fixed seeds for the generic mixing coefficients used by the degenerate
# refinement and the shared-slice-basis detection.  They only need to be
# "generic"; fixing them keeps every run reproducible.
_REFINE_SEED = 0x51A3B
_SHARED_SEED = 0x5EED5


@dataclass(frozen=True, eq=False)
class SliceAnalysis:
    """Eigenbasis slicing of a tripartite state plus per-slice Schmidt data.

    ``pivot_spectrum`` is the full descending spectrum of the pivot's
    reduced density matrix; slices are kept only for eigenvalues above
    the rank cutoff (``pivot_basis`` has one column per retained slice).
    ``s_spectrum`` holds the per-mode sums of the slice Schmidt weights
    accumulated in a common slice basis; it is None when no common basis
    exists within tolerance; it is computed on first access, with ``tol``.
    """

    dims: tuple[int, ...]
    pivot_party: int
    pivot_basis: np.ndarray
    pivot_spectrum: np.ndarray
    slices: tuple[np.ndarray, ...]
    slice_schmidt: tuple[BipartiteSchmidt, ...]
    slice_ranks: tuple[int, ...]
    tol: Tolerances
    not_refinable: bool = False

    @cached_property
    def s_spectrum(self) -> np.ndarray | None:
        return _shared_basis_spectrum(self.slices, self.tol)

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


def _max_residual(analysis: SliceAnalysis) -> float:
    worst = 0.0
    for sd in analysis.slice_schmidt:
        if sd.coefficients.size >= 2:
            worst = max(worst, float(sd.coefficients[1]))
    return worst


def _slice_data(slices, tol: Tolerances):
    schmidts = tuple(schmidt_decompose(s, tol) for s in slices)
    ranks = tuple(linalg.numerical_rank(sd.coefficients, tol) for sd in schmidts)
    return schmidts, ranks


def analyze(state: PureState, tol: Tolerances = DEFAULT_TOL, pivot: int | None = None) -> SliceAnalysis:
    """Slice ``state`` along the pivot eigenbasis and Schmidt-analyze each slice.

    ``pivot`` defaults to the smallest party of dimension >= 2 (ties go
    to A before B before C); passing it explicitly supports the
    all-pivots mode for equal dimensions.
    """
    validate(state, tol)
    if state.n_parties != 3:
        raise DimensionMismatch("analysis is defined for tripartite states")
    if pivot is None:
        pivot = _pivot_party(state.dims)
    else:
        pivot = int(pivot)
        if not 0 <= pivot < 3:
            raise DimensionMismatch(f"pivot must be 0, 1 or 2, got {pivot}")
    rho = reduced_density(state, (pivot,), tol)
    eig = linalg.hermitian_eigendecompose(rho.matrix, tol)
    spectrum = eig.eigenvalues
    retained = linalg.numerical_rank(np.maximum(spectrum, 0.0), tol)
    basis = np.ascontiguousarray(eig.eigenvectors[:, :retained])
    slices = tuple(
        partial_inner_product(state, pivot, basis[:, i], tol) for i in range(retained)
    )
    schmidts, ranks = _slice_data(slices, tol)
    return SliceAnalysis(
        dims=state.dims,
        pivot_party=pivot,
        pivot_basis=basis,
        pivot_spectrum=spectrum,
        slices=slices,
        slice_schmidt=schmidts,
        slice_ranks=ranks,
        tol=tol,
    )


def _shared_basis_spectrum(slices, tol: Tolerances) -> np.ndarray | None:
    """Per-mode sums of slice Schmidt weights, when one slice basis fits all.

    All slices share left/right Schmidt bases exactly when the family
    ``{M_i M_i^H}`` (and its right-hand counterpart) is simultaneously
    diagonalizable with a consistent pairing.  A generically weighted sum
    exposes the common eigenbasis when it exists; the candidate bases are
    then verified against every slice.  Returns None when no common basis
    exists within tolerance.
    """
    r = len(slices)
    if r == 0:
        return None
    shared_tol = 1e3 * tol.recon_abs
    rng = np.random.default_rng(_SHARED_SEED)
    wl = rng.uniform(1.0, 2.0, size=r)
    wr = rng.uniform(1.0, 2.0, size=r)
    hb = sum(w * (m @ m.conj().T) for w, m in zip(wl, slices))
    hc = sum(w * (m.conj().T @ m) for w, m in zip(wr, slices))
    # The slices only live on the supported modes; null modes carry no
    # weight and need no pairing.
    lam_b, y = np.linalg.eigh(hb)
    lam_c, zc = np.linalg.eigh(hc)  # columns are conj(z_mu) candidates
    y = y[:, lam_b > tol.rank_rel * lam_b.max()]
    zc = zc[:, lam_c > tol.rank_rel * lam_c.max()]
    if y.shape[1] != zc.shape[1]:
        return None
    modes = y.shape[1]
    mix = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    probe = y.conj().T @ sum(c * m for c, m in zip(mix, slices)) @ zc
    # Pair each left mode with the right mode it actually couples to.
    cols = np.argmax(np.abs(probe), axis=1)
    used = set()
    perm = []
    for mu in range(modes):
        col = int(cols[mu])
        if col in used:
            return None
        used.add(col)
        perm.append(col)
    zc = zc[:, perm]
    s = np.zeros(modes)
    total = 0.0
    for m in slices:
        d = y.conj().T @ m @ zc
        off = d - np.diag(np.diagonal(d))
        if float(np.max(np.abs(off))) > shared_tol:
            return None
        s += np.abs(np.diagonal(d)) ** 2
        total += float(np.linalg.norm(m)) ** 2
    if abs(float(s.sum()) - total) > math.sqrt(tol.recon_abs):
        # mass escaped the retained modes: the candidate basis is not shared
        return None
    return np.sort(s)[::-1]


def _top_factors(analysis: SliceAnalysis):
    """Leading left/right Schmidt vectors of every slice, as columns."""
    left = np.column_stack([sd.left_basis[:, 0] for sd in analysis.slice_schmidt])
    right = np.column_stack([sd.right_basis[:, 0] for sd in analysis.slice_schmidt])
    return left, right


def _families_orthonormal(analysis: SliceAnalysis, tol: Tolerances) -> bool:
    """Whether the slice factors form orthonormal families on both parties.

    Parties of dimension 1 are skipped: their factors are scalars and
    cannot be orthogonal, yet they contribute nothing to the state.
    """
    ortho_tol = math.sqrt(tol.recon_abs)
    left, right = _top_factors(analysis)
    first, second = analysis.remaining_parties
    eye = np.eye(left.shape[1])
    if analysis.dims[first] > 1:
        if float(np.max(np.abs(left.conj().T @ left - eye))) > ortho_tol:
            return False
    if analysis.dims[second] > 1:
        if float(np.max(np.abs(right.conj().T @ right - eye))) > ortho_tol:
            return False
    return True


def _configuration_valid(analysis: SliceAnalysis, tol: Tolerances) -> bool:
    if any(rank != 1 for rank in analysis.slice_ranks):
        return False
    return _families_orthonormal(analysis, tol)


def _refine_block(block_slices: list[np.ndarray], tol: Tolerances):
    """Search one degenerate eigenspace for a rank-one orthogonal slicing.

    Candidate product directions are the Schmidt terms of the block
    slices themselves and of a few generically mixed combinations (a
    slice with tied singular values can hand back mixed product pairs, a
    generic combination cannot).  Candidates must lie in the span of the
    block slices; a mutually factor-orthogonal subset of full block size
    defines the rotation.  Returns ``(coeff, refined_slices)`` with
    ``refined[m] = sum_i coeff[m, i] * block_slices[i]`` and unitary
    ``coeff``, or None when the search fails.
    """
    g = len(block_slices)
    span_tol = 1e2 * tol.recon_abs
    match_tol = 1e-6
    norms = [float(np.linalg.norm(m)) for m in block_slices]
    if min(norms) <= 0.0:
        return None
    q = [m / n for m, n in zip(block_slices, norms)]

    rng = np.random.default_rng(_REFINE_SEED)
    sources = list(block_slices)
    for _ in range(3):
        mix = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        sources.append(sum(c * m for c, m in zip(mix, block_slices)))

    candidates: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for source in sources:
        if not np.any(np.abs(source) > 0.0):
            continue
        sd = schmidt_decompose(source, tol)
        top = float(sd.coefficients[0])
        for mu in range(sd.coefficients.size):
            if float(sd.coefficients[mu]) <= tol.rank_rel * top:
                continue
            yv = sd.left_basis[:, mu]
            zv = sd.right_basis[:, mu]
            p = np.outer(yv, zv)
            ph = linalg._phase_fix(p.reshape(-1))
            p = p * ph
            coeffs = np.array([np.vdot(qi, p) for qi in q])
            residual = float(np.linalg.norm(p - sum(c * qi for c, qi in zip(coeffs, q))))
            if residual > span_tol:
                continue
            if any(float(np.max(np.abs(p - pc))) <= match_tol for _, _, pc in candidates):
                continue
            candidates.append((yv * ph, zv, p))

    kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for yv, zv, p in candidates:
        if all(
            abs(np.vdot(yk, yv)) <= match_tol and abs(np.vdot(zk, zv)) <= match_tol
            for yk, zk, _ in kept
        ):
            kept.append((yv, zv, p))
            if len(kept) == g:
                break
    if len(kept) < g:
        return None

    raw = np.array([[np.vdot(qi, p) / n for qi, n in zip(q, norms)] for _, _, p in kept])
    u, _, vh = np.linalg.svd(raw)
    coeff = u @ vh  # closest unitary: keeps the new slicing an exact rotation
    refined = [sum(coeff[m, i] * block_slices[i] for i in range(g)) for m in range(g)]
    return coeff, refined


def refine_degenerate(analysis: SliceAnalysis, tol: Tolerances = DEFAULT_TOL) -> SliceAnalysis:
    """Rotate degenerate eigenspaces toward a rank-one slicing.

    Blocks whose slices are already rank one are left alone (when a
    rank-one orthogonal slicing exists in a block's span, an all-rank-one
    slicing already consists of its members).  Returns the rotated
    analysis, or the input unchanged when nothing needed rotating, or an
    analysis flagged ``not_refinable`` when some block defeated the
    search.
    """
    retained = len(analysis.slices)
    groups = degeneracy_groups(analysis.pivot_spectrum[:retained], tol)
    new_basis = analysis.pivot_basis.copy()
    new_slices = list(analysis.slices)
    changed = False
    failed = False
    for group in groups:
        if len(group) < 2:
            continue
        if all(analysis.slice_ranks[i] == 1 for i in group):
            continue
        block = [analysis.slices[i] for i in group]
        result = _refine_block(block, tol)
        if result is None:
            failed = True
            continue
        coeff, refined = result
        for row, i in enumerate(group):
            new_slices[i] = refined[row]
        # u~_m = sum_i conj(coeff[m, i]) u_i pairs the rotated basis with
        # the rotated slices through the partial inner product.
        new_basis[:, group] = analysis.pivot_basis[:, group] @ coeff.conj().T
        changed = True
    if not changed and not failed:
        return analysis
    slices = tuple(new_slices)
    schmidts, ranks = _slice_data(slices, tol)
    return replace(
        analysis,
        pivot_basis=new_basis,
        slices=slices,
        slice_schmidt=schmidts,
        slice_ranks=ranks,
        tol=tol,
        not_refinable=failed,
    )


def construct(analysis: SliceAnalysis, tol: Tolerances = DEFAULT_TOL) -> TripartiteSchmidt:
    """Assemble the decomposition from an all-rank-one slicing.

    Weights are the squared top Schmidt coefficients (the squared slice
    norms); bases are the pivot eigenvectors and the top factor pairs,
    sorted by descending weight.  Phases are normalized so the largest
    entries of the A and B vectors are real positive, with the leftover
    phase absorbed by the C vector.
    """
    if any(rank != 1 for rank in analysis.slice_ranks):
        raise RankNotOne(f"slice ranks {analysis.slice_ranks} are not all one")
    left, right = _top_factors(analysis)
    weights = np.array([float(sd.coefficients[0]) ** 2 for sd in analysis.slice_schmidt])
    first, second = analysis.remaining_parties
    blocks = {analysis.pivot_party: analysis.pivot_basis.copy(), first: left, second: right}
    order = np.argsort(-weights, kind="stable")
    weights = weights[order]
    basis_a = np.ascontiguousarray(blocks[0][:, order])
    basis_b = np.ascontiguousarray(blocks[1][:, order])
    basis_c = np.ascontiguousarray(blocks[2][:, order])
    for i in range(weights.size):
        ph = linalg._phase_fix(basis_a[:, i])
        basis_a[:, i] *= ph
        basis_c[:, i] *= np.conj(ph)
        ph = linalg._phase_fix(basis_b[:, i])
        basis_b[:, i] *= ph
        basis_c[:, i] *= np.conj(ph)
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


def check(state: PureState, tol: Tolerances = DEFAULT_TOL, pivot: int | None = None) -> Verdict:
    """Decide whether ``state`` admits a single-sum decomposition.

    Acceptance is constructive: the verdict carries the decomposition
    and is only issued when the slicing is rank one with orthonormal
    factor families.  Rejection is issued when it is sound: a
    non-degenerate eigenbasis is unique, so its slicing is forced; in
    the degenerate case a rejection needs either a forced rank defect
    outside the degenerate blocks, an in-block contradiction, or
    clearly unequal single-party spectra.  Anything else raises
    :class:`Indeterminate`.
    """
    analysis = analyze(state, tol, pivot=pivot)
    retained = len(analysis.slices)
    groups = degeneracy_groups(analysis.pivot_spectrum[:retained], tol)
    degenerate = any(len(g) > 1 for g in groups)

    final = analysis
    accepted = _configuration_valid(final, tol)
    if not accepted and degenerate:
        refined = refine_degenerate(analysis, tol)
        if not refined.not_refinable and _configuration_valid(refined, tol):
            final = refined
            accepted = True

    residual = _max_residual(final)
    if accepted:
        return Verdict(True, construct(final, tol), final, degenerate, residual)
    if not degenerate:
        return Verdict(False, None, final, False, residual)

    # Degenerate pivot spectrum and no valid slicing found: reject only on
    # sound grounds, otherwise refuse to guess.
    singleton_defect = any(
        len(g) == 1 and analysis.slice_ranks[g[0]] != 1 for g in groups
    )
    if singleton_defect:
        return Verdict(False, None, final, True, residual)
    for group in groups:
        if len(group) < 2 or any(analysis.slice_ranks[i] != 1 for i in group):
            continue
        # All-rank-one block whose members are not factor-orthogonal: the
        # span of this block contains no valid slicing at all.
        sub = replace(
            analysis,
            slices=tuple(analysis.slices[i] for i in group),
            slice_schmidt=tuple(analysis.slice_schmidt[i] for i in group),
            slice_ranks=tuple(analysis.slice_ranks[i] for i in group),
        )
        if not _families_orthonormal(sub, tol):
            return Verdict(False, None, final, True, residual)
    # A decomposition forces equal nonzero single-party spectra.
    a, b, c = _party_spectra(state)
    margin = math.sqrt(tol.recon_abs)
    if not all(_spectra_match(p, q, tol, margin) for p, q in ((a, b), (a, c), (b, c))):
        return Verdict(False, None, final, True, residual)
    raise Indeterminate(
        "degenerate eigenspace could not be refined to a rank-one slicing",
        analysis=final,
        max_residual=residual,
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
        try:
            s = np.linalg.svd(np.moveaxis(t, p, 0).reshape(d, -1), compute_uv=False) ** 2
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
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
