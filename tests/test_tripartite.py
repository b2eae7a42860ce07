import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from trischmidt import linalg, tripartite
from trischmidt import (
    DimensionMismatch,
    Indeterminate,
    NoConvergence,
    NotNormalized,
    PureState,
    RankNotOne,
    Tolerances,
    analyze,
    check,
    construct,
    ghz_state,
    haar_state,
    haar_unitary,
    overlap,
    partial_inner_product,
    product_state,
    reconstruct_tripartite,
    reduced_density,
    schmidt_state,
    spectrum_report,
    w_state,
)
from trischmidt.tripartite import degeneracy_groups, refine_degenerate

from helpers import apply_local_unitary

GHZ = ghz_state((2, 2, 2))
W = w_state((2, 2, 2))


def _antisymmetric_state() -> PureState:
    # eps_ijk / sqrt(6): every slice is an antisymmetric matrix of rank two
    amp = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        amp[perm] = np.linalg.det(np.eye(3)[list(perm)]) / np.sqrt(6)
    return PureState((3, 3, 3), amp.reshape(-1))


ANTISYM = _antisymmetric_state()


def _permute_parties(state: PureState, perm) -> PureState:
    dims = tuple(state.dims[p] for p in perm)
    return PureState(dims, state.tensor.transpose(perm).reshape(-1))


def test_analyze_ghz():
    analysis = analyze(GHZ)
    assert analysis.pivot_party == 0
    assert np.allclose(analysis.pivot_spectrum, [0.5, 0.5])
    assert analysis.slice_ranks == (1, 1)
    expected0 = np.zeros((2, 2))
    expected0[0, 0] = 1 / np.sqrt(2)
    expected1 = np.zeros((2, 2))
    expected1[1, 1] = 1 / np.sqrt(2)
    assert np.max(np.abs(np.abs(analysis.slices[0]) - expected0)) < 1e-12
    assert np.max(np.abs(np.abs(analysis.slices[1]) - expected1)) < 1e-12


def test_analyze_w():
    analysis = analyze(W)
    assert np.allclose(analysis.pivot_spectrum, [2 / 3, 1 / 3])
    assert analysis.slice_ranks == (2, 1)


def test_analyze_product():
    analysis = analyze(product_state((2, 2, 2)))
    assert len(analysis.slices) == 1
    assert analysis.slice_ranks == (1,)
    assert np.allclose(analysis.pivot_spectrum, [1.0, 0.0])


def test_analyze_slice_norms_match_spectrum():
    state = haar_state((3, 4, 4), seed=21)
    analysis = analyze(state)
    norms = [np.linalg.norm(s) ** 2 for s in analysis.slices]
    assert np.max(np.abs(norms - analysis.pivot_spectrum[: len(norms)])) < 1e-10
    gram = np.array(
        [[np.vdot(sj, si) for sj in analysis.slices] for si in analysis.slices]
    )
    assert np.max(np.abs(gram - np.diag(np.diagonal(gram)))) < 1e-10


def test_analyze_requires_tripartite():
    with pytest.raises(DimensionMismatch):
        analyze(PureState((2, 4), GHZ.amplitudes))


PARTY_CALLS = {
    "check": lambda state, party: check(state, pivot=party),
    "analyze": lambda state, party: analyze(state, pivot=party),
    "reduced_density": lambda state, party: reduced_density(state, (party,)),
    "partial_inner_product": lambda state, party: partial_inner_product(state, party, np.eye(3)[0]),
}


@pytest.mark.parametrize("name", PARTY_CALLS)
@pytest.mark.parametrize("party", [-0.5, 0.9, 1.7, 2.9, 3, -1, "1"], ids=repr)
def test_party_index_must_be_an_in_range_integer(name, party):
    # a float index used to be truncated toward zero and silently accepted
    state = haar_state((3, 3, 3), seed=3400)
    with pytest.raises(DimensionMismatch):
        PARTY_CALLS[name](state, party)


@pytest.mark.parametrize("name", PARTY_CALLS)
def test_numpy_integer_party_index_is_accepted(name):
    state = haar_state((3, 3, 3), seed=3400)
    got, want = PARTY_CALLS[name](state, np.int64(1)), PARTY_CALLS[name](state, 1)
    if name == "check":
        got, want = got.analysis, want.analysis
    if name in ("check", "analyze"):
        assert got.pivot_party == want.pivot_party == 1
        got, want = got.slice_values, want.slice_values
    assert np.array_equal(got, want)


def test_check_ghz():
    verdict = check(GHZ)
    assert verdict.decomposable
    assert verdict.degenerate
    assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-10
    assert verdict.max_residual < 1e-12


def test_check_w():
    verdict = check(W)
    assert not verdict.decomposable
    assert not verdict.degenerate
    assert verdict.decomposition is None
    assert abs(verdict.max_residual - 1 / np.sqrt(3)) < 1e-10


def test_check_generator_state():
    state = schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=42)
    verdict = check(state)
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - [0.5, 0.3, 0.2])) < 1e-8
    rebuilt = reconstruct_tripartite(verdict.decomposition)
    assert abs(overlap(state, rebuilt)) >= 1 - 1e-10


def test_check_rejects_parallel_factor_state():
    # product slices whose B factors coincide: rank-one slicing exists but
    # no single-sum decomposition does (single-party spectra disagree)
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = np.sqrt(0.7)
    amp[1, 0, 1] = np.sqrt(0.3)
    verdict = check(PureState((2, 2, 2), amp.reshape(-1)))
    assert not verdict.decomposable
    assert verdict.analysis.slice_ranks == (1, 1)
    report = spectrum_report(PureState((2, 2, 2), amp.reshape(-1)))
    assert not report.equal_ab


def test_check_rejects_degenerate_parallel_factor_state():
    # the maximally entangled A-C pair times |0>_B: every A-basis slicing is
    # rank one, yet rho_B is pure; must be a clean rejection, not indeterminate
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = np.sqrt(0.5)
    amp[1, 0, 1] = np.sqrt(0.5)
    verdict = check(PureState((2, 2, 2), amp.reshape(-1)))
    assert not verdict.decomposable
    assert verdict.degenerate


def test_construct_ghz_and_product():
    sd = construct(analyze(GHZ))
    assert np.allclose(sd.weights, [0.5, 0.5])
    for block in (sd.basis_a, sd.basis_b, sd.basis_c):
        assert np.max(np.abs(block.conj().T @ block - np.eye(2))) < 1e-10
    sd1 = construct(analyze(product_state((2, 2, 2))))
    assert np.allclose(sd1.weights, [1.0])


def test_construct_recovers_generator_weights_exactly():
    state = schmidt_state((3, 3, 3), [0.7, 0.2, 0.1], seed=7)
    sd = construct(analyze(state))
    assert np.max(np.abs(sd.weights - [0.7, 0.2, 0.1])) < 1e-10


def test_construct_requires_rank_one():
    with pytest.raises(RankNotOne):
        construct(analyze(W))


def test_refine_leaves_ghz_unchanged():
    analysis = analyze(GHZ)
    refined = refine_degenerate(analysis)
    assert refined is analysis


def test_refine_finds_no_rank_one_slicing_of_w():
    # W's slices share no factor bases, so no basis of the retained span slices it to rank one
    assert refine_degenerate(analyze(W)) is None


def test_refine_recovers_rotated_ghz():
    # a Hadamard-like rotation inside the degenerate eigenspace makes the
    # computational-basis slices rank two; refinement must undo it
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    rotated = apply_local_unitary(GHZ, 0, h)
    analysis = analyze(rotated)
    assert any(r > 1 for r in analysis.slice_ranks)
    refined = refine_degenerate(analysis)
    assert refined is not None
    assert refined.slice_ranks == (1, 1)
    basis = refined.pivot_basis
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-10
    verdict = check(rotated)
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-9
    assert abs(overlap(rotated, reconstruct_tripartite(verdict.decomposition))) >= 1 - 1e-10


def test_refine_handles_mixed_bell_slices():
    # |0>(Phi+) + |1>(Phi-) is GHZ in disguise; both slices are rank two
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = amp[0, 1, 1] = amp[1, 0, 0] = 0.5
    amp[1, 1, 1] = -0.5
    state = PureState((2, 2, 2), amp.reshape(-1))
    verdict = check(state)
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-9
    # the slices of eps_ijk share no factor bases: every combination has rank two
    assert refine_degenerate(analyze(ANTISYM)) is None
    # shared bases with more modes than slices admit no rank-one slicing
    wide = [np.diag([1.0, 1.0, 0.0]) / 2, np.diag([0.0, 0.0, np.sqrt(2)]) / 2]
    assert tripartite._shared_factors(wide, Tolerances())[2].shape[1] > len(wide)


def test_reconstruct_from_explicit_decomposition():
    from trischmidt import TripartiteSchmidt

    eye = np.eye(2, dtype=complex)
    sd = TripartiteSchmidt(
        weights=np.array([0.5, 0.5]), basis_a=eye, basis_b=eye, basis_c=eye
    )
    rebuilt = reconstruct_tripartite(sd)
    assert np.max(np.abs(rebuilt.amplitudes - GHZ.amplitudes)) < 1e-15
    single = TripartiteSchmidt(
        weights=np.array([1.0]),
        basis_a=eye[:, :1],
        basis_b=eye[:, :1],
        basis_c=eye[:, :1],
    )
    assert np.max(np.abs(reconstruct_tripartite(single).amplitudes - np.eye(8)[0])) < 1e-15


def test_construct_canonical_phases():
    rng = np.random.default_rng(99)
    state = schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=44)
    for party in range(3):
        state = apply_local_unitary(state, party, haar_unitary(state.dims[party], rng))
    sd = check(state).decomposition
    for block in (sd.basis_a, sd.basis_b):
        for i in range(sd.weights.size):
            top = block[np.argmax(np.abs(block[:, i])), i]
            assert top.real > 0 and abs(top.imag) <= 1e-10


def test_reconstruct_round_trip():
    sd = construct(analyze(GHZ))
    rebuilt = reconstruct_tripartite(sd)
    assert abs(abs(overlap(GHZ, rebuilt)) - 1.0) < 1e-12
    state = schmidt_state((4, 5, 6), [0.4, 0.3, 0.2, 0.1], seed=17)
    verdict = check(state)
    assert verdict.decomposable
    assert abs(overlap(state, reconstruct_tripartite(verdict.decomposition))) >= 1 - 1e-10


def test_spectrum_report_ghz():
    report = spectrum_report(GHZ)
    for spec in (report.spectrum_a, report.spectrum_b, report.spectrum_c):
        assert np.allclose(spec, [0.5, 0.5])
    assert report.equal_ab and report.equal_ac and report.equal_bc and report.equal_a_bc


def test_spectrum_report_w_equal_but_not_decomposable():
    report = spectrum_report(W)
    for spec in (report.spectrum_a, report.spectrum_b, report.spectrum_c):
        assert np.max(np.abs(spec - [2 / 3, 1 / 3])) < 1e-10
    assert report.equal_ab and report.equal_ac and report.equal_bc
    assert not check(W).decomposable


def test_spectrum_report_a_bc_always_equal():
    for seed in range(6):
        state = haar_state((2 + seed % 3, 3, 4), seed=3000 + seed)
        report = spectrum_report(state)
        assert report.equal_a_bc


@pytest.mark.parametrize("dims", [(2, 3, 4), (5, 2, 2), (1, 3, 4), (3, 1, 4)])
def test_spectrum_report_matches_reduced_density_eigenvalues(dims):
    # (5, 2, 2) has d_A > d_B*d_C, so the BC spectrum is A's cut short
    state = haar_state(dims, seed=3100 + sum(dims))
    report = spectrum_report(state)
    spectra = (report.spectrum_a, report.spectrum_b, report.spectrum_c, report.spectrum_bc)
    for keep, spec in zip(((0,), (1,), (2,), (1, 2)), spectra):
        want = np.linalg.eigvalsh(reduced_density(state, keep))[::-1]
        assert spec.shape == (int(np.prod([dims[k] for k in keep])),)
        assert np.max(np.abs(spec - want)) < 1e-10
    assert report.equal_a_bc


def test_spectrum_report_builds_no_density_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum_report must not build or eigendecompose rho")

    monkeypatch.setattr(tripartite, "reduced_density", forbidden)
    monkeypatch.setattr(linalg, "hermitian_eigendecompose", forbidden)
    report = spectrum_report(haar_state((2, 64, 64), seed=3200))
    assert report.spectrum_bc.shape == (64 * 64,)
    assert np.max(np.abs(report.spectrum_bc[2:]), initial=0.0) == 0.0
    assert report.equal_a_bc


def test_check_and_spectra_never_call_reduced_density(monkeypatch):
    # analyze takes rho and the slices from one unfolding of the state
    def forbidden(*args, **kwargs):
        raise AssertionError("tripartite.reduced_density must not be called")

    monkeypatch.setattr(tripartite, "reduced_density", forbidden)
    for state in (GHZ, W, haar_state((3, 4, 5), seed=3300)):
        for pivot in (None, 0, 1, 2):
            check(state, pivot=pivot)
        spectrum_report(state)


def test_spectrum_report_maps_svd_failure_to_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    # rank-two slices, so refinement reaches its SVDs
    rotated = analyze(apply_local_unitary(GHZ, 0, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)))
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence):
        spectrum_report(GHZ)
    # so do the batched SVD of the slice stack, refinement and the public SVD
    with pytest.raises(NoConvergence):
        analyze(GHZ)
    with pytest.raises(NoConvergence):
        refine_degenerate(rotated)
    with pytest.raises(NoConvergence):
        linalg.svd(np.eye(2))
    # and the eigensolve behind analyze and the public eigendecomposition
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        analyze(GHZ)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigendecompose(np.eye(2))


def _assert_leading_factors(analysis):
    # the factor columns of every rank-one slice are its leading singular
    # vectors up to one phase, and rebuild the slice with its top value up
    # to its second one
    u, _, vh = np.linalg.svd(analysis.slices)
    for i, rank in enumerate(analysis.slice_ranks):
        if rank != 1:
            continue
        left, right = analysis.left_factors[:, i], analysis.right_factors[:, i]
        phase = np.vdot(u[i, :, 0], left)
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(left - phase * u[i, :, 0])) <= 1e-12
        assert np.max(np.abs(right - vh[i, 0] / phase)) <= 1e-12
        rebuilt = analysis.slice_values[i, 0] * np.outer(left, right)
        second = analysis.slice_values[i, 1] if analysis.slice_values.shape[1] > 1 else 0.0
        assert np.max(np.abs(rebuilt - analysis.slices[i])) <= second + 1e-12


@pytest.mark.parametrize("state, refines", [
    (schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92), True),
    (haar_state((32, 32, 32), seed=94), False),
])
def test_check_decides_on_one_batched_slice_svd(state, refines, monkeypatch):
    from trischmidt import bipartite, states

    def forbidden(*args, **kwargs):
        raise AssertionError("check must not decompose or contract the slices one by one")

    refined = []
    refine = tripartite.refine_degenerate

    def recorded(*args):
        refined.append(refine(*args))
        return refined[-1]

    svd_calls = []
    numpy_svd = np.linalg.svd

    def recorded_svd(a, *args, **kwargs):
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        svd_calls.append((np.ndim(a), compute_uv))
        return numpy_svd(a, *args, **kwargs)

    monkeypatch.setattr(bipartite, "schmidt_decompose", forbidden)
    monkeypatch.setattr(tripartite, "schmidt_decompose", forbidden)
    monkeypatch.setattr(states, "partial_inner_product", forbidden)
    monkeypatch.setattr(tripartite, "partial_inner_product", forbidden)
    monkeypatch.setattr(linalg, "svd", forbidden)
    monkeypatch.setattr(tripartite, "refine_degenerate", recorded)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    verdict = check(state)
    monkeypatch.undo()
    assert verdict.decomposable is refines
    assert len(refined) == int(refines)
    # the slice stacks get singular values only, one batched call each
    assert svd_calls.count((3, False)) == 1 + len(refined)
    assert (3, True) not in svd_calls
    for analysis in (analyze(state), *refined):
        r = analysis.pivot_basis.shape[1]
        first, second = (state.dims[p] for p in analysis.remaining_parties)
        assert isinstance(analysis.slices, np.ndarray)
        assert analysis.slices.shape == (r, first, second)
        expected = np.linalg.svd(analysis.slices, compute_uv=False)
        assert np.max(np.abs(analysis.slice_values - expected)) <= 1e-14
        _assert_leading_factors(analysis)
    if verdict.decomposable:
        assert set(verdict.analysis.slice_ranks) == {1}


def test_power_step_factors_of_nearly_rank_one_slices():
    # rank-one slices, and slices whose second singular value is 1e-11 of
    # the first, which still count as rank one under rank_rel = 1e-10
    rng = np.random.default_rng(95)
    stack = []
    for second in (0.0, 0.0, 1e-11, 1e-11, 1e-11):
        a, b = haar_unitary(5, rng), haar_unitary(6, rng)
        top, below = np.outer(a[:, 0], b[0]), np.outer(a[:, 1], b[1])
        stack.append(rng.uniform(0.1, 1.0) * (top + second * below))
    stack = np.array(stack)
    left, right = tripartite._power_step_factors(stack)
    analysis = SimpleNamespace(**tripartite._slice_fields(stack, Tolerances()),
                               left_factors=left, right_factors=right)
    assert analysis.slice_ranks == (1,) * 5
    assert np.all(analysis.slice_values[2:, 1] > 0.0)
    _assert_leading_factors(analysis)


@pytest.mark.parametrize("dims", [(3, 4, 5), (1, 3, 4), (3, 1, 4)])
def test_analyze_slices_are_the_partial_inner_products(dims):
    # reference: one partial_inner_product per pivot basis vector
    state = haar_state(dims, seed=96)
    for pivot in range(3):
        analysis = analyze(state, pivot=pivot)
        basis = analysis.pivot_basis
        expected = np.array([partial_inner_product(state, pivot, basis[:, i])
                             for i in range(basis.shape[1])])
        assert analysis.slices.shape == expected.shape
        assert np.max(np.abs(analysis.slices - expected)) <= 1e-14


def test_analyze_rejects_a_pivot_basis_that_is_not_unit_norm(monkeypatch):
    eigendecompose = linalg._eigh_canonical

    def scaled(*args, **kwargs):
        values, vectors = eigendecompose(*args, **kwargs)
        return values, 1.1 * vectors

    monkeypatch.setattr(linalg, "_eigh_canonical", scaled)
    with pytest.raises(NotNormalized):
        analyze(haar_state((3, 4, 5), seed=97))


def test_shared_basis_spectrum_matches_rho_b_when_shared_basis_exists():
    # slices of a decomposable state share their Schmidt bases, so the
    # accumulated mode sums reproduce the spectrum of rho_B
    tol = Tolerances()
    state = schmidt_state((3, 4, 5), [0.5, 0.3, 0.2], seed=200)
    spectrum = tripartite._shared_basis_spectrum(analyze(state).slices, tol)
    assert spectrum is not None
    report = spectrum_report(state)
    assert np.max(np.abs(spectrum - report.spectrum_b[: spectrum.size])) < 1e-9
    # generic entangled slices do not share a basis
    haar = analyze(haar_state((3, 3, 3), seed=201))
    assert tripartite._shared_basis_spectrum(haar.slices, tol) is None
    # product slices with a common left factor: their right factors differ
    assert tripartite._shared_basis_spectrum([np.diag([1.0, 0.0]), np.diag([1.0], 1)], tol) is None
    # a 1e-4 off-diagonal entry is far above the shared-basis tolerance
    leak = np.array([[0.0, 1e-4], [0.0, 0.0]])
    assert tripartite._shared_basis_spectrum([np.diag([1.0, 0.5]), leak], tol) is None


def test_power_step_factors_are_computed_once_and_only_when_read(monkeypatch):
    calls = []
    power_steps = tripartite._power_step_factors

    def counted(slices):
        calls.append(len(slices))
        return power_steps(slices)

    monkeypatch.setattr(tripartite, "_power_step_factors", counted)
    # Haar slices have full rank: the rejection reads no factor
    assert not check(haar_state((16, 16, 16), seed=98)).decomposable
    assert calls == []
    # an accepted distinct-weight state: once for the factor check and construct
    weights = [0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02]
    verdict = check(schmidt_state((8, 8, 8), weights, seed=99))
    assert verdict.decomposable and not verdict.degenerate
    assert calls == [8]
    # refine_degenerate's replace() starts the refined analysis with an empty cache
    calls.clear()
    state = schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92)
    analysis = analyze(state)
    unrotated = analysis.left_factors
    refined = refine_degenerate(analysis)
    assert refined is not analysis and calls == [6]
    assert refined.right_factors is refined.right_factors
    assert calls == [6, 6]
    assert not np.array_equal(refined.left_factors, unrotated)
    _assert_leading_factors(refined)
    calls.clear()
    verdict = check(state)
    assert verdict.decomposable and verdict.degenerate
    assert calls == [6]


def test_mixing_coefficients_are_drawn_once_per_slice_count():
    for n in (1, 2, 5, 12):
        rng = np.random.default_rng(0x5EED5)
        expected = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mix = tripartite._mix(n)
        assert np.array_equal(mix.view(np.uint64), expected.view(np.uint64))
        assert tripartite._mix(n) is mix
        assert not mix.flags.writeable


@pytest.mark.parametrize("state", [
    ghz_state((3, 3, 3)),  # exact ties among the kept eigenvalues
    w_state((3, 3, 3)),
    product_state((3, 4, 5)),  # exact zero ties beyond the rank cutoff
    haar_state((3, 4, 5), seed=103),
    haar_state((1, 3, 4), seed=104),
], ids=["ghz-3x3x3", "w-3x3x3", "product-3x4x5", "haar-3x4x5", "haar-1x3x4"])
def test_analyze_eigenbasis_is_the_checked_eigendecomposition_bit_for_bit(state):
    # analyze skips the Hermitian checks and canonicalizes only the kept columns
    for pivot in range(3):
        analysis = analyze(state, pivot=pivot)
        w, v = linalg.hermitian_eigendecompose(reduced_density(state, (pivot,)))
        r = analysis.pivot_basis.shape[1]
        assert r == linalg.numerical_rank(np.maximum(w, 0.0))
        assert np.array_equal(analysis.pivot_basis, v[:, :r])
        assert np.array_equal(analysis.pivot_spectrum, w)


def test_low_rank_pivot_excludes_zero_slices():
    # only two weights on a dim-4 pivot: two retained slices, zero modes dropped
    state = schmidt_state((4, 3, 3), [0.6, 0.4], seed=77)
    analysis = analyze(state)
    assert len(analysis.slices) == 2
    assert analysis.slice_ranks == (1, 1)
    assert np.max(np.abs(analysis.pivot_spectrum[2:])) < 1e-12
    verdict = check(state)
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - [0.6, 0.4])) < 1e-10


def test_degeneracy_groups():
    tol = Tolerances()
    assert degeneracy_groups([0.5, 0.5], tol) == [[0, 1]]
    assert degeneracy_groups([2 / 3, 1 / 3], tol) == [[0], [1]]
    assert degeneracy_groups([0.4, 0.4, 0.2], tol) == [[0, 1], [2]]
    assert degeneracy_groups([], tol) == []


def test_verdict_invariant_under_local_unitaries():
    rng = np.random.default_rng(47)
    accepted = schmidt_state((3, 4, 5), [0.5, 0.35, 0.15], seed=88)
    rejected = haar_state((3, 3, 3), seed=89)
    for state, expect in ((accepted, True), (rejected, False)):
        base = check(state)
        assert base.decomposable is expect
        rotated = state
        for party in range(3):
            rotated = apply_local_unitary(rotated, party, haar_unitary(state.dims[party], rng))
        after = check(rotated)
        assert after.decomposable is expect
        if expect:
            assert np.max(np.abs(after.decomposition.weights - base.decomposition.weights)) < 1e-8


def test_equal_spectrum_on_acceptance():
    state = schmidt_state((4, 6, 7), [0.4, 0.3, 0.2, 0.1], seed=23)
    verdict = check(state)
    assert verdict.decomposable
    weights = verdict.decomposition.weights
    report = spectrum_report(state)
    for spec in (report.spectrum_a, report.spectrum_b, report.spectrum_c):
        nonzero = spec[: len(weights)]
        assert np.max(np.abs(np.sort(nonzero)[::-1] - weights)) < 1e-9


def test_trivial_party_reduces_to_bipartite_schmidt():
    # with N_C = 1 the verdict is always decomposable and the weights are the
    # squared Schmidt coefficients of the A|B cut
    from trischmidt import schmidt_decompose

    base = schmidt_state((3, 5), [0.45, 0.35, 0.2], seed=31)
    for dims in ((3, 5, 1), (3, 1, 5), (1, 3, 5)):
        state = PureState(dims, base.amplitudes)
        verdict = check(state)
        assert verdict.decomposable
        coeffs = schmidt_decompose(base.tensor).coefficients
        assert np.max(np.abs(verdict.decomposition.weights - coeffs**2)) < 1e-10
        rebuilt = reconstruct_tripartite(verdict.decomposition)
        assert abs(overlap(state, rebuilt)) >= 1 - 1e-10


def test_entangled_state_with_trivial_party_is_fine_everywhere():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    state = PureState((2, 2, 1), bell)
    verdict = check(state)
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-12


@pytest.mark.parametrize("trivial", [0, 1, 2])
def test_check_refuses_an_explicit_trivial_pivot(trivial):
    # a dimension-1 pivot has one slice, the whole state: it would demand global rank one
    dims = tuple(1 if p == trivial else 2 for p in range(3))
    state = PureState(dims, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    with pytest.raises(DimensionMismatch, match=f"pivot {'ABC'[trivial]} has dimension 1"):
        check(state, pivot=trivial)
    for pivot in (None, *(p for p in range(3) if p != trivial)):
        verdict = check(state, pivot=pivot)
        assert verdict.decomposable
        assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-12
    # with every party trivial there is nothing larger, and pivot 0 is the default
    assert check(PureState((1, 1, 1), np.array([1.0])), pivot=0).decomposable


def test_check_all_pivots_agree_on_equal_dims():
    state = schmidt_state((3, 3, 3), [0.5, 0.3, 0.2], seed=61)
    for pivot in range(3):
        verdict = check(state, pivot=pivot)
        assert verdict.decomposable
        assert np.max(np.abs(verdict.decomposition.weights - [0.5, 0.3, 0.2])) < 1e-8
    hs = haar_state((2, 2, 2), seed=62)
    for pivot in range(3):
        assert not check(hs, pivot=pivot).decomposable


def test_forced_degenerate_generator_states_accepted():
    cases = [
        (schmidt_state((max(len(weights), 2), 5, 6), weights, seed=seed), weights)
        for seed, weights in ((1, [0.4, 0.4, 0.2]), (2, [0.25, 0.25, 0.25, 0.25]), (3, [0.5, 0.5]))
    ]
    # a 3-fold tie: 3x3x3 GHZ with a Haar unitary on A
    u = haar_unitary(3, np.random.default_rng(5))
    cases.append((apply_local_unitary(ghz_state((3, 3, 3)), 0, u), [1 / 3] * 3))
    for state, weights in cases:
        verdict = check(state)
        assert verdict.decomposable, weights
        expected = np.sort(np.array(weights) / np.sum(weights))[::-1]
        assert np.max(np.abs(verdict.decomposition.weights - expected)) < 1e-8
        assert abs(overlap(state, reconstruct_tripartite(verdict.decomposition))) >= 1 - 1e-9


@pytest.mark.parametrize("d", [16, 24, 32])
def test_one_simultaneous_diagonalization_refines_many_tied_blocks(d, monkeypatch):
    # d exactly tied weights in blocks whose sizes cycle 2, 1, 3, in Haar bases:
    # one combination SVD over all d retained slices finds the rotation
    sizes = []
    for size in itertools.cycle((2, 1, 3)):
        if sum(sizes) >= d:
            break
        sizes.append(min(size, d - sum(sizes)))
    calls = []
    shared_factors = tripartite._shared_factors

    def counted(slices, tol):
        calls.append(len(slices))
        return shared_factors(slices, tol)

    monkeypatch.setattr(tripartite, "_shared_factors", counted)
    for seed in (1, 2, 3):
        levels = np.cumsum(np.random.default_rng(seed).uniform(1.0, 2.0, len(sizes)))[::-1]
        weights = np.repeat(levels, sizes) / np.sum(np.repeat(levels, sizes))
        state = schmidt_state((d, d, d), weights, seed=seed)
        assert max(analyze(state).slice_ranks) > 1
        calls.clear()
        verdict = check(state)
        assert calls == [d]
        assert verdict.decomposable and verdict.degenerate
        assert np.max(np.abs(verdict.decomposition.weights - weights)) <= 1e-12


def test_verdict_invariant_under_party_permutations():
    rng = np.random.default_rng(59)
    ghz = ghz_state((3, 3, 3))
    for party in range(3):
        ghz = apply_local_unitary(ghz, party, haar_unitary(3, rng))
    ab = np.zeros((2, 2, 2), dtype=complex)
    ab[0, 0, 0] = np.sqrt(0.7)
    ab[1, 0, 1] = np.sqrt(0.3)
    cases = (
        (schmidt_state((3, 4, 5), [0.5, 0.3, 0.2], seed=91), True),
        # tied weights in Haar bases: the degenerate blocks need refinement
        (schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92), True),
        (ghz, True),
        (W, False),
        (PureState((2, 2, 2), ab.reshape(-1)), False),
        (haar_state((2, 3, 4), seed=93), False),
    )
    for state, expect in cases:
        base = check(state)
        assert base.decomposable is expect
        for perm in itertools.permutations(range(3)):
            verdict = check(_permute_parties(state, perm))
            assert verdict.decomposable is expect, perm
            if expect:
                diff = verdict.decomposition.weights - base.decomposition.weights
                assert np.max(np.abs(diff)) < 1e-8, perm


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="near-tie: weights 1e-7 apart count as distinct, and pivot eigenvectors "
    "conditioned only to eps/gap leave slices of rank two",
)
def test_near_tie_weights_accepted():
    rejected = [
        seed
        for seed in range(20)
        if not check(schmidt_state((3, 5, 5), [0.4, 0.4 - 1e-7, 0.2], seed=seed)).decomposable
    ]
    assert rejected == []


@pytest.mark.xfail(
    strict=True,
    raises=Indeterminate,
    reason="antisym: every slice of eps_ijk has rank two, yet the degenerate "
    "fallback finds no sound rejection",
)
def test_antisymmetric_state_rejected():
    verdict = check(ANTISYM)
    assert not verdict.decomposable
