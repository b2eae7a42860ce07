import itertools
import math

import numpy as np
import pytest

from trischmidt import linalg, tripartite
from trischmidt import (
    DEFAULT_TOL,
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

from helpers import (ANTISYM, UNEQUAL_SPECTRA, UNTIED_ENTANGLED, apply_local_unitary, basis_state,
                     haar_rotated, permute_parties, tied_blocks_state)

GHZ = ghz_state((2, 2, 2))
W = w_state((2, 2, 2))
# product slices whose B factors coincide: rank-one slicing exists but no
# single-sum decomposition does (single-party spectra disagree)
PARALLEL = basis_state((2, 2, 2), [((0, 0, 0), np.sqrt(0.7)), ((1, 0, 1), np.sqrt(0.3))])


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


@pytest.mark.parametrize("call", [
    spectrum_report,
    lambda state: partial_inner_product(state, 0, [1.0, 0.0]),
], ids=["spectrum_report", "partial_inner_product"])
def test_tripartite_calls_refuse_a_two_party_state(call):
    with pytest.raises(DimensionMismatch, match="defined for tripartite states"):
        call(PureState((2, 4), GHZ.amplitudes))


PARTY_CALLS = {
    "reduced_density": lambda state, party: reduced_density(state, (party,)),
    "partial_inner_product": lambda state, party: partial_inner_product(state, party, np.eye(3)[0]),
}


@pytest.mark.parametrize("name", PARTY_CALLS)
@pytest.mark.parametrize("party", [-0.5, 0.9, 1.7, 2.9, 3, -1, "1", True, False], ids=repr)
def test_party_index_must_be_an_in_range_integer(name, party):
    # a float index used to be truncated toward zero and silently accepted,
    # and a bool, an int subclass, used to name party 0 or 1
    state = haar_state((3, 3, 3), seed=3400)
    with pytest.raises(DimensionMismatch):
        PARTY_CALLS[name](state, party)


@pytest.mark.parametrize("name", PARTY_CALLS)
def test_numpy_integer_party_index_is_accepted(name):
    state = haar_state((3, 3, 3), seed=3400)
    got, want = PARTY_CALLS[name](state, np.int64(1)), PARTY_CALLS[name](state, 1)
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
    verdict = check(PARALLEL)
    assert not verdict.decomposable
    assert verdict.analysis.slice_ranks == (1, 1)
    assert not spectrum_report(PARALLEL)["spectrum_equal"]["A_B"]


def test_check_rejects_degenerate_parallel_factor_state():
    # the maximally entangled A-C pair times |0>_B: every A-basis slicing is
    # rank one, yet rho_B is pure; must be a clean rejection, not indeterminate
    verdict = check(basis_state((2, 2, 2), [((0, 0, 0), np.sqrt(0.5)), ((1, 0, 1), np.sqrt(0.5))]))
    assert not verdict.decomposable
    assert verdict.degenerate


def test_indeterminate_carries_the_unsettled_verdict(monkeypatch):
    # a rotated GHZ 3^3 is degenerate with equal spectra: without refinement
    # no sound rejection applies, and check raises
    state = haar_rotated(ghz_state((3, 3, 3)), seed=0)
    analysis = analyze(state)
    monkeypatch.setattr(tripartite, "refine_degenerate", lambda analysis: None)
    with pytest.raises(Indeterminate) as info:
        check(state)
    verdict = info.value.verdict
    assert verdict.decomposable is None
    assert verdict.degenerate is True
    assert verdict.decomposition is None
    assert verdict.analysis.slice_ranks == analysis.slice_ranks == (3, 3, 3)
    assert np.array_equal(verdict.analysis.pivot_basis, analysis.pivot_basis)
    assert np.array_equal(verdict.analysis.slice_values, analysis.slice_values)
    assert verdict.max_residual == float(np.max(analysis.slice_values[:, 1:]))


@pytest.mark.parametrize("state, spectra_rule", [
    (UNTIED_ENTANGLED, False),
    (haar_rotated(UNTIED_ENTANGLED, seed=3), False),
    (UNEQUAL_SPECTRA, True),
    (haar_rotated(UNEQUAL_SPECTRA, seed=3), True),
], ids=["untied-entangled", "untied-entangled-rot", "unequal-spectra", "unequal-spectra-rot"])
def test_degenerate_fallback_rejections(state, spectra_rule):
    # a degenerate pivot that refinement cannot slice to rank one is rejected
    # either by an untied slice of rank > 1 or by unequal single-party spectra;
    # only the spectra rule reads the unfoldings (tests/test_work_budget.py)
    verdict = check(state)
    assert verdict.decomposable is False and verdict.degenerate
    analysis = verdict.analysis
    groups = degeneracy_groups(analysis.pivot_spectrum[: len(analysis.slices)])
    untied_defect = any(len(g) == 1 and analysis.slice_ranks[g[0]] > 1 for g in groups)
    assert untied_defect is not spectra_rule


@pytest.mark.parametrize("gap", [1e-6, 1e-7, 3e-8])
@pytest.mark.parametrize("weights, near", [([0.3, 0.3, 0.2, 0.2], 3), ([0.4, 0.4, 0.1, 0.1], 1)])
def test_near_tie_beside_another_tie_is_accepted(gap, weights, near):
    # the near-tie fault is the degenerate gate: a 1e-7 gap alone is the
    # near-tie xfail below, but beside an exact tie the refinement accepts
    weights = np.array(weights)
    weights[near] -= gap
    expected = weights / weights.sum()
    for seed in range(20):
        verdict = check(schmidt_state((4, 5, 5), weights, seed=seed))
        assert verdict.decomposable and verdict.degenerate, seed
        assert np.max(np.abs(verdict.decomposition.weights - np.sort(expected)[::-1])) <= 1e-15


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
    verdict = check(basis_state((2, 2, 2), [((0, 0, 0), 0.5), ((0, 1, 1), 0.5), ((1, 0, 0), 0.5),
                                            ((1, 1, 1), -0.5)]))
    assert verdict.decomposable
    assert np.max(np.abs(verdict.decomposition.weights - 0.5)) < 1e-9
    # the slices of eps_ijk share no factor bases: every combination has rank two
    assert refine_degenerate(analyze(ANTISYM)) is None
    # shared bases with more modes than slices admit no rank-one slicing
    wide = [np.diag([1.0, 1.0, 0.0]) / 2, np.diag([0.0, 0.0, np.sqrt(2)]) / 2]
    assert tripartite._shared_factors(wide, Tolerances()).shape[1] > len(wide)


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
    sd = check(haar_rotated(schmidt_state((3, 4, 4), [0.5, 0.3, 0.2], seed=44), 99)).decomposition
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
    for party in "ABC":
        assert np.allclose(report["spectra"][party], [0.5, 0.5])
    assert all(report["spectrum_equal"].values())


def test_spectrum_report_w_equal_but_not_decomposable():
    report = spectrum_report(W)
    for party in "ABC":
        assert np.max(np.abs(report["spectra"][party] - [2 / 3, 1 / 3])) < 1e-10
    equal = report["spectrum_equal"]
    assert equal["A_B"] and equal["A_C"] and equal["B_C"]
    assert not check(W).decomposable


def test_spectrum_report_a_bc_always_equal():
    # A_BC is reported True without a test: the BC spectrum is A's nonzero
    # spectrum, bit for bit, then exact zeros; (5, 2, 2) has d_A > d_B*d_C
    tol = Tolerances()
    shapes = [((2 + seed % 3, 3, 4), 3000 + seed) for seed in range(6)]
    for dims, seed in shapes + [((2, 64, 64), 3200), ((5, 2, 2), 3105)]:
        report = spectrum_report(haar_state(dims, seed=seed))
        a, bc = report["spectra"]["A"], report["spectra"]["BC"]
        nonzero = np.count_nonzero(a)
        assert bc.shape == (dims[1] * dims[2],)
        assert np.array_equal(bc[:nonzero], a[:nonzero])
        assert not bc[nonzero:].any()
        assert tripartite._spectra_match(a, bc, tol, tol.recon_abs)
        assert report["spectrum_equal"]["A_BC"] is True


@pytest.mark.parametrize("dims", [(2, 3, 4), (5, 2, 2), (1, 3, 4), (3, 1, 4)])
def test_spectrum_report_matches_reduced_density_eigenvalues(dims):
    # (5, 2, 2) has d_A > d_B*d_C, so the BC spectrum is A's cut short
    state = haar_state(dims, seed=3100 + sum(dims))
    report = spectrum_report(state)
    for keep, spec in zip(((0,), (1,), (2,), (1, 2)), report["spectra"].values()):
        want = np.linalg.eigvalsh(reduced_density(state, keep))[::-1]
        assert spec.shape == (int(np.prod([dims[k] for k in keep])),)
        assert np.max(np.abs(spec - want)) < 1e-10
    assert report["spectrum_equal"]["A_BC"]


def test_spectrum_report_maps_svd_failure_to_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    # rank-two slices, so refinement reaches its SVDs
    rotated = analyze(apply_local_unitary(GHZ, 0, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)))
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence):
        spectrum_report(GHZ)
    # so do the slice SVDs, made on first read of the values, refinement and the public SVD
    with pytest.raises(NoConvergence):
        analyze(GHZ).slice_values
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


@pytest.mark.parametrize("state, decomposable", [
    (schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92), True),  # refined
    (haar_state((32, 32, 32), seed=94), False),
    (schmidt_state((16, 16, 16), np.arange(16, 0, -1) / 136, seed=93), True),
    (haar_state((16, 16, 16), seed=97), False),
    (W, False),
    (w_state((3, 3, 3)), False),
    (product_state((3, 4, 5)), True),  # one retained slice
], ids=["tied-6x7x8", "haar-32", "distinct-16", "haar-16", "w-2", "w-3", "product-3x4x5"])
def test_checked_slicings_read_as_one_batched_svd(state, decomposable):
    # the eigenbasis slicing and the one check decided on (refined, if it was):
    # read after the check, slice 0 on its own and the rest in one call give
    # the bits of one batched call
    verdict = check(state)
    assert verdict.decomposable is decomposable
    assert verdict.degenerate is (state.dims == (6, 7, 8))  # the one tied pivot
    for analysis in (analyze(state), verdict.analysis):
        slices, r = analysis.slices, analysis.pivot_basis.shape[1]
        remaining = [d for p, d in enumerate(state.dims) if p != analysis.pivot_party]
        assert slices.shape == (r, *remaining)
        assert np.array_equal(analysis.slice_values, np.linalg.svd(slices, compute_uv=False))
        _assert_leading_factors(analysis)
    assert verdict.max_residual == float(np.max(verdict.analysis.slice_values[:, 1:], initial=0.0))
    if decomposable:
        assert set(verdict.analysis.slice_ranks) == {1}
        assert np.all(verdict.analysis.rank_one_residuals <= 1e-14)
        assert len(verdict.analysis.slices) > 1 or verdict.max_residual <= 1e-15  # product
    elif max(state.dims) <= 3:  # W: each slice holds one or two excitations of weight 1/3
        assert abs(verdict.max_residual - 1 / np.sqrt(3)) <= 1e-15


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
    analysis = tripartite.SliceAnalysis(pivot_party=0, pivot_basis=None, pivot_spectrum=None,
                                        slices=stack, tol=Tolerances())
    assert analysis.slice_ranks == (1,) * 5
    assert np.all(analysis.slice_values[2:, 1] > 0.0)
    _assert_leading_factors(analysis)
    # the power-step residual bounds sigma_2 / sigma_1 from above, and here
    # meets it within rounding; the squared norms are the sums of sigma^2
    values = analysis.slice_values
    bound = values[:, 1] / values[:, 0]
    assert np.all(analysis.rank_one_residuals >= bound - 1e-15)
    assert np.all(analysis.rank_one_residuals <= bound + 1e-15)
    assert np.max(np.abs(analysis.squared_norms - np.sum(values**2, axis=1))) <= 1e-15


@pytest.mark.parametrize("rank_rel", [1e-10, 1e-6, 1e-15])
@pytest.mark.parametrize("ratio", [0.1, 0.45, 0.55, 0.9, 1.1, 10])
def test_rank_one_proof_agrees_with_the_svd_rule(rank_rel, ratio):
    # four slices, one of them (slice `seed % 4`, so slice 0 too) with
    # sigma_2 / sigma_1 = ratio * rank_rel and the rest exactly rank one
    tol = Tolerances(rank_rel=rank_rel)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        stack = []
        for i in range(4):
            a, b = haar_unitary(5, rng), haar_unitary(6, rng)
            second = ratio * rank_rel if i == seed % 4 else 0.0
            slice_ = np.outer(a[:, 0], b[0]) + second * np.outer(a[:, 1], b[1])
            stack.append(rng.uniform(0.1, 1.0) * slice_)
        analysis = tripartite.SliceAnalysis(pivot_party=0, pivot_basis=None, pivot_spectrum=None,
                                            slices=np.array(stack), tol=tol)
        proved = analysis.all_rank_one
        read = "slice_ranks" in vars(analysis)
        assert proved == all(rank == 1 for rank in analysis.slice_ranks), seed
        if rank_rel >= 1e-10:  # far above rounding, so the residual decides the side
            assert proved is (ratio < 1)
            assert read is (0.5 < ratio and (ratio < 1 or seed % 4 != 0))
        if not proved:
            with pytest.raises(RankNotOne):
                construct(analysis)


# shapes whose default pivot is A, B, A, B and C: each party, and past a trivial one
PIVOT_SHAPES = [(3, 4, 5), (1, 3, 4), (3, 1, 4), (4, 3, 5), (5, 4, 3)]


@pytest.mark.parametrize("dims", PIVOT_SHAPES)
def test_analyze_slices_are_the_partial_inner_products(dims):
    # reference: one partial_inner_product per pivot basis vector
    state = haar_state(dims, seed=96)
    analysis = analyze(state)
    pivot = analysis.pivot_party
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

    def nan_column(*args, **kwargs):
        values, vectors = eigendecompose(*args, **kwargs)
        vectors[:, -1] = np.nan
        return values, vectors

    # a NaN norm fails the same test as in partial_inner_product
    monkeypatch.setattr(linalg, "_eigh_canonical", nan_column)
    with pytest.raises(NotNormalized, match="deviates from 1 by nan"):
        analyze(haar_state((3, 4, 5), seed=97))


def test_shared_basis_spectrum_matches_rho_b_when_shared_basis_exists():
    # slices of a decomposable state share their Schmidt bases, so the
    # accumulated mode sums reproduce the spectrum of rho_B
    tol = Tolerances()
    state = schmidt_state((3, 4, 5), [0.5, 0.3, 0.2], seed=200)
    spectrum = tripartite._shared_basis_spectrum(analyze(state).slices, tol)
    assert spectrum is not None
    report = spectrum_report(state)
    assert np.max(np.abs(spectrum - report["spectra"]["B"][: spectrum.size])) < 1e-9
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
    # refine_degenerate computes the refined slicing's factors once, when it builds it
    calls.clear()
    state = schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92)
    analysis = analyze(state)
    unrotated = analysis.left_factors
    assert calls == [6]
    refined = refine_degenerate(analysis)
    assert refined is not analysis and calls == [6, 6]
    assert refined.right_factors is refined.right_factors
    assert refined.all_rank_one and "_first_values" not in vars(refined)  # proved, no SVD
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


EIGENBASIS_CASES = {
    "ghz-3x3x3": ghz_state((3, 3, 3)),  # exact ties among the kept eigenvalues
    "w-3x3x3": w_state((3, 3, 3)),
    # exact zero ties beyond the rank cutoff
    **{f"product-{'x'.join(map(str, dims))}": product_state(dims) for dims in PIVOT_SHAPES},
    **{f"haar-{'x'.join(map(str, dims))}": haar_state(dims, seed=103) for dims in PIVOT_SHAPES},
}


@pytest.mark.parametrize("state", EIGENBASIS_CASES.values(), ids=EIGENBASIS_CASES)
def test_analyze_eigenbasis_is_the_checked_eigendecomposition_bit_for_bit(state):
    # analyze skips the Hermitian checks and canonicalizes only the kept columns
    analysis = analyze(state)
    w, v = linalg.hermitian_eigendecompose(reduced_density(state, (analysis.pivot_party,)))
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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _groups_reference(spectrum, tol):
    # the loop degeneracy_groups must reproduce: chain each value to the one before it
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


@pytest.mark.parametrize("spectrum, groups", [
    ([], []),
    ([0.7], [[0]]),
    ([1.0, 0.75, 0.5, 0.125], [[0, 1, 2], [3]]),  # gaps exactly at the cutoff chain
    ([1.0, np.nextafter(0.75, 0.0), 0.5], [[0], [1, 2]]),  # one ulp past it does not
    ([0.5, np.nan, 0.2, 0.2], [[0], [1], [2, 3]]),  # a NaN gap starts a group
    ([np.nan, 0.5, 0.5], [[0], [1], [2]]),  # a NaN scale chains nothing
    ([0.0, 0.0, 0.0], [[0, 1, 2]]),
], ids=["empty", "one", "chained", "ulp-past", "nan-gap", "nan-scale", "zeros"])
def test_degeneracy_groups_match_the_chaining_loop(spectrum, groups):
    tol = Tolerances(degen_rel=0.25)
    assert degeneracy_groups(spectrum, tol) == _groups_reference(spectrum, tol) == groups
    rng = np.random.default_rng(115)
    for _ in range(200):  # runs of exact ties and of near-ties on either side of the cutoff
        values = -np.sort(-rng.choice([0.5, 0.4, 0.4 - 4e-9, 0.4 - 6e-9, 0.1], rng.integers(1, 9)))
        assert degeneracy_groups(values) == _groups_reference(values, DEFAULT_TOL)


def _shared_factors_reference(slices, tol):
    # the forms _shared_factors must reproduce: tensordot's mix, off-diagonal by np.eye
    stack = np.asarray(slices)
    mixed = np.tensordot(tripartite._mix(len(stack)), stack, axes=1)
    u, s, vh = np.linalg.svd(mixed, full_matrices=False)
    k = linalg.numerical_rank(s, tol)
    y, z = u[:, :k], vh[:k].conj().T
    d = y.conj().T @ stack @ z
    diag = np.diagonal(d, axis1=1, axis2=2)
    off = d - diag[:, :, None] * np.eye(k)
    if float(np.max(np.abs(off), initial=0.0)) > 1e3 * tol.recon_abs:
        return None
    mass = float(np.sum(np.abs(diag) ** 2)) - float(np.sum(np.abs(stack) ** 2))
    return None if abs(mass) > np.sqrt(tol.recon_abs) else diag


@pytest.mark.parametrize("state", [
    schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92),
    haar_rotated(ghz_state((3, 3, 3)), 0), tied_blocks_state(16, 1)[0], UNTIED_ENTANGLED,
    ANTISYM, haar_state((4, 4, 4), seed=116),
], ids=["tied-6x7x8", "ghz-3-rot", "tied-blocks-16", "untied-entangled", "antisym", "haar-4"])
def test_refinement_helpers_match_their_numpy_forms_bit_for_bit(state):
    # the shared factors, the rotation by tensordot, and the factor-family test
    # with max |f^H f - I| against np.eye
    tol = Tolerances()
    analysis = analyze(state)
    diag, expected = tripartite._shared_factors(analysis.slices, tol), _shared_factors_reference(
        analysis.slices, tol)
    assert (diag is None) is (expected is None)
    if diag is None:
        return
    assert np.array_equal(_bits(diag), _bits(expected))
    refined = refine_degenerate(analysis)
    if refined is None:  # fewer modes than slices
        assert diag.shape[1] != len(analysis.slices)
        return
    u, _, vh = np.linalg.svd(expected.conj().T)
    coeff = u @ vh
    assert np.array_equal(_bits(refined.slices), _bits(np.tensordot(coeff, analysis.slices, 1)))
    assert np.array_equal(_bits(refined.pivot_basis), _bits(analysis.pivot_basis @ coeff.conj().T))
    for f in (refined.left_factors, refined.right_factors):
        # deviations about 0, 4e-6, 4e-5 and, within rounding, the cutoff sqrt(recon_abs)
        oks = []
        for scale in (1.0, 1 + 2e-6, 1 + 2e-5, math.sqrt(1 + math.sqrt(tol.recon_abs))):
            g = scale * f
            deviation = float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[1]))))
            oks.append(deviation <= math.sqrt(tol.recon_abs))
            assert tripartite._families_orthonormal(g, g, tol) is oks[-1]
        assert oks[:3] == [True, True, False]


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
    for party in "ABC":
        nonzero = report["spectra"][party][: len(weights)]
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
    # a trivial party never pivots beside a larger one: its one slice is the whole state
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    cases = [(PureState(dims, bell), [0.5, 0.5]) for dims in ((1, 2, 2), (2, 1, 2), (2, 2, 1))]
    cases.append((PureState((1, 1, 1), np.array([1.0])), [1.0]))  # nothing larger: A pivots
    for state, weights in cases:
        verdict = check(state)
        assert verdict.decomposable, state.dims
        assert state.dims[verdict.analysis.pivot_party] > 1 or max(state.dims) == 1
        assert np.max(np.abs(verdict.decomposition.weights - weights)) < 1e-12


@pytest.mark.parametrize("shape, pivot", [
    ("3x4x5", "A"), ("4x3x5", "B"), ("5x4x3", "C"),
    ("4x3x3", "B"), ("3x4x3", "A"),  # ties go to the earlier party
    ("1x3x4", "B"), ("3x1x4", "A"), ("1x1x5", "C"), ("1x1x1", "A"), ("2x2x1", "A"),
])
def test_the_pivot_is_the_smallest_party_of_dimension_two_or_more(shape, pivot):
    dims = tuple(map(int, shape.split("x")))
    assert "ABC"[check(haar_state(dims, seed=3500)).analysis.pivot_party] == pivot


def _verdict_on(state):
    """``check``'s verdict, or the undecided one its ``Indeterminate`` carries."""
    try:
        return check(state)
    except Indeterminate as exc:
        return exc.verdict


def test_every_pivot_of_an_unrefined_rotated_ghz_is_indeterminate(monkeypatch):
    # a rotated GHZ 3^3 with refinement switched off: under each party order another
    # party supplies the basis, and no pivot's slices are rank one
    state = haar_rotated(ghz_state((3, 3, 3)), seed=0)
    monkeypatch.setattr(tripartite, "refine_degenerate", lambda analysis: None)
    for perm in itertools.permutations(range(3)):
        with pytest.raises(Indeterminate) as info:
            check(permute_parties(state, perm))
        assert info.value.verdict.decomposable is None, perm
        assert info.value.verdict.analysis.slice_ranks == (3, 3, 3), perm


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
def test_one_simultaneous_diagonalization_refines_many_tied_blocks(d, lapack_calls):
    # d exactly tied weights in blocks whose sizes cycle 2, 1, 3, in Haar bases:
    # one combination SVD over all d retained slices finds the rotation
    for seed in (1, 2, 3):
        state, weights = tied_blocks_state(d, seed)
        assert max(analyze(state).slice_ranks) > 1
        lapack_calls.clear()
        verdict = check(state)
        assert [call for call in lapack_calls if call[2] == {"full_matrices": False}] == [
            ("svd", (d, d), {"full_matrices": False})]
        assert verdict.decomposable and verdict.degenerate
        assert np.max(np.abs(verdict.decomposition.weights - weights)) <= 1e-12


def test_verdict_invariant_under_party_permutations():
    # on a cube each party order puts another party at the pivot; None is Indeterminate
    cases = (
        (schmidt_state((3, 4, 5), [0.5, 0.3, 0.2], seed=91), True),
        (schmidt_state((3, 3, 3), [0.5, 0.3, 0.2], seed=61), True),
        # tied weights in Haar bases: the degenerate blocks need refinement
        (schmidt_state((6, 7, 8), [0.25, 0.25, 0.2, 0.1, 0.1, 0.1], seed=92), True),
        (haar_rotated(ghz_state((3, 3, 3)), 59), True),
        (haar_rotated(ghz_state((3, 3, 3)), 0), True),
        (haar_state((1, 3, 4), seed=3400), True),
        (W, False),
        (w_state((3, 3, 3)), False),
        (PARALLEL, False),
        (haar_state((2, 3, 4), seed=93), False),
        (haar_state((2, 2, 2), seed=62), False),
        # the degenerate fallback's two rejections, and eps_ijk, which stays undecided
        (UNTIED_ENTANGLED, False),
        (UNEQUAL_SPECTRA, False),
        (ANTISYM, None),
    )
    for state, expect in cases:
        base = _verdict_on(state)
        assert base.decomposable is expect
        for perm in itertools.permutations(range(3)):
            verdict = _verdict_on(permute_parties(state, perm))
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


def _noisy_tie(eps: float) -> PureState:
    """The tied 4^3 state (weights 0.3, 0.3, 0.2, 0.2) plus ``eps`` of a Haar vector, renormalized."""
    amplitudes = (schmidt_state((4, 4, 4), [0.3, 0.3, 0.2, 0.2], 7).amplitudes
                  + eps * haar_state((4, 4, 4), 11).amplitudes)
    return PureState((4, 4, 4), amplitudes / np.linalg.norm(amplitudes))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="noisy tie: inside a near-tied block the eigenbasis is an arbitrary rotation, so "
    "max_residual reads 0.333 at eps = 1e-9 (2.9e-11 at 1e-10); ROADMAP item 18, with item 5's "
    "distance bracket, is to mend it",
)
def test_noisy_tie_residual_tracks_the_noise():
    eps = 1e-9
    try:
        verdict = check(_noisy_tie(eps))
    except Indeterminate as exc:
        verdict = exc.verdict
    assert verdict.max_residual <= 10 * eps


@pytest.mark.xfail(
    strict=True,
    raises=Indeterminate,
    reason="noisy tie: at eps = 1e-8 the refinement fails and no fallback rule rejects; "
    "ROADMAP item 2's certified reject is to mend it",
)
def test_noisy_tie_is_decided():
    verdict = check(_noisy_tie(1e-8))
    assert verdict.decomposable is not None
