"""Benchmark inputs and the independent oracle that judges trischmidt's answers.

Every state is built here with plain numpy, never with ``trischmidt.generate``,
so the expected verdict and weights of each input are known by construction.
An input is expected to be rejected only when :func:`rejection_proof` finds a
proof, computed apart from trischmidt, that no decomposition exists.

A round is the fixed list of inputs one run repeats.  Shapes and kinds depend
only on the workload; the seed draws weights, bases and rotations.  The two
known-fault inputs of ``decide-degenerate`` use a fixed seed of their own, so
they fail the same way in every run.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Fixed seed of the known-fault inputs; they must not depend on --seed.
FAULT_SEED = 20260101
# A spectrum entry counts as zero below this share of the total weight.
ZERO = 1e-12
# Tolerances of the checks made on trischmidt's output.
WEIGHT_ATOL = 1e-8
ORTHO_ATOL = 1e-8
OVERLAP_ATOL = 1e-8
SPECTRUM_ATOL = 1e-9
# Gaps below this share of the largest weight make a proof by eigenbasis unsafe.
PROOF_GAP = 1e-3


@dataclass(frozen=True, eq=False)
class Case:
    """One input: a state tensor and the outcome it must get.

    ``weights`` is the constructed descending weight vector, or None when the
    state is provably not decomposable.  ``fault`` names the known program
    fault the input shows; such an input counts as failed, not as wrong.
    """

    label: str
    tensor: np.ndarray
    weights: np.ndarray | None
    fault: str | None = None

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.tensor.shape)


# ---------------------------------------------------------------- building


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def odeco(dims, weights, bases=None) -> np.ndarray:
    """``sum_i sqrt(w_i) a_i (x) b_i (x) c_i``; computational bases when none given."""
    w = np.asarray(weights, dtype=float)
    if bases is None:
        bases = [np.eye(d, w.size, dtype=complex) for d in dims]
    return np.einsum("i,ai,bi,ci->abc", np.sqrt(w), *bases)


def rotate(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply a Haar local unitary to each party."""
    for party, d in enumerate(t.shape):
        t = np.moveaxis(np.tensordot(haar_unitary(d, rng), t, axes=(1, party)), 0, party)
    return t


def distinct_weights(r: int, rng: np.random.Generator) -> np.ndarray:
    """Descending weights whose gaps are all at least 1/(2r) of the largest."""
    w = np.cumsum(rng.uniform(1.0, 2.0, size=r))[::-1]
    return w / w.sum()


def tied_weights(r: int, rng: np.random.Generator) -> np.ndarray:
    """Descending weights in exactly tied blocks whose sizes cycle 2, 1, 3.

    The block sizes depend on ``r`` alone, so every seed asks for the same
    refinement work; only the levels are drawn.
    """
    sizes: list[int] = []
    for size in itertools.cycle((2, 1, 3)):
        if sum(sizes) >= r:
            break
        sizes.append(min(size, r - sum(sizes)))
    levels = np.cumsum(rng.uniform(1.0, 2.0, size=len(sizes)))[::-1]
    w = np.repeat(levels, sizes)
    return w / w.sum()


def _schmidt(dims, weights, rng) -> np.ndarray:
    r = len(weights)
    return odeco(dims, weights, [haar_unitary(d, rng)[:, :r] for d in dims])


def _haar(dims, rng) -> np.ndarray:
    z = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return z / np.linalg.norm(z)


def _w(dims) -> np.ndarray:
    t = np.zeros(dims, dtype=complex)
    t[1, 0, 0] = t[0, 1, 0] = t[0, 0, 1] = 1 / math.sqrt(3)
    return t


def _ab(dims, a: float) -> np.ndarray:
    """``a|000> + b|101>``: product slices with a shared B factor."""
    t = np.zeros(dims, dtype=complex)
    t[0, 0, 0] = a
    t[1, 0, 1] = math.sqrt(1.0 - a * a)
    return t


def _variant(t: np.ndarray, variant: str, rng) -> np.ndarray:
    """The original (``base``), a locally rotated copy, or a rotated and permuted copy."""
    if variant == "base":
        return t
    t = rotate(t, rng)
    if variant == "rotperm":
        perms = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
        t = np.transpose(t, perms[int(rng.integers(len(perms)))])
    return np.ascontiguousarray(t)


def _case(label, t, weights, fault=None) -> Case:
    t = np.ascontiguousarray(t, dtype=np.complex128)
    t.setflags(write=False)
    w = None if weights is None else np.sort(np.asarray(weights, dtype=float))[::-1]
    return Case(label, t, w, fault)


def _label(kind, variant, dims) -> str:
    shape = "x".join(str(d) for d in dims)
    return f"{kind}-{variant}-{shape}" if variant else f"{kind}-{shape}"


# ------------------------------------------------------------- workloads

# cli-check: a continuous cube ladder, dense at the cheap end, plus two
# unbalanced shapes.  Seventeen files per round: an odd count keeps the median
# on one file, and 17 = 1 (mod 4) keeps the 75th percentile on one file for
# any number of rounds.
CLI_LADDER = (
    ("schmidt", (16, 16, 16)), ("haar", (16, 16, 16)), ("w", (16, 16, 16)),
    ("schmidt", (17, 17, 17)), ("haar", (17, 17, 17)),
    ("w", (18, 18, 18)), ("schmidt", (18, 18, 18)),
    ("haar", (19, 19, 19)), ("w", (20, 20, 20)), ("schmidt", (21, 21, 21)),
    ("haar", (22, 22, 22)), ("w", (23, 23, 23)), ("schmidt", (24, 24, 24)),
    ("w", (4, 16, 32)), ("haar", (26, 26, 26)),
    ("schmidt", (32, 32, 32)), ("haar", (4, 32, 32)),
)
CLI_SMOKE = CLI_LADDER[:3]


def cli_cases(seed: int, smoke: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 0])
    out = []
    for kind, dims in CLI_SMOKE if smoke else CLI_LADDER:
        if kind == "schmidt":
            w = distinct_weights(min(dims), rng)
            out.append(_case(_label(kind, "", dims), _schmidt(dims, w, rng), w))
        elif kind == "haar":
            out.append(_case(_label(kind, "", dims), _haar(dims, rng), None))
        else:
            out.append(_case(_label(kind, "", dims), _w(dims), None))
    return out


GENERIC_KINDS = tuple(
    (kind, variant)
    for kind in ("distinct", "haar", "w", "ab", "product")
    for variant in ("base", "rot", "rotperm")
)
# 15 kinds x 7 = 105 inputs: every kind meets every 7th shape, and the
# unbalanced rule (i % 7 == 3) meets every kind.
GENERIC_ROUND = 105


def _ladder_shape(i: int, n: int, lo: int, hi: int, small) -> tuple[int, int, int]:
    d = lo + round((hi - lo) * i / (n - 1))
    return (small(d), d, d) if i % 7 == 3 else (d, d, d)


def generic_cases(seed: int, smoke: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    n = len(GENERIC_KINDS) if smoke else GENERIC_ROUND
    out = []
    for i in range(n):
        kind, variant = GENERIC_KINDS[i % len(GENERIC_KINDS)]
        dims = (8, 8, 8) if smoke else _ladder_shape(i, n, 8, 32, lambda d: max(2, d // 4))
        if kind == "distinct":
            w = distinct_weights(min(dims), rng)
            t = odeco(dims, w)
        elif kind == "haar":
            w, t = None, _haar(dims, rng)
        elif kind == "w":
            w, t = None, _w(dims)
        elif kind == "ab":
            a = math.sqrt(rng.uniform(0.55, 0.9))
            w, t = None, _ab(dims, a)
        else:
            w, t = np.array([1.0]), odeco(dims, [1.0])
        t = _variant(t, variant, rng)
        out.append(_case(_label(kind, variant, t.shape), t, w))
    return out


DEGENERATE_KINDS = (
    ("ghz", "base"), ("ghz", "rot"), ("ghz", "rotperm"),
    ("tied", "rot"), ("partly", "rot"), ("partly", "rotperm"),
    ("abtied", "rot"), ("abtied", "rotperm"),
)
# 57 regular inputs plus the two known faults: 59 per round, an odd count
# whose 99th percentile stays on one input for three rounds or more.
DEGENERATE_REGULAR = 57


def fault_cases() -> list[Case]:
    """The two known faults of ``check``, on inputs that do not depend on --seed.

    ``near-tie``: decomposable by construction with weights
    [0.4, 0.4 - 1e-7, 0.2] on 3x5x5; ``check`` rejects it because the pivot
    eigenvectors are conditioned only to eps/gap.  ``antisym``: the
    antisymmetric state eps_ijk/sqrt(6); every slice has rank two, so it is
    provably not decomposable, yet ``check`` raises Indeterminate.
    """
    rng = np.random.default_rng(FAULT_SEED)
    w = np.array([0.4, 0.4 - 1e-7, 0.2])
    w = w / w.sum()
    near = _case("near-tie-3x5x5", _schmidt((3, 5, 5), w, rng), w, fault="near-tie")
    eps = np.zeros((3, 3, 3), dtype=complex)
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        eps[i, j, k] = sign / math.sqrt(6)
    anti = _case("antisym-3x3x3", eps, None, fault="antisym")
    return [near, anti]


def degenerate_cases(seed: int, smoke: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    n = len(DEGENERATE_KINDS) if smoke else DEGENERATE_REGULAR
    out = []
    for i in range(n):
        kind, variant = DEGENERATE_KINDS[i % len(DEGENERATE_KINDS)]
        dims = (3, 3, 3) if smoke else _ladder_shape(i, n, 3, 12, lambda d: max(2, d // 2))
        r = min(dims)
        if kind == "ghz":
            w = np.full(r, 1.0 / r)
            t = odeco(dims, w)
        elif kind == "tied":
            w = np.full(max(2, r - 1), 1.0 / max(2, r - 1))
            t = _schmidt(dims, w, rng)
        elif kind == "partly":
            w = tied_weights(r, rng)
            t = _schmidt(dims, w, rng)
        else:
            w, t = None, _ab(dims, 1 / math.sqrt(2))
        t = _variant(t, variant, rng)
        out.append(_case(_label(kind, variant, t.shape), t, w))
    # The faults sit at fixed places, so every round holds the same share.
    faults = fault_cases()
    return [faults[0]] + out + [faults[1]]


BUILDERS = {
    "cli-check": cli_cases,
    "decide-generic": generic_cases,
    "decide-degenerate": degenerate_cases,
}


# ------------------------------------------------------------------ oracle


def unfolding_spectra(t: np.ndarray) -> list[np.ndarray]:
    """Descending spectra of rho_A, rho_B, rho_C as squared singular values."""
    return [
        np.linalg.svd(np.moveaxis(t, p, 0).reshape(t.shape[p], -1), compute_uv=False) ** 2
        for p in range(3)
    ]


def _nonzero(s: np.ndarray) -> np.ndarray:
    return s[s > ZERO * s.sum()]


def rejection_proof(t: np.ndarray) -> str | None:
    """A reason why ``t`` has no decomposition, or None when none is found.

    Three sound arguments, each made with numpy alone:

    1. A decomposition gives every party the same nonzero spectrum.
    2. If the tensor is antisymmetric in two parties, every nonzero slice is
       an antisymmetric matrix, whose rank is at least two.
    3. If party A's nonzero spectrum is free of ties, its eigenvectors are
       the only candidates for the A factors, so every slice along them must
       have rank one.
    """
    specs = [_nonzero(s) for s in unfolding_spectra(t)]
    if len({s.size for s in specs}) > 1 or any(
        np.max(np.abs(specs[0] - s)) > 1e-6 for s in specs[1:]
    ):
        return "single-party spectra differ"
    if t.shape[1] == t.shape[2] and np.max(np.abs(t + t.transpose(0, 2, 1))) < 1e-12:
        return "antisymmetric in B and C"
    u, s, vh = np.linalg.svd(t.reshape(t.shape[0], -1), full_matrices=False)
    r = _nonzero(s**2).size
    gaps = -np.diff(np.append(s[:r] ** 2, 0.0))
    if np.min(gaps) >= PROOF_GAP * s[0] ** 2:
        for i in range(r):
            sv = np.linalg.svd(vh[i].reshape(t.shape[1], t.shape[2]), compute_uv=False)
            if sv[1] > 1e-6 * sv[0]:
                return "a slice along a non-degenerate A eigenvector has rank two"
    return None


def prove_expectations(cases: list[Case]) -> None:
    """Check that every expected rejection has a proof and every state is a unit vector."""
    for c in cases:
        if abs(np.linalg.norm(c.tensor) - 1.0) > 1e-12:
            raise RuntimeError(f"benchmark input {c.label} is not normalized")
        if c.weights is None and rejection_proof(c.tensor) is None:
            raise RuntimeError(f"benchmark input {c.label} has no proof of rejection")


def check_decomposition(case: Case, weights, basis_a, basis_b, basis_c) -> str | None:
    """Judge a returned decomposition; None when it is right, else why not."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != case.weights.shape:
        return f"{weights.size} weights, expected {case.weights.size}"
    err = float(np.max(np.abs(weights - case.weights)))
    if err > WEIGHT_ATOL:
        return f"weights off by {err:.3e}"
    for name, basis in (("A", basis_a), ("B", basis_b), ("C", basis_c)):
        basis = np.asarray(basis)
        if basis.shape[0] > 1:
            gram = basis.conj().T @ basis
            dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
            if dev > ORTHO_ATOL:
                return f"basis {name} is not orthonormal ({dev:.3e})"
    rebuilt = np.einsum("i,ai,bi,ci->abc", np.sqrt(weights), basis_a, basis_b, basis_c)
    dev = abs(abs(np.vdot(case.tensor, rebuilt)) - 1.0)
    if dev > OVERLAP_ATOL:
        return f"|<psi|rebuilt>| is off 1 by {dev:.3e}"
    return None


def check_spectra(case: Case, spectra: dict) -> str | None:
    """CLI spectra against the unfolding SVDs; BC must carry A's spectrum."""
    ref = unfolding_spectra(case.tensor)
    for name, s, d in zip("ABC", ref, case.dims):
        got = np.asarray(spectra[name], dtype=float)
        want = np.pad(s, (0, d - s.size))
        if got.shape != want.shape or np.max(np.abs(got - want)) > SPECTRUM_ATOL:
            return f"spectrum {name} differs from the unfolding SVD"
    bc = np.asarray(spectra["BC"], dtype=float)
    want = np.pad(ref[0], (0, case.dims[1] * case.dims[2] - ref[0].size))
    if bc.shape != want.shape or np.max(np.abs(bc - want)) > SPECTRUM_ATOL:
        return "nonzero BC spectrum differs from A's"
    return None


def write_state_file(case: Case, path) -> None:
    """State file in the CLI's format: dims and row-major [re, im] pairs."""
    flat = case.tensor.reshape(-1)
    pairs = np.stack([flat.real, flat.imag], axis=1).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"dims": list(case.dims), "amplitudes": pairs}, handle)
