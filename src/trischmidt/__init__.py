"""Tripartite Schmidt decomposition toolkit.

Decides whether a pure tripartite state admits a single-sum Schmidt
decomposition via the partial-inner-product slice criterion, constructs
the decomposition when it exists, and reports the reduced-density
spectral diagnostics in either case.
"""

from .bipartite import (
    BipartiteSchmidt,
    entanglement_entropy,
    entropy_bits,
    schmidt_decompose,
)
from .exceptions import (
    BadDims,
    BadWeights,
    DimensionMismatch,
    Indeterminate,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    RankNotOne,
    TrischmidtError,
    ZeroVector,
)
from .generate import ghz_state, haar_state, haar_unitary, product_state, schmidt_state, w_state
from .linalg import (
    DEFAULT_TOL,
    HermitianEigenResult,
    SvdResult,
    Tolerances,
    hermitian_eigendecompose,
    numerical_rank,
    svd,
)
from .states import (
    PureState,
    overlap,
    partial_inner_product,
    reduced_density,
    validate,
)
from .tripartite import (
    SliceAnalysis,
    SpectrumReport,
    TripartiteSchmidt,
    Verdict,
    analyze,
    check,
    construct,
    spectrum_report,
)
from .tripartite import reconstruct as reconstruct_tripartite

__version__ = "0.1.0"

__all__ = [
    "BadDims",
    "BadWeights",
    "BipartiteSchmidt",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "HermitianEigenResult",
    "Indeterminate",
    "NoConvergence",
    "NotHermitian",
    "NotNormalized",
    "PureState",
    "RankNotOne",
    "SliceAnalysis",
    "SpectrumReport",
    "SvdResult",
    "Tolerances",
    "TripartiteSchmidt",
    "TrischmidtError",
    "Verdict",
    "ZeroVector",
    "analyze",
    "check",
    "construct",
    "entanglement_entropy",
    "entropy_bits",
    "ghz_state",
    "haar_state",
    "haar_unitary",
    "hermitian_eigendecompose",
    "numerical_rank",
    "overlap",
    "partial_inner_product",
    "product_state",
    "reconstruct_tripartite",
    "reduced_density",
    "schmidt_decompose",
    "schmidt_state",
    "spectrum_report",
    "svd",
    "validate",
    "w_state",
]
