"""Tripartite Schmidt decomposition toolkit.

Decides whether a pure tripartite state admits a single-sum Schmidt
decomposition via the partial-inner-product slice criterion, constructs
the decomposition when it exists, and reports the reduced-density
spectral diagnostics in either case.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name and the module that defines it ("module:name" where the
# module names it otherwise).  __getattr__ imports it on first use (PEP 562), so
# ``import trischmidt`` alone loads no numpy.
_EXPORTS = {
    **dict.fromkeys(["BipartiteSchmidt", "entanglement_entropy", "entropy_bits",
                     "schmidt_decompose"], "bipartite"),
    **dict.fromkeys(["BadDims", "BadWeights", "DimensionMismatch", "Indeterminate",
                     "NoConvergence", "NotHermitian", "NotNormalized", "RankNotOne",
                     "TrischmidtError", "ZeroVector"], "exceptions"),
    **dict.fromkeys(["ghz_state", "haar_state", "haar_unitary", "product_state",
                     "schmidt_state", "w_state"], "generate"),
    **dict.fromkeys(["DEFAULT_TOL", "Tolerances", "hermitian_eigendecompose",
                     "numerical_rank", "svd"], "linalg"),
    **dict.fromkeys(["PureState", "overlap", "partial_inner_product", "reduced_density",
                     "validate"], "states"),
    **dict.fromkeys(["SliceAnalysis", "TripartiteSchmidt", "Verdict", "analyze", "check",
                     "construct", "spectrum_report"], "tripartite"),
    "reconstruct_tripartite": "tripartite:reconstruct",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(":")
    value = getattr(import_module(f".{module}", __name__), attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
