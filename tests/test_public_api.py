"""The package namespace exports exactly the documented library surface."""

import re
from pathlib import Path

import trischmidt

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    # decision, construction and diagnostics
    "check", "analyze", "construct", "reconstruct_tripartite", "spectrum_report",
    "Verdict", "SliceAnalysis", "TripartiteSchmidt", "SpectrumReport",
    # states
    "PureState", "validate", "overlap", "partial_inner_product",
    "reduced_density",
    # bipartite engine and linear algebra
    "BipartiteSchmidt", "schmidt_decompose", "entanglement_entropy", "entropy_bits",
    "Tolerances", "DEFAULT_TOL", "HermitianEigenResult", "SvdResult",
    "hermitian_eigendecompose", "svd", "numerical_rank",
    # generators
    "ghz_state", "w_state", "product_state", "schmidt_state", "haar_state", "haar_unitary",
    # errors
    "TrischmidtError", "DimensionMismatch", "NotNormalized", "NotHermitian", "NoConvergence",
    "ZeroVector", "RankNotOne", "Indeterminate", "BadWeights", "BadDims",
}


def test_all_is_the_documented_surface():
    assert len(trischmidt.__all__) == len(PUBLIC) == 41
    assert set(trischmidt.__all__) == PUBLIC
    for name in trischmidt.__all__:
        assert getattr(trischmidt, name) is not None, name
    # every name the README's "Library" example calls is exported
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    used = set(re.findall(r"\bts\.(\w+)", block))
    assert used, "no ts.<name> found in the README library block"
    assert used <= PUBLIC, used - PUBLIC
