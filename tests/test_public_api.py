"""The package namespace exports exactly the documented library surface, and loads
each name's module only when the name is first used."""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import trischmidt

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = {
    # decision, construction and diagnostics
    "check", "analyze", "construct", "reconstruct_tripartite", "spectrum_report",
    "Verdict", "SliceAnalysis", "TripartiteSchmidt",
    # states
    "PureState", "validate", "overlap", "partial_inner_product",
    "reduced_density",
    # bipartite engine and linear algebra
    "BipartiteSchmidt", "schmidt_decompose", "entanglement_entropy", "entropy_bits",
    "Tolerances", "DEFAULT_TOL", "hermitian_eigendecompose", "svd", "numerical_rank",
    # generators
    "ghz_state", "w_state", "product_state", "schmidt_state", "haar_state", "haar_unitary",
    # errors
    "TrischmidtError", "DimensionMismatch", "NotNormalized", "NotHermitian", "NoConvergence",
    "ZeroVector", "RankNotOne", "Indeterminate", "BadWeights", "BadDims",
}


def test_all_is_the_documented_surface():
    assert len(trischmidt.__all__) == len(PUBLIC) == 38
    assert set(trischmidt.__all__) == PUBLIC
    for name in trischmidt.__all__:
        assert getattr(trischmidt, name) is not None, name
    # every name the README's "Library" example calls is exported
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    used = set(re.findall(r"\bts\.(\w+)", block))
    assert used, "no ts.<name> found in the README library block"
    assert used <= PUBLIC, used - PUBLIC


# Run in a fresh interpreter, where nothing has loaded numpy or a submodule yet.
FRESH_IMPORT = """
import json, os, sys
environ = dict(os.environ)
import trischmidt
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "trischmidt"))
try:
    trischmidt.tripartite
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from trischmidt import tripartite
print(json.dumps(dict(loaded=loaded, environ=environ == dict(os.environ), unknown=unknown,
                      submodule=tripartite.__name__)))
"""


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


def test_import_loads_no_numpy_and_an_unknown_name_falls_back_to_the_submodule():
    run = _fresh(FRESH_IMPORT)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == dict(
        loaded=["trischmidt"], environ=True,
        unknown="module 'trischmidt' has no attribute 'tripartite'",
        submodule="trischmidt.tripartite")


def test_each_export_is_the_object_its_module_defines():
    from trischmidt import linalg, tripartite

    assert trischmidt.reconstruct_tripartite is tripartite.reconstruct
    assert trischmidt.DEFAULT_TOL is linalg.DEFAULT_TOL
    for name in PUBLIC - {"reconstruct_tripartite", "DEFAULT_TOL"}:
        obj = getattr(trischmidt, name)
        assert obj.__module__.startswith("trischmidt."), name
        assert getattr(import_module(obj.__module__), name) is obj, name
    assert PUBLIC <= set(dir(trischmidt))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        trischmidt.nonexistent  # noqa: B018


def test_star_import_binds_the_documented_surface():
    namespace = {}
    exec("from trischmidt import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert all(namespace[name] is getattr(trischmidt, name) for name in PUBLIC)


def test_console_script_target_resolves_and_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["trischmidt"]
    module, _, function = target.partition(":")
    assert callable(getattr(import_module(module), function))
    # what the installed script does: call the target with the command line in sys.argv
    code = (f"import sys; from {module} import {function}; "
            f"sys.argv = ['trischmidt', '--version']; sys.exit({function}())")
    run = _fresh(code)
    assert (run.returncode, run.stdout, run.stderr) == (0, f"trischmidt {trischmidt.__version__}\n", "")
