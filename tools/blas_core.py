"""The OpenBLAS kernel that numpy's bundled library picks for this CPU, read without loading numpy.

    from blas_core import blas_core, header

The tools that record results name the kernel, because the last bits of a
decomposition depend on it: ``bench_pairs.py`` in each results record, and
``cli_golden.py`` and ``verdict_digest.py`` in the first line of their
``--hashes`` output.
"""

from __future__ import annotations

import ctypes
import importlib.util
from pathlib import Path


def blas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library picked for this CPU, or ``unknown``.

    ``numpy.libs``, where numpy's Linux wheels bundle OpenBLAS, is found from
    numpy's import spec, which loads no numpy.  Loading OpenBLAS fixes its
    thread count, so a caller that computes pins its BLAS threads first.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return "unknown"
    libs = Path(spec.origin).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def header() -> str:
    """The first line of a ``--hashes`` contract: the kernel its hashes hold on."""
    return f"# blas_core {blas_core()}"
