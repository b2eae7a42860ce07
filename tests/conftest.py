"""Test-wide settings: derandomized property tests, and one recorder of the LAPACK calls."""

import numpy as np
import pytest
from hypothesis import settings

from trischmidt import linalg

settings.register_profile("trischmidt", derandomize=True, max_examples=50, deadline=None,
                          database=None)
settings.load_profile("trischmidt")


@pytest.fixture
def lapack_calls(monkeypatch) -> list:
    """Each call through ``linalg._lapack`` as ``(routine name, input shape, kwargs)``, in order."""
    calls = []
    lapack = linalg._lapack

    def recorded(fn, *args, **kwargs):
        calls.append((fn.__name__, np.shape(args[0]), kwargs))
        return lapack(fn, *args, **kwargs)

    monkeypatch.setattr(linalg, "_lapack", recorded)
    return calls
