"""Spans around the calls into trischmidt's modules, recorded from outside.

:meth:`Tracer.install` replaces the names each caller module looks up (for
example ``tripartite.reduced_density`` and ``cli.check``) with wrappers that
record a span per call: its name, start, end, parent span and operation
number.  A span is named after the module that defines the function, so
``tripartite.reduced_density`` records ``states.reduced_density``.  Spans stay
in memory; :func:`layer_metrics` turns them into per-operation figures.

This module imports nothing from numpy or trischmidt at import time, so the
CLI runner can time the import of trischmidt after loading it.
"""

from __future__ import annotations

import functools
import importlib
import time

# The names each caller module looks up, and so the names wrapped there.
TARGETS = {
    "trischmidt.cli": ("main", "load_state_file", "validate", "check", "spectrum_report"),
    "trischmidt.tripartite": (
        "validate", "reduced_density", "partial_inner_product", "schmidt_decompose",
        "analyze", "refine_degenerate", "construct", "_shared_basis_spectrum",
        "check", "spectrum_report",
    ),
    "trischmidt.linalg": ("hermitian_eigendecompose", "svd"),
}

# Span fields.
NAME, START, END, PARENT, OP, INFO = range(6)


def _info(name, result):
    """What a span keeps of a call's result: rho's size, or check's verdict."""
    if name == "states.reduced_density":
        return int(result.dim)
    if name == "tripartite.check":
        return bool(result.decomposable)
    return None


class Tracer:
    """Keeps the spans of one process; ``op`` numbers the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[INFO] = _info(name, result)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for n in names:
                setattr(module, n, self.wrap(getattr(module, n)))


def sum_spans(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Inclusive time, self time (the span minus its child spans) and call
    count of every span name."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-operation layer figures from the spans of ``n_ops`` operations.

    ``*_s`` figures are inclusive times unless named ``*_self_s`` (the span
    minus its child spans); ``*_calls`` count calls.  Both are divided by
    ``n_ops``.  ``states.reduced_density_max_dim`` is the largest rho built
    in any operation; ``states.reduced_density_bytes`` is computed from the
    sizes of the matrices built (16 bytes per complex entry), not measured.
    ``tripartite.refine_useful_ratio`` is the share of ``refine_degenerate``
    calls whose ``check`` ended in acceptance; ``tripartite.refine_attempted``
    is its base.
    """
    total, own, calls = sum_spans(spans)
    max_dim = 0
    rho_bytes = 0
    refined = useful = 0
    for s in spans:
        name = s[NAME]
        if name == "states.reduced_density":
            max_dim = max(max_dim, s[INFO])
            rho_bytes += 16 * s[INFO] ** 2
        elif name == "tripartite.refine_degenerate":
            refined += 1
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            useful += bool(parent and parent[NAME] == "tripartite.check" and parent[INFO])

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    return {
        "cli.load_s": per_op(total, "cli.load_state_file"),
        "cli.main_self_s": per_op(own, "cli.main"),
        "states.validate_s": per_op(total, "states.validate"),
        "states.reduced_density_s": per_op(total, "states.reduced_density"),
        "states.reduced_density_calls": per_op(calls, "states.reduced_density"),
        "states.reduced_density_max_dim": max_dim,
        "states.reduced_density_bytes": rho_bytes / n_ops,
        "states.partial_inner_product_calls": per_op(calls, "states.partial_inner_product"),
        "linalg.hermitian_eigendecompose_s": per_op(total, "linalg.hermitian_eigendecompose"),
        "linalg.hermitian_eigendecompose_calls": per_op(calls, "linalg.hermitian_eigendecompose"),
        "linalg.svd_s": per_op(total, "linalg.svd"),
        "linalg.svd_calls": per_op(calls, "linalg.svd"),
        "bipartite.schmidt_decompose_s": per_op(total, "bipartite.schmidt_decompose"),
        "bipartite.schmidt_decompose_calls": per_op(calls, "bipartite.schmidt_decompose"),
        "tripartite.analyze_self_s": per_op(own, "tripartite.analyze"),
        "tripartite.check_self_s": per_op(own, "tripartite.check"),
        "tripartite.shared_basis_spectrum_s": per_op(total, "tripartite._shared_basis_spectrum"),
        "tripartite.refine_degenerate_s": per_op(total, "tripartite.refine_degenerate"),
        "tripartite.refine_degenerate_calls": per_op(calls, "tripartite.refine_degenerate"),
        "tripartite.refine_useful_ratio": useful / refined if refined else 0.0,
        "tripartite.refine_attempted": refined,
        "tripartite.construct_s": per_op(total, "tripartite.construct"),
        "tripartite.spectrum_report_self_s": per_op(own, "tripartite.spectrum_report"),
    }
