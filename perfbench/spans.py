"""Spans and counters around the package's public functions, installed from
outside the package by rebinding each name where it is looked up.

A span records (name, start, end, parent span, request id, info).  Spans
stay in memory and are written out once, when the worker ends; `layer_metrics`
turns them into per-layer totals.  Counters (RationalComplex and Polynomial
arithmetic, monomial products) only count calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module attribute path, name bound there, span name, info from the call)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_model_file", "models.parse", None),
    ("models", "parse_model_file", "models.parse", None),
    ("cli", "conserves", "algebra.checks", None),
    ("cli", "is_hermitian", "algebra.checks", None),
    ("oracle", "conserves", "algebra.checks", None),
    ("oracle", "is_hermitian", "algebra.checks", None),
    ("reduction", "conserves", "algebra.checks", None),
    ("oracle", "apply_to_fock", "algebra.apply_to_fock", None),
    ("algebra", "apply_to_fock", "algebra.apply_to_fock", None),
    ("cli", "enumerate_block", "oracle.enumerate", None),
    ("oracle", "enumerate_block", "oracle.enumerate", None),
    ("reduction", "enumerate_block", "oracle.enumerate", None),
    ("oracle", "block_amplitudes", "oracle.assemble", None),
    ("oracle", "block_matrix", "oracle.block_matrix", None),
    ("oracle", "diagonalize_block", "oracle.diagonalize", lambda a, k, r: r[0].dimension),
    ("oracle", "eigen_residual", "oracle.residual", None),
    ("reduction", "reduced_eigensystem", "reduction.eigensystem", None),
    ("reduction", "reduced_block_matrix", "reduction.block_matrix", None),
    ("reduction", "matrix_element_reduction", "reduction.entries", None),
    ("reduction.ReducedOperator", "block_entries", "reduction.entries", None),
    ("reduction", "eigen_residual", "reduction.residual", None),
    ("reduction", "eigenvector_to_fock", "reduction.to_fock", None),
    ("cli", "energy_polynomial_table", "reduction.polys", None),
    ("cli", "check_gauge_identity", "sextic.gauge", lambda a, k, r: len(r.tried)),
    ("cli", "fd_spectrum", "sextic.fd",
     lambda a, k, r: a[2] * (1 if k.get("refine_tol") is None else 3)),
    ("numpy.linalg", "eig", "numpy.eig", None),
    ("numpy.linalg", "eigh", "numpy.eig", None),
    ("numpy.linalg", "eigvals", "numpy.eig", None),
)

COUNTERS = (
    ("algebra", "monomial_product", "algebra.monomial_products"),
    *(("exact.RationalComplex", op, "exact.rc_ops") for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__")),
    ("exact.Polynomial", "__mul__", "exact.poly_ops"),
    ("exact.Polynomial", "__call__", "exact.poly_ops"),
)

LAYERS = ("oracle.", "reduction.", "sextic.")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request: str | None = None

    def span(self, name: str, fn, info=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return wrapper

    def operator_product(self, ops):
        """Span OperatorPolynomial * OperatorPolynomial only, not scaling."""
        fn = ops.__mul__
        traced = self.span("algebra.product", fn)

        @functools.wraps(fn)
        def wrapper(self_, other):
            return traced(self_, other) if isinstance(other, ops) else fn(self_, other)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        import numpy

        def owner(path: str):
            obj = numpy if path.startswith("numpy") else package
            for part in path.split(".")[1 if path.startswith("numpy") else 0:]:
                obj = getattr(obj, part)
            return obj

        for path, attr, name, info in SPANS:
            target = owner(path)
            setattr(target, attr, self.span(name, getattr(target, attr), info))
        for path, attr, name in COUNTERS:
            target = owner(path)
            setattr(target, attr, self.counter(name, getattr(target, attr)))
        ops = package.algebra.OperatorPolynomial
        ops.__mul__ = self.operator_product(ops)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced passes.

    Times are inclusive unless named self: a span's self time is its
    duration minus its direct children.  Nested spans of the same name are
    counted once, at the outermost.  numpy eigensolves are charged to the
    nearest enclosing oracle, reduction or sextic span.
    """
    total: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _, info) in enumerate(spans):
            dur = t1 - t0
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name in ancestors:
                continue
            total[name + ":n"] += 1
            total[name + ":s"] += dur
            total[name + ":self"] += dur - child[i]
            if info is not None:
                total[name + ":info"] += info
            if name == "numpy.eig":
                layer = next((a for a in ancestors if a.startswith(LAYERS)), "none.")
                total[layer.split(".")[0] + ".eigensolve_s"] += dur
        total.update(trace["counts"])
    return total
