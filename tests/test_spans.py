"""Every name the benchmark's tracer wraps (perfbench/spans.py) is bound
where it looks it up, so a renamed or dropped function fails here instead
of only in a traced benchmark run.  spans.py is loaded by path and nothing
is installed: the package is left as it is."""

import importlib.util
from pathlib import Path

import numpy
import pytest

import qesboson
import qesboson.cli  # the benchmark worker imports it before it installs the tracer

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _owner(path: str):
    """The object a target path names, resolved as the tracer resolves it:
    on numpy for numpy paths, else on the qesboson package."""
    root, parts = (numpy, path.split(".")[1:]) if path.startswith("numpy") else (qesboson, path.split("."))
    for part in parts:
        root = getattr(root, part)
    return root


TARGETS = [(path, attr) for path, attr, *_ in (*SPANS.SPANS, *SPANS.COUNTERS)]


@pytest.mark.parametrize("path,attr", TARGETS, ids=[f"{p}.{a}" for p, a in TARGETS])
def test_traced_name_is_bound(path, attr):
    assert callable(getattr(_owner(path), attr))


def test_operator_product_is_bound():
    assert callable(qesboson.algebra.OperatorPolynomial.__mul__)
