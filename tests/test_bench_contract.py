"""The package names the benchmark tracer wraps must exist.

``perfbench/tracing.py`` looks up its spans by (module, attribute).  A
function it cannot find is reported as a missing span, which fails every
traced benchmark run, and a missing ``ParametricSystem.h_at`` crashes its
``install``.  So a rename in ``src`` that forgets the tracer shows here,
not only in a traced benchmark run.  The tracer module is loaded from its
file and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    missing = [name for name, (module, attr) in tracing.FUNCTIONS.items()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_methods_resolve(tracing):
    for module, cls, method in (*tracing.SERIES_METHODS, tracing.RHS_METHOD):
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method, None)), f"{cls}.{method}"
