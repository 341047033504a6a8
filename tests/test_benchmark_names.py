"""The benchmark's tracer wraps hypermle's call sites by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the tracer needs only the standard library
    return [(module, attr) for module, attr, _ in tracing.WRAPPED]


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_call_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"hypermle.{module}"), attr))
