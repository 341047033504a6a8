"""The benchmark's tracer and workloads reach hypermle's call sites by name; each must exist."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD = PERFBENCH / "workload.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the tracer needs only the standard library
    return [(module, attr) for module, attr, _ in tracing.WRAPPED]


def captured_names():
    """(module, attr) of every `<...>.capture.install(self.hm.<module>, "<attr>")` in workload.py.

    Read from the syntax tree, so the workloads (which import the oracle's
    dependencies) are never imported here.
    """
    out = set()
    for node in ast.walk(ast.parse(WORKLOAD.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "install"
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "capture"):
            target, attr = node.args
            out.add((target.attr, attr.value))
    return sorted(out)


def test_workload_captures_found():
    assert captured_names(), "no capture.install call sites found in perfbench/workload.py"


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_call_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"hypermle.{module}"), attr))


@pytest.mark.parametrize("module, attr", captured_names())
def test_captured_call_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"hypermle.{module}"), attr))
