"""The benchmark's tracer and workloads reach hypermle's call sites by name; each must exist."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD = PERFBENCH / "workload.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the tracer needs only the standard library
    return tracing


def wrapped_names():
    return [(module, attr) for module, attr, _ in load_tracing().WRAPPED]


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


def test_traced_counts_follow_the_draw_layout():
    # the tracer counts path steps from _run_chain's draws and normals where they are drawn
    from hypermle.equations import preset
    from hypermle.montecarlo import _CHUNK
    from hypermle.simulate import TimeGrid

    modules = {name: importlib.import_module(f"hypermle.{name}") for name in
               ("cli", "estimate", "fundamental", "montecarlo", "simulate", "spectrum")}
    spec, params = preset("alg_ex1", d=1)
    N, M, n = 3, 4, _CHUNK + 5  # two chunks per mode
    grid = TimeGrid(1.0, n)
    tracer = load_tracing().Tracer()
    tracer.install(modules)
    try:
        modules["montecarlo"].run_replicates(spec, params, N, grid, seed=5, M=M)
        batch = dict(tracer.counts())
        modules["simulate"].simulate_solution(spec, params, N, grid, seed=5)
        total = tracer.counts()
    finally:
        tracer.uninstall()
    assert batch["simulate.path_steps"] == N * M * n
    assert batch["simulate.normals"] == N * M * (2 * n + 2)
    assert total["simulate.path_steps"] - batch["simulate.path_steps"] == N * n
    assert total["simulate.normals"] - batch["simulate.normals"] == N * 3 * n
