"""The benchmark's own tests: quick runs of every workload at a tiny size.

    python3 -m pytest perfbench

They check the printed metrics against BENCHMARK.json, that a traced run
emits every per-layer metric, that its counts repeat, the oracle against
scipy, and that the command fails without the program's source.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("quadrature.points", "quadrature.calls", "simulate.normals", "simulate.path_steps",
          "fundamental.regime_quadrature", "fundamental.regime_closed",
          "fundamental.regime_envelope", "spectrum.eigen_calls")


def run(workload, trace, seed=5, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace, seed=5):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == LAYERS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_repeats_its_counts(workload):
    first = result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v["value"]) for v in first.values())
    second = result(workload, 1)["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}


@pytest.mark.parametrize("lam, mu", [
    (1.0, -0.5), (1e4, -0.5), (2.0, 0.4), (50.0, 14.0),  # complex roots
    (4.0, -8.0), (100.0, -5000.0), (1e-3, 0.2),          # real roots
])
def test_energy_integrals_against_scipy(lam, mu):
    b = 0.5 * mu
    disc = b * b - lam
    ell = math.sqrt(abs(disc))
    if disc < 0.0:
        f = lambda t: math.exp(b * t) * math.sin(ell * t) / ell  # noqa: E731
        fd = lambda t: math.exp(b * t) * (math.cos(ell * t) + b * math.sin(ell * t) / ell)  # noqa: E731
    else:
        rp, rm = b + ell, b - ell
        f = lambda t: (math.exp(rp * t) - math.exp(rm * t)) / (2.0 * ell)  # noqa: E731
        fd = lambda t: (rp * math.exp(rp * t) - rm * math.exp(rm * t)) / (2.0 * ell)  # noqa: E731
    opts = dict(limit=int(100 + ell), epsabs=0.0, epsrel=1e-12)
    want = (quad(lambda t: f(t) ** 2, 0.0, 1.0, **opts)[0],
            quad(lambda t: (1.0 - t) * f(t) ** 2, 0.0, 1.0, **opts)[0],
            quad(lambda t: (1.0 - t) * fd(t) ** 2, 0.0, 1.0, **opts)[0])
    assert oracle.energy_integrals(lam, mu, 1.0) == pytest.approx(want, rel=1e-10)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("psi_table", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
