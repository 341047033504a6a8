"""Command-line contract: exit codes, file outputs, round trips, manifests."""
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hypermle", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


@pytest.fixture
def ex1_config(tmp_path, outdir):
    return write_config(tmp_path / "ex1.json", {
        "preset": "alg_ex1",
        "dimension": 1,
        "params": {"theta1": 1.0, "theta2": -0.5, "T": 1.0},
        "grid": {"n_steps": 256},
        "experiment": {"N_list": [5, 10], "replicates": 35, "seed": 11,
                       "out": str(outdir)},
    })


class TestCheck:
    def test_hyperbolic_equation_exits_zero(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "c.json", {
            "preset": "wave_damped",
            "experiment": {"out": str(outdir)},
        })
        res = run_cli("check", "--config", cfg)
        assert res.returncode == 0, res.stderr
        report = json.loads((outdir / "check_report.json").read_text())
        assert report["hyperbolicity"]["hyperbolic"] == "pass"

    def test_non_hyperbolic_equation_exits_two(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "c.json", {
            "preset": "wave_strong_antidissipative",
            "experiment": {"out": str(outdir)},
        })
        res = run_cli("check", "--config", cfg)
        assert res.returncode == 2, res.stdout + res.stderr

    def test_malformed_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spectrum": ')
        res = run_cli("check", "--config", str(bad))
        assert res.returncode == 1
        assert "line" in res.stderr  # parse diagnostics carry a position

    def test_unknown_generator_exits_one(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"kappa": {"kind": "cubic_spline"},
                         "tau": {"kind": "constant", "coefficient": 1},
                         "rho": {"kind": "constant", "coefficient": 0},
                         "nu": {"kind": "constant", "coefficient": 1}},
            "params": {"theta1": 1, "theta2": 0, "theta1_box": [0.5, 2],
                       "theta2_box": [-1, 1]},
            "experiment": {"out": str(outdir)},
        })
        res = run_cli("check", "--config", cfg)
        assert res.returncode == 1
        assert "cubic_spline" in res.stderr


class TestPsi:
    def test_csv_columns_and_override(self, ex1_config, outdir):
        res = run_cli("psi", "--config", ex1_config, "--n-list", "5,10,20")
        assert res.returncode == 0, res.stderr
        lines = (outdir / "psi.csv").read_text().strip().splitlines()
        assert lines[0] == "N,psi1_exact,psi2_exact,psi12_exact,psi1_asym,psi2_asym"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 5 and float(first[1]) > 0.0

    def test_single_mode_row(self, ex1_config, outdir):
        res = run_cli("psi", "--config", ex1_config, "--n-list", "1")
        assert res.returncode == 0
        row = (outdir / "psi.csv").read_text().strip().splitlines()[1].split(",")
        from hypermle.equations import preset
        from hypermle.fundamental import psi

        spec, params = preset("alg_ex1", d=1, theta2=-0.5)
        assert float(row[1]) == pytest.approx(psi(spec, params, 1).psi1, rel=1e-12)

    def test_overflowing_mode_exits_four(self, tmp_path, outdir):
        # hyperbolic, but mu = 800 makes e^{mu T} overflow the mode integrals
        power = {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0}
        cfg = write_config(tmp_path / "grow.json", {
            "spectrum": {"kappa": power, "tau": power,
                         "rho": {"kind": "constant", "coefficient": 800.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "dimension": 1},
            "params": {"theta1": 1.0, "theta2": 0.0, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "experiment": {"out": str(outdir)},
        })
        assert run_cli("check", "--config", cfg).returncode == 0
        res = run_cli("psi", "--config", cfg, "--n-list", "3")
        assert res.returncode == 4
        assert res.stderr.startswith("runtime error:") and "Traceback" not in res.stderr


class TestSimulateEstimateRoundTrip:
    def test_estimate_matches_in_process(self, ex1_config, outdir):
        res = run_cli("simulate", "--config", ex1_config, "--n-list", "6")
        assert res.returncode == 0, res.stderr
        res = run_cli("estimate", "--config", ex1_config, "--n-list", "6",
                      "--trajectories", str(outdir / "trajectories.csv"))
        assert res.returncode == 0, res.stderr
        doc = json.loads((outdir / "estimate.json").read_text())

        from hypermle.config import load_config
        from hypermle.estimate import estimate_from_trajectories
        from hypermle.fundamental import psi
        from hypermle.simulate import simulate_solution

        cfg = load_config(ex1_config)
        trajs = simulate_solution(cfg["spec"], cfg["params"], 6, cfg["grid"], 11)
        pv = psi(cfg["spec"], cfg["params"], 6)
        ref = estimate_from_trajectories(trajs, cfg["spec"], cfg["params"], pv)
        # u is written at full precision and the scale is a power of two, so the
        # file route reproduces the in-process estimate exactly
        assert doc["theta1_hat"] == ref.theta1_hat
        assert doc["theta2_hat"] == ref.theta2_hat

    def test_scaled_modes_round_trip(self, outdir):
        # kappa_k tau_k = e^{3k} overflows past k = 236 unless the file route
        # restores each mode's power-of-two scale as the simulation used it
        cfg_path = str(CONFIGS / "sec5_exponential.json")
        common = ("--config", cfg_path, "--n-list", "237", "--dt-steps", "1024",
                  "--seed", "3", "--out", str(outdir))
        res = run_cli("simulate", *common)
        assert res.returncode == 0, res.stderr
        res = run_cli("estimate", *common, "--trajectories", str(outdir / "trajectories.csv"))
        assert res.returncode == 0, res.stderr
        doc = json.loads((outdir / "estimate.json").read_text())

        from hypermle.config import load_config
        from hypermle.estimate import estimate_from_trajectories
        from hypermle.simulate import TimeGrid, UnderresolvedModeWarning, simulate_solution

        cfg = load_config(cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderresolvedModeWarning)
            trajs = simulate_solution(cfg["spec"], cfg["params"], 237, TimeGrid(1.0, 1024), 3)
            ref = estimate_from_trajectories(trajs, cfg["spec"])
        assert doc["theta1_hat"] == ref.theta1_hat
        assert doc["theta2_hat"] == ref.theta2_hat

    def test_trajectory_grid_must_match_config(self, outdir):
        common = ("--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "3",
                  "--out", str(outdir))
        res = run_cli("simulate", *common, "--dt-steps", "256")
        assert res.returncode == 0, res.stderr
        res = run_cli("estimate", *common, "--trajectories", str(outdir / "trajectories.csv"))
        assert res.returncode == 1
        assert "t_index 0..4096" in res.stderr
        assert not (outdir / "estimate.json").exists()

    def test_underresolved_modes_reported(self, outdir):
        common = ("--config", str(CONFIGS / "sec5_exponential.json"), "--n-list", "12",
                  "--seed", "3", "--out", str(outdir))
        run_cli("simulate", *common)
        res = run_cli("estimate", *common, "--trajectories", str(outdir / "trajectories.csv"))
        assert res.returncode == 0, res.stderr
        assert "UnderresolvedModeWarning" in res.stderr
        assert json.loads((outdir / "estimate.json").read_text())["underresolved_modes"] == 3

    @pytest.mark.parametrize("shift", ["moved_to_last_row", "dropped"])
    def test_misaligned_increments_rejected(self, outdir, shift):
        common = ("--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "3",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir))
        assert run_cli("simulate", *common).returncode == 0
        path = outdir / "trajectories.csv"
        lines = path.read_text().splitlines()
        mid, last = 1 + 65 + 10, 1 + 65 + 64  # mode 2's rows at t_index 10 and 64
        assert lines[mid].startswith("2,10,") and lines[last].startswith("2,64,")
        head, dw = lines[mid].rsplit(",", 1)
        lines[mid] = head + ","
        if shift == "moved_to_last_row":
            lines[last] += dw
        path.write_text("\n".join(lines) + "\n")
        res = run_cli("estimate", *common, "--trajectories", str(path))
        assert res.returncode == 1, res.stderr
        assert "mode 2 needs dw on t_index 0..63 and none on t_index 64" in res.stderr
        assert not (outdir / "estimate.json").exists()

    def test_missing_mode_rejected(self, outdir):
        # the statistics of modes {1, 2, 4} must not be normalized with psi of modes 1..3
        common = ("--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "4",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir))
        assert run_cli("simulate", *common).returncode == 0
        path = outdir / "trajectories.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if not l.startswith("3,")) + "\n")
        res = run_cli("estimate", *common, "--trajectories", str(path))
        assert res.returncode == 1, res.stderr
        assert "holds 3 modes, not the modes 1..3" in res.stderr
        assert not (outdir / "estimate.json").exists()

    def test_estimate_reduces_each_mode_once(self, outdir, monkeypatch):
        from hypermle import cli, estimate

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "3",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        calls = []
        mode_sums = estimate._mode_sums

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return mode_sums(*args, **kwargs)

        monkeypatch.setattr(estimate, "_mode_sums", counted)
        assert cli.main(["estimate", *common,
                         "--trajectories", str(outdir / "trajectories.csv")]) == 0
        assert calls == [64, 64, 64]

    def test_manifest_lists_outputs(self, ex1_config, outdir):
        run_cli("simulate", "--config", ex1_config, "--n-list", "3")
        run_cli("psi", "--config", ex1_config, "--n-list", "2,4")
        entries = [json.loads(l) for l in
                   (outdir / "manifest.jsonl").read_text().strip().splitlines()]
        assert len(entries) == 2
        listed = [o for e in entries for o in e["outputs"]]
        assert str(outdir / "trajectories.csv") in listed
        assert str(outdir / "psi.csv") in listed
        assert all(e["seed"] == 11 for e in entries)

    def test_seed_override_echoed(self, ex1_config, outdir):
        run_cli("psi", "--config", ex1_config, "--n-list", "2", "--seed", "999")
        entries = [json.loads(l) for l in
                   (outdir / "manifest.jsonl").read_text().strip().splitlines()]
        assert entries[-1]["seed"] == 999


class TestNonpositiveEigenvalues:
    def test_spectrum_that_checks_runs_end_to_end(self, tmp_path, outdir):
        # kappa = -3, tau = k^2: lambda_1 = -2 <= 0, hyperbolic with C* = 2.5
        cfg = write_config(tmp_path / "neg.json", {
            "spectrum": {"kappa": {"kind": "constant", "coefficient": -3.0},
                         "tau": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "dimension": 1},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "grid": {"n_steps": 64},
            "experiment": {"N_list": [2, 4], "replicates": 4, "seed": 5, "out": str(outdir)},
        })
        for argv in (("check",), ("psi",), ("simulate",),
                     ("estimate", "--trajectories", str(outdir / "trajectories.csv")),
                     ("mc", "consistency")):
            res = run_cli(*argv, "--config", cfg)
            assert res.returncode == 0, (argv, res.stderr)
        assert json.loads((outdir / "check_report.json").read_text())["hyperbolicity"]["hyperbolic"] == "pass"
        assert json.loads((outdir / "estimate.json").read_text())["N"] == 4


class TestMc:
    def test_consistency_outputs(self, ex1_config, outdir):
        res = run_cli("mc", "consistency", "--config", ex1_config)
        assert res.returncode == 0, res.stderr
        summary = json.loads((outdir / "consistency_summary.json").read_text())
        assert len(summary["rows"]) == 2
        csv_lines = (outdir / "consistency_replicates.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 2 * 35

    def test_normality_summary(self, ex1_config, outdir):
        res = run_cli("mc", "normality", "--config", ex1_config)
        assert res.returncode == 0, res.stderr
        summary = json.loads((outdir / "normality_summary.json").read_text())
        assert summary["N"] == 10
        assert 0.0 <= summary["ks1"] <= 1.0
        assert "0.01" in summary["critical"] or 0.01 in summary["critical"]

    def test_tables_render(self, ex1_config, outdir):
        res = run_cli("mc", "tables", "--config", ex1_config)
        assert res.returncode == 0, res.stderr
        assert "alg_ex3" in res.stdout
        rows = (outdir / "growth_tables.csv").read_text().strip().splitlines()
        assert rows[0] == "example,d,gamma1,gamma2,psi1_growth,psi2_growth"
        assert len(rows) == 1 + 6 * 4
