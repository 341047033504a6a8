"""Command-line contract: exit codes, file outputs, round trips, manifests."""
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*argv, cwd=None):
    """Run `python *argv` with this checkout's src/ first on the child's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(*argv, cwd=None):
    """Run `python -m hypermle` with this checkout's src/ first on the child's PYTHONPATH."""
    return run_python("-m", "hypermle", *argv, cwd=cwd)


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

    def test_inconclusive_check_exits_three(self, tmp_path, outdir):
        # lambda_k(theta) ratios over the theta1 box drift only in the last decile of k,
        # where the tiny exponential tau overtakes kappa = k^2
        from hypermle import cli

        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"kappa": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "tau": {"kind": "exp_law", "coefficient": 3.7e-37, "rate": 0.1},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}},
            "params": {"theta1": 1.0, "theta2": 0.0, "theta1_box": [0.1, 10.0],
                       "theta2_box": [-1.0, 1.0]},
            "experiment": {"out": str(outdir)},
        })
        assert cli.main(["check", "--config", cfg]) == 3
        report = json.loads((outdir / "check_report.json").read_text())
        assert report["hyperbolicity"]["hyperbolic"] == "inconclusive"

    def test_malformed_config_exits_one(self, tmp_path, outdir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spectrum": ')
        res = run_cli("check", "--config", str(bad))
        assert res.returncode == 1
        assert "line" in res.stderr  # parse diagnostics carry a position

        from hypermle import cli

        def preset(**sections):
            return {"preset": "alg_ex1", "experiment": {"N_list": [2], "out": str(outdir)},
                    **sections}

        def spectrum(**changes):
            const = {"kind": "constant", "coefficient": 1.0}
            return {"spectrum": {"kappa": const, "tau": const, "rho": const, "nu": const,
                                 **changes},
                    "params": {"theta1": 1, "theta2": 0, "theta1_box": [0.5, 2],
                               "theta2_box": [-1, 1]},
                    "experiment": {"out": str(outdir)}}

        # (config, extra flags, the location the error names)
        cases = [
            (preset(grid={"n_steps": 0}), [], "grid.n_steps"),
            (preset(experiment={"N_list": ["a"]}), [], "experiment.N_list"),
            (preset(dimension="x"), [], "dimension"),
            (spectrum(dimension="x"), [], "spectrum.dimension"),
            (spectrum(kappa={"kind": "power_law", "coefficient": "x", "exponent": 2}), [],
             "spectrum.kappa"),
            (preset(), ["--n-list", "5,abc"], "--n-list"),
            (preset(), ["--n-list", "40,20"], "--n-list"),
            (preset(), ["--replicates", "0"], "--replicates"),
            (preset(), ["--dt-steps", "0"], "--dt-steps"),
            (preset(), ["--workers", "0"], "--workers"),
            (preset(), ["--seed", "-1"], "--seed"),
            (preset(experiment={"seed": 2 ** 64}), [], "experiment.seed"),
            (preset(experiment={"out": 5}), [], "experiment.out"),
            (preset(check={"k_range": 5}), [], "check.k_range"),
            (preset(extra=1), [], "top level"),
            (spectrum(lambda_=1), [], "spectrum"),
            (preset(params={"theta1": 1.0, "theta3": 0.0}), [], "params"),
            (preset(grid={"steps": 64}), [], "grid"),
            (preset(experiment={"replicate": 50}), [], "experiment"),
            (preset(check={"range": [1, 10]}), [], "check"),
            (dict(spectrum(), preset="alg_ex1"), [], "preset"),
            (dict(spectrum(), dimension=2), [], "dimension"),
            (preset(experiment={"N_list": [2.9, 4.5], "out": str(outdir)}), [], "experiment.N_list"),
            (preset(grid={"n_steps": 64.7}), [], "grid.n_steps"),
            (preset(check={"theta_grid": 5}), [], "check"),
            (preset(check={"k_range": [1, 10.5]}), [], "check.k_range"),
            (preset(experiment={"replicates": True, "out": str(outdir)}), [], "experiment.replicates"),
            (preset(experiment={"seed": 1.5, "out": str(outdir)}), [], "experiment.seed"),
            (preset(dimension=True), [], "dimension"),
            (spectrum(k_max=100.5), [], "spectrum.k_max"),
        ]
        for doc, flags, where in cases:
            path = write_config(tmp_path / "case.json", doc)
            code = cli.main(["psi", "--config", path, *flags])
            err = capsys.readouterr().err
            assert code == 1 and f"{where}: " in err, (doc, flags, err)
        # the base configs themselves are valid
        assert cli.main(["psi", "--config", write_config(tmp_path / "ok.json", preset())]) == 0
        assert cli.main(["psi", "--config", write_config(tmp_path / "ok.json", spectrum())]) == 0
        # integral floats are integers
        integral = preset(grid={"n_steps": 64.0}, check={"k_range": [1.0, 10.0]})
        assert cli.main(["psi", "--config", write_config(tmp_path / "ok.json", integral)]) == 0

    @pytest.mark.parametrize("command, flags, where", [
        (["psi"], [], "experiment.N_list"),
        (["psi"], ["--n-list", "5,20"], "--n-list"),
        (["simulate"], [], "experiment.N_list"),
        (["mc", "consistency"], [], "experiment.N_list"),
        (["mc", "lln"], [], "experiment.N_list"),
        (["mc", "normality"], [], "experiment.N_list"),
    ], ids=["psi", "psi_flag", "simulate", "mc_consistency", "mc_lln", "mc_normality"])
    def test_n_beyond_k_max_exits_one(self, tmp_path, outdir, capsys, command, flags, where):
        from hypermle import cli

        power = {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0}
        cfg = write_config(tmp_path / "short.json", {
            "spectrum": {"kappa": power, "tau": power,
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "k_max": 10},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "grid": {"n_steps": 64},
            "experiment": {"N_list": [5, 20], "replicates": 4, "out": str(outdir)},
        })
        assert cli.main([*command, "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert f"{where}: N=20 exceeds the spectrum's k_max=10" in err, err
        # the check reads no N list
        assert cli.main(["check", "--config", cfg, *flags]) == 0

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


    def test_k_range_beyond_k_max_exits_one(self, tmp_path, outdir, capsys):
        from hypermle import cli

        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"kappa": {"kind": "constant", "coefficient": 0.0},
                         "tau": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "k_max": 10},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0]},
            "check": {"k_range": [20, 30]},
            "experiment": {"out": str(outdir)},
        })
        assert cli.main(["check", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "check.k_range: " in err and "k_max=10" in err, err
        assert not (outdir / "check_report.json").exists()

    @pytest.mark.parametrize("k_range", [[10, 30], [5, 5]])
    def test_k_range_with_one_mode_exits_one(self, tmp_path, outdir, capsys, k_range):
        # one mode cannot show growth: a configuration error, not a FAIL verdict
        from hypermle import cli

        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"kappa": {"kind": "constant", "coefficient": 0.0},
                         "tau": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "k_max": 10},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0]},
            "check": {"k_range": k_range},
            "experiment": {"out": str(outdir)},
        })
        assert cli.main(["check", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "check.k_range: " in err and "one mode" in err, err
        assert not (outdir / "check_report.json").exists()


class TestUsage:
    @pytest.mark.parametrize("argv, says", [
        (["check", "--config", str(CONFIGS / "alg_ex1.json"), "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["psi", "--n-list", "5"], "the following arguments are required: --config"),
        (["mc", "bogus", "--config", str(CONFIGS / "alg_ex1.json")], "invalid choice: 'bogus'"),
    ], ids=["unknown_flag", "no_config", "bad_mc_verb"])
    def test_usage_error_exits_one(self, capsys, argv, says):
        # exit 2 is check's "not hyperbolic"; a usage error is a configuration error
        from hypermle import cli

        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: " in err and says in err, err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["mc", "--help"]],
                             ids=["help", "version", "mc_help"])
    def test_help_and_version_exit_zero(self, capsys, argv):
        from hypermle import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "hypermle" in capsys.readouterr().out


class TestConfigDocs:
    @staticmethod
    def documented_keys(text):
        """{section: keys} of the first schema block in `text`; '// or:' lines are alternatives."""
        block = re.search(r"^\s*\{$.*?^\s*\}$", text, re.MULTILINE | re.DOTALL).group(0)
        doc = json.loads(re.sub(r"//\s*or:", "", block))
        keys = {"top level": set(doc)}
        keys.update((name, set(node)) for name, node in doc.items() if isinstance(node, dict))
        return keys

    def test_documented_keys_match_schema(self):
        """The schema in README and in the config module docstring lists every key the parser takes."""
        from hypermle import config

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        schema = readme[readme.index("### Config schema"):]
        declared = {name: set(keys) for name, keys in config._SECTIONS.items()}
        for where, text in (("README.md", schema), ("config.py", config.__doc__)):
            assert self.documented_keys(text) == declared, where


class TestPsi:
    def test_csv_columns_and_override(self, ex1_config, outdir):
        res = run_cli("psi", "--config", ex1_config, "--n-list", "5,10,20")
        assert res.returncode == 0, res.stderr
        lines = (outdir / "psi.csv").read_text().strip().splitlines()
        assert lines[0] == "N,psi1_exact,psi2_exact,psi12_exact,psi1_asym,psi2_asym"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 5 and float(first[1]) > 0.0

    def test_echoes_the_csv_without_numpy_polynomial(self, ex1_config, outdir):
        # m_func and v_func sum their series by Horner's rule: importing numpy.polynomial
        # for it took milliseconds in every process that evaluates psi
        code = ("import sys; from hypermle import cli; code = cli.main(sys.argv[1:]); "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')), "
                "file=sys.stderr); sys.exit(code)")
        res = run_python("-c", code, "psi", "--config", ex1_config, "--n-list", "1,5,10")
        assert res.returncode == 0, res.stderr
        assert res.stderr == "[]\n"
        assert res.stdout == (outdir / "psi.csv").read_text()

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

    def test_overflowing_coefficient_exits_four(self, tmp_path, outdir):
        # tau_k = k^300, lambda_k ~ k^300: tau_k^2 / lambda_k leaves the float range at k = 11
        cfg = write_config(tmp_path / "steep.json", {
            "spectrum": {"kappa": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "tau": {"kind": "power_law", "coefficient": 1.0, "exponent": 300.0},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "dimension": 1, "k_max": 100},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "experiment": {"out": str(outdir)},
        })
        res = run_cli("psi", "--config", cfg, "--n-list", "20")
        assert res.returncode == 4
        assert res.stderr.startswith("runtime error:") and len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("rho", [-1e155, -1e154, -1e150])
    def test_strong_damping_never_writes_nan_or_negative_zero(self, tmp_path, outdir, rho):
        # `check` passes all three; psi used to write NaN at -1e155 and psi2 = -0 at
        # -1e154, exiting 0, while -1e150 gives psi2 = 1.5e-150 at N = 3
        cfg = write_config(tmp_path / "damped.json", {
            "spectrum": {"kappa": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
                         "tau": {"kind": "constant", "coefficient": 1.0},
                         "rho": {"kind": "constant", "coefficient": rho},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "dimension": 1},
            "params": {"theta1": 1.0, "theta2": 0.0, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "experiment": {"out": str(outdir)},
        })
        res = run_cli("psi", "--config", cfg, "--n-list", "3")
        if rho < -1e150:
            assert res.returncode == 4
            assert "runtime error: mode 1:" in res.stderr and "Traceback" not in res.stderr
        else:
            assert res.returncode == 0, res.stderr
            row = (outdir / "psi.csv").read_text().splitlines()[-1].split(",")
            assert float(row[2]) == pytest.approx(1.5e-150, rel=1e-9)


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

    @pytest.mark.parametrize("row, message", [
        ("1,3,0.5,0.25,inf", "line 5: dw is not finite"),
        ("1,3,0.5,0.25,nan", "line 5: dw is not finite"),
        ("1,3,nan,0.25,0.125", "line 5: u is not finite"),
        ("1,3,0.5,0.25", "line 5: not enough values to unpack"),
        ("x3,3,0.5,0.25,0.125", "line 5: invalid literal for int()"),
        ("1,2,0.5,0.25,0.125", "mode 1 has 65 rows, not t_index 0..64"),
        (None, "cannot read"),
    ], ids=["inf_dw", "nan_dw", "nan_u", "four_fields", "bad_k", "repeated_t", "missing_file"])
    def test_bad_trajectory_file_rejected(self, outdir, capsys, row, message):
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "2",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        path = outdir / "trajectories.csv"
        if row is None:
            path = outdir / "absent.csv"
        else:
            lines = path.read_text().splitlines()
            assert lines[4].startswith("1,3,")  # mode 1 at t_index 3, line 5 of the file
            lines[4] = row
            path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["estimate", *common, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}" in err and message in err, err
        assert not (outdir / "estimate.json").exists()

    def test_rows_in_any_order(self, outdir):
        # shuffled rows, the last without its newline
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "3",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        path = outdir / "trajectories.csv"
        assert cli.main(["estimate", *common, "--trajectories", str(path)]) == 0
        want = (outdir / "estimate.json").read_text()
        header, *rows = path.read_text().splitlines()
        np.random.default_rng(4).shuffle(rows)
        shuffled = outdir / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows))
        assert cli.main(["estimate", *common, "--trajectories", str(shuffled)]) == 0
        assert (outdir / "estimate.json").read_text() == want

    def test_bad_line_named_past_the_first_batch(self, outdir, capsys):
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "2",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        path = outdir / "trajectories.csv"
        lines = path.read_text().splitlines()
        lines[100] = lines[100] + ",0.5"  # line 101 of the file
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["estimate", *common, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 101: too many values to unpack" in err, err

    @pytest.mark.parametrize("row, message", [
        ("13,4000,nan,0.25,0.125", "u is not finite"),
        ("13,4000,0.5,0.25,0.125x", "could not convert string to float: '0.125x'"),
    ], ids=["nan_u", "bad_dw"])
    def test_bad_line_named_deep_in_a_large_file(self, outdir, capsys, row, message):
        # 53 262 lines, the bad one past row 50 000 (a chunk numpy.loadtxt reads some files in)
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "13",
                  "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        path = outdir / "trajectories.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 53262
        lineno = 1 + 12 * 4097 + 4000 + 1  # mode 13 at t_index 4000
        assert lines[lineno - 1].startswith("13,4000,")
        lines[lineno - 1] = row
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["estimate", *common, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line {lineno}: {message}" in err, err

    def test_header_only_file_rejected(self, outdir, capsys):
        from hypermle import cli

        path = outdir / "empty.csv"
        outdir.mkdir()
        path.write_text("k,t_index,u,v,dw\n")
        assert cli.main(["estimate", "--config", str(CONFIGS / "alg_ex1.json"),
                         "--out", str(outdir), "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: holds no trajectory rows" in err, err
        assert not (outdir / "estimate.json").exists()

    def test_more_modes_than_k_max_rejected(self, tmp_path, outdir, capsys):
        from hypermle import cli

        common = ["--n-list", "5", "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", "--config", str(CONFIGS / "alg_ex1.json"), *common]) == 0
        path = outdir / "trajectories.csv"
        power = {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0}
        cfg = write_config(tmp_path / "short.json", {
            "spectrum": {"kappa": power, "tau": {"kind": "explicit", "values": [1.0, 4.0, 9.0]},
                         "rho": {"kind": "constant", "coefficient": 0.0},
                         "nu": {"kind": "constant", "coefficient": 1.0}, "k_max": 3},
            "params": {"theta1": 1.0, "theta2": -0.5, "theta1_box": [0.5, 2.0],
                       "theta2_box": [-1.0, 1.0], "T": 1.0},
            "grid": {"n_steps": 64},
            "experiment": {"out": str(outdir / "estimate")},
        })
        capsys.readouterr()
        assert cli.main(["estimate", "--config", cfg, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: holds 5 modes; the spectrum declares k_max=3" in err, err

    def test_empty_lines_and_nan_on_last_rows_accepted(self, outdir):
        # np.loadtxt skips empty lines, and a dw of nan on a mode's last row reads as no dw
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "3",
                  "--dt-steps", "64", "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        path = outdir / "trajectories.csv"
        assert cli.main(["estimate", *common, "--trajectories", str(path)]) == 0
        want = (outdir / "estimate.json").read_text()
        lines = [line + "nan" if line.split(",")[1] == "64" else line
                 for line in path.read_text().splitlines()[1:]]
        edited = outdir / "edited.csv"
        edited.write_text("k,t_index,u,v,dw\n\n" + "\n\n".join(lines) + "\n")
        assert cli.main(["estimate", *common, "--trajectories", str(edited)]) == 0
        assert (outdir / "estimate.json").read_text() == want

    @pytest.mark.parametrize("header", [b"", b"k,t_index,u,v,dw\n"], ids=["bytes", "after_header"])
    def test_binary_trajectory_file_rejected(self, outdir, capsys, header):
        from hypermle import cli

        path = outdir / "random.bin"
        outdir.mkdir()
        path.write_bytes(header + bytes(range(256)) + bytes(range(44)))
        assert cli.main(["estimate", "--config", str(CONFIGS / "alg_ex1.json"),
                         "--out", str(outdir), "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}" in err, err
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

    def test_stream_version_recorded(self, ex1_config, outdir):
        from hypermle import cli
        from hypermle.simulate import STREAM_VERSION

        assert STREAM_VERSION == 2
        common = ["--config", ex1_config, "--n-list", "2,4", "--replicates", "30", "--workers", "1"]
        for verb in ("consistency", "normality", "lln"):
            assert cli.main(["mc", verb, *common]) == 0
            summary = json.loads((outdir / f"{verb}_summary.json").read_text())
            assert summary["stream_version"] == STREAM_VERSION, verb
        assert cli.main(["simulate", "--config", ex1_config, "--n-list", "2"]) == 0
        entries = [json.loads(l) for l in
                   (outdir / "manifest.jsonl").read_text().strip().splitlines()]
        assert len(entries) == 4
        assert all(e["stream_version"] == STREAM_VERSION for e in entries)


class TestStreamedReader:
    """The trajectory reader parses a file a batch of rows at a time, each row placed at its
    (k, t_index): batches of 1 row and of 7 (which does not divide a mode's 65 rows) find
    what one whole-file parse finds."""

    common = ["--config", str(CONFIGS / "alg_ex1.json"), "--dt-steps", "64", "--seed", "3"]

    @pytest.fixture(params=[1, 7])
    def batch(self, request, monkeypatch):
        from hypermle import cli

        monkeypatch.setattr(cli, "_READ_ROWS", request.param)
        return request.param

    def simulate(self, outdir, n_modes):
        from hypermle import cli

        argv = [*self.common, "--n-list", str(n_modes), "--out", str(outdir)]
        assert cli.main(["simulate", *argv]) == 0
        return argv, outdir / "trajectories.csv"

    def test_rows_in_any_order(self, outdir, batch):
        from hypermle import cli

        argv, path = self.simulate(outdir, 3)
        assert cli.main(["estimate", *argv, "--trajectories", str(path)]) == 0
        want = (outdir / "estimate.json").read_text()
        header, *rows = path.read_text().splitlines()
        np.random.default_rng(4).shuffle(rows)
        shuffled = outdir / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows))
        assert cli.main(["estimate", *argv, "--trajectories", str(shuffled)]) == 0
        assert (outdir / "estimate.json").read_text() == want

    @pytest.mark.parametrize("twin", [4, 60], ids=["same_batch_of_7", "another_batch"])
    def test_repeated_t_index(self, outdir, capsys, batch, twin):
        # mode 1's row at t_index 3 (line 5) given the t_index of the row `twin` rows down
        from hypermle import cli

        argv, path = self.simulate(outdir, 2)
        lines = path.read_text().splitlines()
        assert lines[4].startswith("1,3,") and lines[1 + twin].startswith(f"1,{twin},")
        lines[4] = lines[4].replace("1,3,", f"1,{twin},", 1)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["estimate", *argv, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: mode 1 has 65 rows, not t_index 0..64" in err, err

    def test_huge_k_allocates_nothing(self, outdir, capsys, batch):
        from hypermle import cli
        from hypermle.config import load_config

        argv, path = self.simulate(outdir, 2)
        lines = path.read_text().splitlines()
        lines.insert(40, "1000000000000000,3,0.5,0.25,0.125")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["estimate", *argv, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: holds 3 modes, not the modes 1..3" in err, err
        cfg = load_config(CONFIGS / "alg_ex1.json")
        tracemalloc.start()
        try:
            with pytest.raises(cli.ConfigError, match="holds 3 modes"):
                cli._read_trajectories(path, cfg["spec"], cfg["params"], cli.TimeGrid(1.0, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 9 kB file, one 64 kB read of its line count and small batches: a block of
        # 10^15 modes would be 8 PB
        assert peak < 1 << 17, peak

    def test_numpy_message_counts_rows_from_the_file_start(self, outdir, capsys, batch):
        # a k that Python's int() reads and numpy's int64 does not: numpy's message names the row
        from hypermle import cli

        argv, path = self.simulate(outdir, 2)
        lines = path.read_text().splitlines()
        assert lines[61].startswith("1,60,")
        lines[61] = "100000000000000000000" + lines[61][1:]
        path.write_text("\n\n".join(lines) + "\n")  # an empty line after each row
        capsys.readouterr()
        assert cli.main(["estimate", *argv, "--trajectories", str(path)]) == 1
        err = capsys.readouterr().err
        assert (f"config error: {path}: could not convert string '100000000000000000000' "
                f"to int64 at row 60, column 1.") in err, err

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_of_any_kind(self, outdir, batch, end):
        # text mode reads "\r\n" and a lone "\r" as line ends, which the line count must too
        from hypermle import cli

        argv, path = self.simulate(outdir, 3)
        assert cli.main(["estimate", *argv, "--trajectories", str(path)]) == 0
        want = (outdir / "estimate.json").read_text()
        other = outdir / "other.csv"
        other.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        assert cli.main(["estimate", *argv, "--trajectories", str(other)]) == 0
        assert (outdir / "estimate.json").read_text() == want

    @pytest.mark.parametrize("data, lines", [
        (b"", 1), (b"a", 1), (b"a\n", 2), (b"a\r", 2), (b"a\r\n", 2), (b"\n\r\r\n\r", 5),
        (b"ab\r\ncd\r\n\r\n", 4),
    ], ids=["empty", "one", "lf", "cr", "crlf", "mixed", "crlf_rows"])
    def test_line_count(self, monkeypatch, data, lines):
        # reads of 1 and 2 bytes put "\r\n" pairs across two reads of the count
        import io

        from hypermle import cli

        assert len(io.TextIOWrapper(io.BytesIO(data), newline=None).read().split("\n")) == lines
        for size in (1, 2, cli._COUNT_BYTES):
            monkeypatch.setattr(cli, "_COUNT_BYTES", size)
            assert cli._line_count(io.BytesIO(data)) == lines, size

    def test_a_pipe_cannot_be_read(self, outdir, capsys):
        # the line count reads the file once before it parses it: a pipe is refused, not hung on
        from hypermle import cli

        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd to name a pipe by")
        argv, path = self.simulate(outdir, 2)
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())  # 9 kB: within a pipe's buffer
            os.close(w)
            capsys.readouterr()
            assert cli.main(["estimate", *argv, "--trajectories", f"/dev/fd/{r}"]) == 1
        finally:
            os.close(r)
        err = capsys.readouterr().err
        assert f"config error: cannot read /dev/fd/{r}" in err, err

    def test_peak_memory_below_twice_the_trajectories(self, outdir):
        # the 13-mode, 4096-step file of test_bad_line_named_deep_in_a_large_file: the reader
        # holds the blocks it returns and one batch (a whole-file parse peaked at 3.4 times them)
        from hypermle import cli
        from hypermle.config import load_config

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "13",
                  "--seed", "3", "--out", str(outdir)]
        assert cli.main(["simulate", *common]) == 0
        cfg = load_config(CONFIGS / "alg_ex1.json")
        tracemalloc.start()
        try:
            trajs = cli._read_trajectories(outdir / "trajectories.csv", cfg["spec"], cfg["params"],
                                           cfg["grid"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(t.u_scaled.nbytes + t.v.nbytes + t.dw.nbytes for t in trajs)
        assert len(trajs) == 13 and len(trajs[0].u_scaled) == 4097
        assert peak <= 2.0 * kept, peak / kept


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
        keys = list(summary)
        assert keys.index("slope1_ci") == keys.index("slope2_stderr") + 1
        for band in (summary["slope1_ci"], summary["slope2_ci"]):
            assert len(band) == 2 and all(math.isfinite(x) for x in band) and band[0] < band[1], band
        csv_lines = (outdir / "consistency_replicates.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 2 * 35

    def test_normality_summary(self, ex1_config, outdir):
        res = run_cli("mc", "normality", "--config", ex1_config)
        assert res.returncode == 0, res.stderr
        summary = json.loads((outdir / "normality_summary.json").read_text())
        assert summary["N"] == 10
        assert 0.0 <= summary["ks1"] <= 1.0
        assert "0.01" in summary["critical"] or 0.01 in summary["critical"]

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path):
        # the summaries record neither the worker count nor the time (the manifest does)
        from hypermle import cli

        common = ["--config", str(CONFIGS / "alg_ex1.json"), "--n-list", "2,4", "--replicates", "30",
                  "--dt-steps", "256"]
        for workers in (1, 2):
            for verb in ("consistency", "lln"):
                args = [*common, "--workers", str(workers), "--out", str(tmp_path / str(workers))]
                assert cli.main(["mc", verb, *args]) == 0
        for name in ("consistency_replicates.csv", "consistency_summary.json", "lln_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.parametrize("affinity, cpus, want", [({0}, 8, 1), ({0, 2, 5}, 8, 3), (None, 5, 5)])
    def test_default_workers_follow_the_affinity_mask(self, ex1_config, monkeypatch, affinity, cpus, want):
        # os.cpu_count() counts every CPU of the machine, also those the process may not run on;
        # without affinity masks (None) it is the fallback
        from hypermle import cli

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        args = cli._parser().parse_args(["mc", "lln", "--config", ex1_config])
        cfg, _ = cli._resolve(args)
        assert cli._mc_config(cfg, args).workers == want

    def test_underresolved_modes_in_summaries(self, outdir):
        from hypermle import cli
        from hypermle.config import load_config
        from hypermle.simulate import _true_modes, _underresolved

        config = str(CONFIGS / "sec5_exponential.json")
        cfg = load_config(config)
        counts = [int(_underresolved(*_true_modes(cfg["spec"], cfg["params"], N)[:2], 1.0 / 256).sum())
                  for N in (4, 8, 12)]
        assert counts == [0, 2, 6]  # the grid of 256 steps resolves modes 1..6 only
        common = ["--config", config, "--n-list", "4,8,12", "--dt-steps", "256",
                  "--replicates", "30", "--workers", "1", "--out", str(outdir)]
        for verb in ("consistency", "lln", "normality"):
            assert cli.main(["mc", verb, *common]) == 0
        for name in ("consistency", "lln"):
            rows = json.loads((outdir / f"{name}_summary.json").read_text())["rows"]
            assert [r["underresolved_modes"] for r in rows] == counts, name
        normality = json.loads((outdir / "normality_summary.json").read_text())
        assert normality["N"] == 12 and normality["underresolved_modes"] == counts[-1]

    def test_tables_render(self, ex1_config, outdir):
        res = run_cli("mc", "tables", "--config", ex1_config)
        assert res.returncode == 0, res.stderr
        assert "alg_ex3" in res.stdout
        rows = (outdir / "growth_tables.csv").read_text().strip().splitlines()
        assert rows[0] == "example,d,gamma1,gamma2,psi1_growth,psi2_growth"
        assert len(rows) == 1 + 6 * 4
