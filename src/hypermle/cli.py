"""Command-line front-end.

Subcommands:
    check                hyperbolicity / algebraic-class report (exit 0/2/3)
    psi                  normalizer table over an N list, as CSV
    simulate             dump mode trajectories as CSV
    estimate             estimator report from a trajectory file
    mc consistency       error-decay experiment
    mc normality         normalized-error KS + independence test
    mc lln               law-of-large-numbers / isometry ratios
    mc tables            theoretical growth-exponent matrix for the examples

Exit codes: 0 success (check: pass), 1 configuration error, 2 check fail,
3 check inconclusive, 4 runtime failure.  Every run appends one manifest
line to <out>/manifest.jsonl listing its outputs.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, _checked, _n_list, _positive_int, _seed, load_config
from .equations import preset as make_preset
from .estimate import _STAT_KEYS, SingularSystemError, estimate_from_trajectories
from .fundamental import FundamentalOverflowError, psi_curve
from .montecarlo import (
    ExperimentConfig,
    run_consistency,
    run_normality,
    verify_lln,
    write_replicate_csv,
    write_summary_json,
)
from .simulate import STREAM_VERSION, ModeTrajectory, TimeGrid, _true_mode, simulate_solution
from .spectrum import check_hyperbolic, classify_algebraic, consistency_conditions, NonAlgebraicSpectrumError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAIL = 2
EXIT_CHECK_INCONCLUSIVE = 3
EXIT_RUNTIME = 4

_TABLE_DIMS = (1, 2, 4, 8)  # the dimensions d that growth_tables tabulates


def _parser():
    p = argparse.ArgumentParser(prog="hypermle", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"hypermle {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="output directory (default: config experiment.out)")
        sp.add_argument("--workers", type=int, default=None, help="worker threads (results identical)")
        sp.add_argument("--n-list", default=None, help="comma-separated N values, overrides config")
        sp.add_argument("--replicates", type=int, default=None)
        sp.add_argument("--dt-steps", type=int, default=None, help="time grid steps, overrides config")

    common(sub.add_parser("check", help="condition report"))
    common(sub.add_parser("psi", help="normalizer table"))
    common(sub.add_parser("simulate", help="dump trajectories"))
    est = sub.add_parser("estimate", help="estimate from a trajectory file")
    common(est)
    est.add_argument("--trajectories", required=True, help="CSV produced by `simulate`")
    mc = sub.add_parser("mc", help="Monte Carlo experiment suites")
    mc.add_argument("subverb", choices=["consistency", "normality", "lln", "tables"])
    common(mc)
    return p


def _resolve(args):
    cfg = load_config(args.config)
    if args.workers is not None:
        _checked(_positive_int, args.workers, "--workers")
    if args.seed is not None:
        cfg["experiment"]["seed"] = _checked(_seed, args.seed, "--seed")
    if args.n_list is not None:
        cfg["experiment"]["N_list"] = _checked(_n_list, [x for x in args.n_list.split(",") if x], "--n-list")
    if args.replicates is not None:
        cfg["experiment"]["replicates"] = _checked(_positive_int, args.replicates, "--replicates")
    if args.dt_steps is not None:
        cfg["grid"] = TimeGrid(cfg["params"].T, _checked(_positive_int, args.dt_steps, "--dt-steps"))
    out = Path(args.out if args.out is not None else cfg["experiment"]["out"])
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _n_list_within_spectrum(cfg, args):
    """The N list, each N a mode the spectrum declares (a configuration error otherwise)."""
    ns, k_max = cfg["experiment"]["N_list"], cfg["spec"].k_max
    if ns[-1] > k_max:
        where = "--n-list" if args.n_list is not None else "experiment.N_list"
        raise ConfigError(f"{where}: N={ns[-1]} exceeds the spectrum's k_max={k_max}")
    return ns


def _manifest(out, command, args, cfg, outputs, started):
    entry = {
        "command": command,
        "config_path": str(args.config),
        "config_echo": cfg["raw"],
        "seed": cfg["experiment"]["seed"],
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(o) for o in outputs],
    }
    with (out / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(entry) + "\n")


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_check(args):
    cfg, out = _resolve(args)
    started = _now()
    (k_lo, k_hi), k_max = cfg["check"]["k_range"], cfg["spec"].k_max
    if k_lo > k_max:
        raise ConfigError(f"check.k_range: k_lo={k_lo} exceeds the spectrum's k_max={k_max}")
    if min(k_hi, k_max) == k_lo:
        raise ConfigError(f"check.k_range: [{k_lo}, {k_hi}] holds one mode of a spectrum with "
                          f"k_max={k_max}; growth needs at least two")
    rep = check_hyperbolic(cfg["spec"], cfg["params"], cfg["check"]["k_range"])
    doc = {"hyperbolicity": rep.to_dict()}
    try:
        cls = classify_algebraic(cfg["spec"], cfg["params"], cfg["check"]["k_range"])
        doc["algebraic_class"] = {
            "alpha": cls.alpha, "alpha1": cls.alpha1,
            "beta": cls.beta, "beta1": cls.beta1, "fit_quality": cls.fit_quality,
        }
        doc["order_conditions"] = consistency_conditions(cls)
    except NonAlgebraicSpectrumError as exc:
        doc["algebraic_class"] = {"refused": str(exc)}
    path = out / "check_report.json"
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    print(json.dumps(doc, indent=2, default=float))
    _manifest(out, "check", args, cfg, [path], started)
    return {"pass": EXIT_OK, "fail": EXIT_CHECK_FAIL, "inconclusive": EXIT_CHECK_INCONCLUSIVE}[rep.hyperbolic]


def cmd_psi(args):
    cfg, out = _resolve(args)
    started = _now()
    rows = psi_curve(cfg["spec"], cfg["params"], _n_list_within_spectrum(cfg, args))
    path = out / "psi.csv"
    with path.open("w") as fh:
        fh.write("N,psi1_exact,psi2_exact,psi12_exact,psi1_asym,psi2_asym\n")
        for r in rows:
            fh.write(f"{r.N},{r.psi1:.17g},{r.psi2:.17g},{r.psi12:.17g},"
                     f"{r.psi1_asym:.17g},{r.psi2_asym:.17g}\n")
    print(path.read_text(), end="")
    _manifest(out, "psi", args, cfg, [path], started)
    return EXIT_OK


def cmd_simulate(args):
    cfg, out = _resolve(args)
    started = _now()
    N = max(_n_list_within_spectrum(cfg, args))
    trajs = simulate_solution(cfg["spec"], cfg["params"], N, cfg["grid"],
                              cfg["experiment"]["seed"])
    path = out / "trajectories.csv"
    with path.open("w") as fh:
        fh.write("k,t_index,u,v,dw\n")
        for t in trajs:
            u = t.u
            for i in range(len(t) + 1):
                dw = f"{t.dw[i]:.17g}" if i < len(t) else ""
                fh.write(f"{t.k},{i},{u[i]:.17g},{t.v[i]:.17g},{dw}\n")
    print(f"wrote {path} ({N} modes, {cfg['grid'].n_steps} steps)")
    _manifest(out, "simulate", args, cfg, [path], started)
    return EXIT_OK


def _read_trajectories(path, spec, params, grid):
    """Mode trajectories from a `simulate` CSV, with each mode's lam, mu and scale restored."""
    rows = {}
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header != ["k", "t_index", "u", "v", "dw"]:
                raise ConfigError(f"{path}: unexpected trajectory header {header}")
            for lineno, line in enumerate(fh, 2):
                try:
                    k, ti, u, v, dw = line.rstrip("\n").split(",")
                    rows.setdefault(int(k), []).append((int(ti), float(u), float(v),
                                                        float(dw) if dw else None))
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised while a line is read, before it is parsed
        raise ConfigError(f"{path}: not a text file: {exc}") from exc
    ks = sorted(rows)
    if ks != list(range(1, len(ks) + 1)):
        raise ConfigError(f"{path}: holds {len(ks)} modes, not the modes 1..{len(ks)}")
    out = []
    for k in ks:
        entries = sorted(rows[k])
        if [e[0] for e in entries] != list(range(grid.n_steps + 1)):
            raise ConfigError(
                f"{path}: mode {k} has {len(entries)} rows, not t_index 0..{grid.n_steps} "
                f"of the configured grid (simulated with another --dt-steps?)")
        lam, mu, scale = _true_mode(spec, params, k)
        u = np.array([e[1] for e in entries]) * scale
        v = np.array([e[2] for e in entries])
        if any(e[3] is None for e in entries[:-1]) or entries[-1][3] is not None:
            raise ConfigError(
                f"{path}: mode {k} needs dw on t_index 0..{grid.n_steps - 1} "
                f"and none on t_index {grid.n_steps}")
        dw = np.array([e[3] for e in entries[:-1]])
        for name, col in (("u", u), ("v", v), ("dw", dw)):
            finite = np.isfinite(col)
            if not finite.all():
                line = _line_of(path, k, int(np.argmin(finite)))
                raise ConfigError(f"{path}: line {line}: {name} is not finite")
        out.append(ModeTrajectory(k, u, v, dw, scale, lam, mu, grid.dt))
    return out


def _line_of(path, k, t_index):
    """Line number of mode k's row at t_index in a trajectory file whose rows all parse."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            if tuple(map(int, line.split(",", 2)[:2])) == (k, t_index):
                return lineno


def cmd_estimate(args):
    cfg, out = _resolve(args)
    started = _now()
    trajs = _read_trajectories(args.trajectories, cfg["spec"], cfg["params"], cfg["grid"])
    N = len(trajs)
    pv = psi_curve(cfg["spec"], cfg["params"], [N])[0]
    res = estimate_from_trajectories(trajs, cfg["spec"], cfg["params"], pv)
    doc = {
        "N": N,
        "theta1_hat": res.theta1_hat, "theta2_hat": res.theta2_hat,
        "psi1": res.psi1, "psi2": res.psi2, "psi_at_truth": res.psi_at_truth,
        "norm_err1": res.norm_err1, "norm_err2": res.norm_err2,
        "D_N": res.D_N, "iota1": res.iota1, "iota2": res.iota2,
        "stats": {key: val for key, val in vars(res.stats).items() if key in _STAT_KEYS},
        "endpoint_variant": res.stats.endpoint_variant,
        "underresolved_modes": res.underresolved_modes,
        "grid": {"T": cfg["params"].T, "n_steps": cfg["grid"].n_steps},
        "seed": cfg["experiment"]["seed"],
    }
    path = out / "estimate.json"
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    print(json.dumps(doc, indent=2, default=float))
    _manifest(out, "estimate", args, cfg, [path], started)
    return EXIT_OK


def _mc_config(cfg, args):
    import os

    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    return ExperimentConfig(
        spec=cfg["spec"], params=cfg["params"],
        N_list=_n_list_within_spectrum(cfg, args),
        replicates=cfg["experiment"]["replicates"],
        grid=cfg["grid"], seed=cfg["experiment"]["seed"],
        workers=workers,
    )


def cmd_mc(args):
    cfg, out = _resolve(args)
    started = _now()
    mc_cfg = None if args.subverb == "tables" else _mc_config(cfg, args)
    outputs = []
    if args.subverb == "consistency":
        res = run_consistency(mc_cfg)
        outputs.append(write_replicate_csv(out / "consistency_replicates.csv", res["rows"]))
        summary = {
            "rows": [{k: v for k, v in r.items() if k != "batch"} for r in res["rows"]],
            "slope1": res["slope1"], "slope1_stderr": res["slope1_stderr"],
            "slope2": res["slope2"], "slope2_stderr": res["slope2_stderr"],
            "seed": mc_cfg.seed, "version": __version__, "stream_version": STREAM_VERSION,
            "config": cfg["raw"],
        }
        outputs.append(write_summary_json(out / "consistency_summary.json", summary))
        print(f"slope1 {res['slope1']:+.3f} (se {res['slope1_stderr']:.3f}); "
              f"slope2 {res['slope2']:+.3f} (se {res['slope2_stderr']:.3f})")
    elif args.subverb == "normality":
        rep = run_normality(mc_cfg)
        summary = {
            "N": rep.N, "ks1": rep.ks1, "ks2": rep.ks2, "critical": rep.critical,
            "corr12": rep.corr12, "corr_ci": list(rep.corr_ci),
            "verdict1": rep.verdict1, "verdict2": rep.verdict2,
            "independent": rep.independent, "n_excluded": rep.n_excluded,
            "route": rep.route, "underresolved_modes": rep.underresolved_modes,
            "seed": mc_cfg.seed, "version": __version__, "stream_version": STREAM_VERSION,
            "config": cfg["raw"],
        }
        outputs.append(write_summary_json(out / "normality_summary.json", summary))
        path = out / "normality_errors.csv"
        with path.open("w") as fh:
            fh.write("norm_err1,norm_err2\n")
            for a, b in zip(rep.norm_err1, rep.norm_err2):
                fh.write(f"{a:.17g},{b:.17g}\n")
        outputs.append(path)
        print(f"N={rep.N}: ks1={rep.ks1:.4f} ks2={rep.ks2:.4f} "
              f"(1% crit {rep.critical[0.01]:.4f}); corr12={rep.corr12:+.3f}; "
              f"verdicts: {rep.verdict1}, {rep.verdict2}")
    elif args.subverb == "lln":
        rows = verify_lln(mc_cfg)
        summary = {"rows": rows, "seed": mc_cfg.seed, "version": __version__,
                   "stream_version": STREAM_VERSION, "config": cfg["raw"]}
        outputs.append(write_summary_json(out / "lln_summary.json", summary))
        for r in rows:
            print(f"N={r['N']}: K1/psi1 median {r['K1_over_psi1'][0]:.3f}, "
                  f"iota1 isometry {r['iota1_isometry']:.3f}")
    else:  # tables
        rows, text = growth_tables()
        path = out / "growth_tables.csv"
        with path.open("w") as fh:
            fh.write("example,d,gamma1,gamma2,psi1_growth,psi2_growth\n")
            for r in rows:
                fh.write(",".join(str(x) for x in r) + "\n")
        outputs.append(path)
        print(text)
    _manifest(out, "mc " + args.subverb, args, cfg, outputs, started)
    return EXIT_OK


def _growth_str(gamma):
    if gamma > -1.0 + 1e-9:
        return f"N^{gamma + 1:g}"
    if gamma > -1.0 - 1e-9:
        return "ln N"
    return "const"


def growth_tables():
    """Theoretical growth-exponent matrix for the six example equations at d = 1, 2, 4, 8."""
    rows = []
    header = f"{'example':<10}" + "".join(f"{'d=' + str(d):>22}" for d in _TABLE_DIMS)
    lines = [header, "-" * len(header)]
    for name in ["alg_ex1", "alg_ex2", "alg_ex3", "alg_ex4", "alg_ex5", "alg_ex6"]:
        cells = []
        for d in _TABLE_DIMS:
            spec, params = make_preset(name, d=d)
            cls = classify_algebraic(spec, params, (1, 1000))
            cond = consistency_conditions(cls)
            g1, g2 = cond["gamma1"], cond["gamma2"]
            rows.append((name, d, g1, g2, _growth_str(g1), _growth_str(g2)))
            cells.append(f"{_growth_str(g1):>9} | {_growth_str(g2):<9}")
        lines.append(f"{name:<10}" + "".join(f"{c:>22}" for c in cells))
    lines.append("(each cell: psi1 growth | psi2 growth)")
    return rows, "\n".join(lines)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "psi":
            return cmd_psi(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        return cmd_mc(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystemError, FundamentalOverflowError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
