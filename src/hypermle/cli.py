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

Exit codes: 0 success (check: pass), 1 configuration error (a usage error
too), 2 check fail, 3 check inconclusive, 4 runtime failure.  Every run
appends one manifest line to <out>/manifest.jsonl listing its outputs.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, _checked, _n_list, _positive_int, _seed, load_config
from .equations import preset as make_preset
from .estimate import _STAT_KEYS, SingularSystemError, estimate_from_trajectories
from .fundamental import FundamentalOverflowError, psi_curve
from .montecarlo import ExperimentConfig, run_consistency, run_normality, verify_lln
from .simulate import STREAM_VERSION, ModeTrajectory, TimeGrid, _true_modes, simulate_solution
from .spectrum import check_hyperbolic, classify_algebraic, consistency_conditions, NonAlgebraicSpectrumError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAIL = 2
EXIT_CHECK_INCONCLUSIVE = 3
EXIT_RUNTIME = 4

_TABLE_DIMS = (1, 2, 4, 8)  # the dimensions d that growth_tables tabulates
_ROW_DTYPE = [("k", np.int64), ("t_index", np.int64), ("u", float), ("v", float), ("dw", float)]
_READ_ROWS = 8192  # rows of a trajectory file that one np.loadtxt call parses
_COUNT_BYTES = 1 << 16  # bytes of a trajectory file read at a time to count its lines


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error raised as a ConfigError (exit 1) in place of exit 2,
    which is `check`'s verdict code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _parser():
    p = _Parser(prog="hypermle", description=__doc__,
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


def _manifest(out, args, cfg, outputs, started):
    entry = {
        "command": f"mc {args.subverb}" if args.command == "mc" else args.command,
        "config_path": str(args.config),
        "config_echo": cfg["raw"],
        "seed": cfg["experiment"]["seed"],
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "started": started,
        "finished": _now(),
        "outputs": [str(o) for o in outputs],
    }
    with (out / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(entry) + "\n")


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_check(args, cfg, out):
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
    print(_write_json(path, doc), end="")
    verdict = {"pass": EXIT_OK, "fail": EXIT_CHECK_FAIL, "inconclusive": EXIT_CHECK_INCONCLUSIVE}
    return verdict[rep.hyperbolic], [path]


def cmd_psi(args, cfg, out):
    rows = psi_curve(cfg["spec"], cfg["params"], _n_list_within_spectrum(cfg, args))
    text = "N,psi1_exact,psi2_exact,psi12_exact,psi1_asym,psi2_asym\n" + "".join(
        f"{r.N},{r.psi1:.17g},{r.psi2:.17g},{r.psi12:.17g},{r.psi1_asym:.17g},{r.psi2_asym:.17g}\n"
        for r in rows)
    path = out / "psi.csv"
    path.write_text(text)
    print(text, end="")
    return EXIT_OK, [path]


def cmd_simulate(args, cfg, out):
    N = max(_n_list_within_spectrum(cfg, args))
    trajs = simulate_solution(cfg["spec"], cfg["params"], N, cfg["grid"],
                              cfg["experiment"]["seed"])
    path = out / "trajectories.csv"
    n = cfg["grid"].n_steps
    # each mode's rows after their k: t_index, u, v and dw, which the last row has none of
    rows = [f"{i},%.17g,%.17g,%.17g" for i in range(n)] + [f"{n},%.17g,%.17g,"]
    with path.open("w") as fh:
        fh.write("k,t_index,u,v,dw\n")
        for t in trajs:
            vals = np.empty(3 * n + 2)  # u, v, dw row by row
            vals[0::3], vals[1::3], vals[2::3] = t.u, t.v, t.dw
            fh.write((f"{t.k}," + f"\n{t.k},".join(rows) + "\n") % tuple(vals.tolist()))
    print(f"wrote {path} ({N} modes, {n} steps)")
    return EXIT_OK, [path]


def _read_trajectories(path, spec, params, grid):
    """Mode trajectories from a `simulate` CSV, with each mode's lam, mu and scale restored.

    The rows may come in any order.  One pass counts the file's lines, which
    bounds the modes it can hold and so sizes the u, v and dw blocks; then
    np.loadtxt parses _READ_ROWS rows at a time, each batch placed at its
    rows' (k, t_index) and dropped, so the reader holds the trajectories and
    one batch, never the whole table.  The counting pass seeks back to the
    start: a pipe cannot, and is refused as a file that cannot be read.  When
    a batch fails to parse, or a check of the rows fails, one scan over the
    lines names the first bad line (_first_bad_line), or else the check names
    the mode.
    """
    try:
        with open(path) as fh:
            table = _RowTable(_line_count(fh.buffer) - 1, grid.n_steps)  # no row on the header's line
            fh.seek(0)
            header = fh.readline().strip().split(",")
            if header != ["k", "t_index", "u", "v", "dw"]:
                raise ConfigError(f"{path}: unexpected trajectory header {header}")
            with warnings.catch_warnings():  # an empty last batch, or a file without rows (named below)
                warnings.simplefilter("ignore", UserWarning)
                while True:
                    try:
                        rows = np.loadtxt(fh, _ROW_DTYPE, delimiter=",", comments=None, ndmin=1,
                                          max_rows=_READ_ROWS,
                                          converters={4: lambda cell: cell or "nan"})  # no dw: NaN
                    except ValueError as exc:  # a UnicodeDecodeError too, which the scan meets again
                        # numpy counts the rows of its message from the start of the batch
                        message = re.sub(r"at row (\d+)", lambda m: f"at row {table.rows + int(m[1])}",
                                         str(exc), count=1)
                        raise _first_bad_line(path) or ConfigError(f"{path}: {message}") from None
                    table.add(rows)
                    if len(rows) < _READ_ROWS:
                        break
        try:
            return _mode_trajectories(path, table, spec, params, grid)
        except ConfigError as exc:
            raise _first_bad_line(path) or exc from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised while a line is read, before it is parsed
        raise ConfigError(f"{path}: not a text file: {exc}") from exc


def _line_count(raw):
    """The lines of a binary file read from where it is to its end, as text mode splits them
    at each "\n", "\r\n" and lone "\r", with a last line after the last line end."""
    lines, last = 1, b""
    while block := raw.read(_COUNT_BYTES):
        lines += block.count(b"\n") - (last == b"\r" and block[:1] == b"\n")  # "\r\n" across reads
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        last = block[-1:]
    return lines


class _RowTable:
    """The rows of a trajectory file, each placed at its (k, t_index) as its batch is read.

    The file's lines bound its rows (most_rows), and so the modes of n+1 rows
    it can hold: u, v and dw are (modes, n+1) blocks, exactly N modes for a
    valid file, and `filled` marks the cells that a row has set.  `counts[k]`
    is the number of rows with each k from 1 to most_rows, sized by the
    largest such k seen; the k values outside that range, which no mode of
    a valid file has, are kept apart in `stray`.  No array is sized by a k
    read from a row.
    """

    def __init__(self, most_rows, n):
        self.most_rows, self.n, self.rows = most_rows, n, 0
        self.u, self.v, self.dw = (np.empty((most_rows // (n + 1), n + 1)) for _ in range(3))
        self.filled = np.zeros(self.u.shape, bool)
        self.counts = np.zeros(1, np.int64)
        self.stray = np.empty(0, np.int64)

    def add(self, rows):
        self.rows += len(rows)
        k, t = rows["k"], rows["t_index"]
        stray, counted = (k < 1) | (k > self.most_rows), k
        if stray.any():
            self.stray = np.union1d(self.stray, k[stray])
            counted = k[~stray]
        counts = np.bincount(counted, minlength=len(self.counts))
        counts[:len(self.counts)] += self.counts
        self.counts = counts
        placed = ~stray & (k <= len(self.u)) & (t >= 0) & (t <= self.n)
        if not placed.all():  # a file with other modes or another grid: only its error is left to find
            rows = rows[placed]
        at = (rows["k"] - 1) * (self.n + 1) + rows["t_index"]  # one flat index for every block
        for name in ("u", "v", "dw"):
            getattr(self, name).reshape(-1)[at] = rows[name]
        self.filled.reshape(-1)[at] = True


def _mode_trajectories(path, table, spec, params, grid):
    """The ModeTrajectory of each mode in a _RowTable, viewing rows of its u, v and dw blocks.

    Raises ConfigError unless the rows hold modes 1..N, N within the
    spectrum's k_max, each with t_index 0..n, dw on every row but the last
    (NaN there) and finite values.  A mode with n+1 rows but a cell of its
    block left unfilled has a repeated or out-of-range t_index.
    """
    if not table.rows:
        raise ConfigError(f"{path}: holds no trajectory rows")
    ks = np.flatnonzero(table.counts)
    N, n = len(ks) + len(table.stray), grid.n_steps
    if len(table.stray) or ks[-1] != N:
        raise ConfigError(f"{path}: holds {N} modes, not the modes 1..{N}")
    if N > spec.k_max:
        raise ConfigError(f"{path}: holds {N} modes; the spectrum declares k_max={spec.k_max}")
    counts = table.counts[1:N + 1]
    bad = counts != n + 1
    if not bad.any():  # then the N modes' (N, n+1) rows fit the blocks
        bad = ~table.filled[:N].all(axis=1)
    if bad.any():
        k = int(np.argmax(bad)) + 1
        raise ConfigError(
            f"{path}: mode {k} has {counts[k - 1]} rows, not t_index 0..{n} "
            f"of the configured grid (simulated with another --dt-steps?)")
    u, v, dw = table.u[:N], table.v[:N], table.dw[:N]
    has_dw = ~np.isnan(dw)
    bad = ~has_dw[:, :-1].all(axis=1) | has_dw[:, -1]
    if bad.any():
        raise ConfigError(f"{path}: mode {int(np.argmax(bad)) + 1} needs dw on t_index "
                          f"0..{n - 1} and none on t_index {n}")
    lam, mu, scale = _true_modes(spec, params, N)
    dw = dw[:, :-1]
    u *= scale[:, None]
    if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(dw).all()):
        # named here only when every cell is finite: then a u overflowed at its mode's scale
        raise ConfigError(f"{path}: a u value overflows at its mode's scale")
    return [ModeTrajectory(k, u[k - 1], v[k - 1], dw[k - 1], *mode, grid.dt)
            for k, mode in enumerate(zip(scale.tolist(), lam.tolist(), mu.tolist()), 1)]


def _first_bad_line(path):
    """The error naming the first data line of a trajectory file that does not parse or
    holds a value that is not finite, or None."""
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            if line == "\n":  # np.loadtxt skips empty lines
                continue
            try:
                k, ti, u, v, dw = line.rstrip("\n").split(",")
                int(k), int(ti)
                values = {"u": float(u), "v": float(v), "dw": float(dw) if dw else 0.0}
            except ValueError as exc:
                return ConfigError(f"{path}: line {lineno}: {exc}")
            for name, value in values.items():
                if not math.isfinite(value):
                    return ConfigError(f"{path}: line {lineno}: {name} is not finite")
    return None


def cmd_estimate(args, cfg, out):
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
    print(_write_json(path, doc), end="")
    return EXIT_OK, [path]


def _default_workers():
    """The CPUs this process may run on: its affinity mask, which os.cpu_count() ignores."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _mc_config(cfg, args):
    workers = args.workers if args.workers is not None else _default_workers()
    return ExperimentConfig(
        spec=cfg["spec"], params=cfg["params"],
        N_list=_n_list_within_spectrum(cfg, args),
        replicates=cfg["experiment"]["replicates"],
        n_steps=cfg["grid"].n_steps, seed=cfg["experiment"]["seed"],
        workers=workers,
    )


def cmd_mc(args, cfg, out):
    if args.subverb == "tables":
        rows, text = growth_tables()
        path = out / "growth_tables.csv"
        with path.open("w") as fh:
            fh.write("example,d,gamma1,gamma2,psi1_growth,psi2_growth\n")
            for r in rows:
                fh.write(",".join(str(x) for x in r) + "\n")
        print(text)
        return EXIT_OK, [path]
    mc_cfg = _mc_config(cfg, args)
    if args.subverb == "consistency":
        res = run_consistency(mc_cfg)
        path = out / "consistency_replicates.csv"
        with path.open("w") as fh:  # one line per (N, replicate)
            fh.write("N,replicate,theta1_hat,theta2_hat,err1,err2,excluded\n")
            for b in (r["batch"] for r in res["rows"]):
                for m in range(len(b.theta1_hat)):
                    fh.write(f"{b.N},{m},{b.theta1_hat[m]:.17g},{b.theta2_hat[m]:.17g},"
                             f"{b.err1[m]:.17g},{b.err2[m]:.17g},{int(b.excluded[m])}\n")
        outputs = [path, _write_summary_json(out / "consistency_summary.json", cfg, {
            "rows": [{k: v for k, v in r.items() if k != "batch"} for r in res["rows"]],
            "slope1": res["slope1"], "slope1_stderr": res["slope1_stderr"],
            "slope2": res["slope2"], "slope2_stderr": res["slope2_stderr"],
            "slope1_ci": list(res["slope1_ci"]), "slope2_ci": list(res["slope2_ci"]),
        })]
        print(f"slope1 {res['slope1']:+.3f} (se {res['slope1_stderr']:.3f}); "
              f"slope2 {res['slope2']:+.3f} (se {res['slope2_stderr']:.3f})")
    elif args.subverb == "normality":
        rep = run_normality(mc_cfg)
        path = out / "normality_errors.csv"
        with path.open("w") as fh:
            fh.write("norm_err1,norm_err2\n")
            for a, b in zip(rep.norm_err1, rep.norm_err2):
                fh.write(f"{a:.17g},{b:.17g}\n")
        outputs = [_write_summary_json(out / "normality_summary.json", cfg, {
            "N": rep.N, "ks1": rep.ks1, "ks2": rep.ks2, "critical": rep.critical,
            "corr12": rep.corr12, "corr_ci": list(rep.corr_ci),
            "verdict1": rep.verdict1, "verdict2": rep.verdict2,
            "independent": rep.independent, "n_excluded": rep.n_excluded,
            "route": rep.route, "underresolved_modes": rep.underresolved_modes,
            "identity_max_rel": rep.identity_max_rel,
        }), path]
        print(f"N={rep.N}: ks1={rep.ks1:.4f} ks2={rep.ks2:.4f} "
              f"(1% crit {rep.critical[0.01]:.4f}); corr12={rep.corr12:+.3f}; "
              f"verdicts: {rep.verdict1}, {rep.verdict2}")
    else:  # lln
        rows = verify_lln(mc_cfg)
        outputs = [_write_summary_json(out / "lln_summary.json", cfg, {"rows": rows})]
        for r in rows:
            print(f"N={r['N']}: K1/psi1 median {r['K1_over_psi1'][0]:.3f}, "
                  f"iota1 isometry {r['iota1_isometry']:.3f}")
    return EXIT_OK, outputs


def _write_summary_json(path, cfg, summary):
    """An mc summary as JSON, its keys followed by the run's seed, versions and config."""
    summary.update(seed=cfg["experiment"]["seed"], version=__version__,
                   stream_version=STREAM_VERSION, config=cfg["raw"])
    _write_json(path, summary)
    return path


def _write_json(path, doc):
    """Write doc to path as indented, strict JSON and return the text written.

    RFC 8259 has no NaN or infinity, so a non-finite float, Python's or
    numpy's, is written as null (_strict); json.dumps refuses any left over.
    """
    text = json.dumps(_strict(doc), indent=2, allow_nan=False) + "\n"
    path.write_text(text)
    return text


def _strict(obj):
    """obj with numpy scalars and arrays as Python values, and each non-finite float as None."""
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


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
    try:
        args = _parser().parse_args(argv)
        cfg, out = _resolve(args)
        started = _now()
        # built at each call, so a command rebound on this module (a tracer's wrapper) is the one run
        command = {"check": cmd_check, "psi": cmd_psi, "simulate": cmd_simulate,
                   "estimate": cmd_estimate, "mc": cmd_mc}[args.command]
        code, outputs = command(args, cfg, out)
        _manifest(out, args, cfg, outputs, started)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystemError, FundamentalOverflowError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
