"""One round of one benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed S --trace 0|1 --spawned T [--quick]

Set-up (imports and config loads), the timed body (calls into hypermle
through `hypermle.cli.main` and the library calls the CLI makes), then checks
of the outputs against `oracle` and against properties the method must have.
Prints one JSON line; `run.py` starts these processes and aggregates them.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
CONFIGS = ROOT / "demos" / "configs"

# False-alarm rate of each statistical check for a correct program.
ALPHA = 1e-7
# |N(0,1)| exceeds this with probability 3.8e-8 (two-sided, per value), and a
# Gaussian estimate strays this many standard deviations as often.
Z_MAX = SD_MAX = 5.5
# CV and sd of |Z| for Z ~ N(0, 1)
HALF_NORMAL_CV = math.sqrt(math.pi / 2.0 - 1.0)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_SD = math.sqrt(1.0 - 2.0 / math.pi)


class Capture:
    """Keeps the values returned through module-level names during the body."""

    def __init__(self):
        self.values = {}
        self._saved = []

    def install(self, module, attr):
        orig = getattr(module, attr)
        store = self.values.setdefault(attr, [])

        def wrapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            store.append(out)
            return out

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def close(self, name, got, want, rtol, atol=0.0):
        ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol
        self.add(name, ok, f"got {got!r} want {want!r}")

    @property
    def ok(self):
        return all(c["ok"] for c in self.items)


class Workload:
    """Inputs of one round; subclasses define body() and check()."""

    def __init__(self, hm, tmp, seed, quick):
        self.hm = hm
        self.inputs = Path(tmp) / "in"   # files the benchmark writes for the program
        self.out = Path(tmp) / "out"     # everything the program writes
        self.inputs.mkdir()
        self.seed = seed
        self.quick = quick
        self.n_steps = 256 if quick else 4096  # the grid of every config used
        self.dt_args = ["--dt-steps", "256"] if quick else []
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.capture = Capture()

    def op(self, name, fn, *args):
        """One operation; one that raises or exits non-zero counts as failed."""
        self.ops += 1
        try:
            out = fn(*args)
            bad = name == "cli" and out != 0
        except Exception as exc:
            out, bad = repr(exc), True
        if bad:
            self.failed += 1
            self.errors.append(f"{name} {args[0] if args else ''}: {out}")
        return out

    def cli(self, *argv):
        return self.op("cli", self.hm.cli.main, [str(a) for a in argv])

    def model(self, path):
        m = oracle.Model(path)
        m.n_steps = self.n_steps
        return m


class ConsistencyAlgEx1(Workload):
    def setup(self):
        self.config = CONFIGS / "alg_ex1.json"
        self.hm.cli.load_config(self.config)
        self.N_list = [2, 4, 8] if self.quick else [5, 10, 20, 40]
        self.M = 8 if self.quick else 48
        self.path_steps = sum(self.N_list) * self.M * self.n_steps
        self.psi_modes = max(self.N_list)
        self.capture.install(self.hm.montecarlo, "run_replicates")
        # per-mode statistics, raw sums with residual increments among them
        self.capture.install(self.hm.montecarlo, "_mode_task")

    def body(self):
        self.cli("mc", "consistency", "--config", self.config,
                 "--n-list", ",".join(map(str, self.N_list)),
                 "--replicates", self.M, "--workers", 1, "--seed", self.seed,
                 "--out", self.out, *self.dt_args)

    def check(self, c):
        summary = json.loads((self.out / "consistency_summary.json").read_text())
        rows = summary["rows"]
        c.add("one row per N", [r["N"] for r in rows] == self.N_list)
        model = self.model(self.config)
        psi = oracle.psi_sums(model, self.N_list)
        for r in rows:
            N = r["N"]
            c.add(f"N={N} route stats", r["route"] == "stats", r["route"])
            c.add(f"N={N} no replicate excluded", r["n_excluded"] == 0, r["n_excluded"])
            c.add(f"N={N} identity check ran", math.isfinite(r["identity_max_rel"]))
            c.close(f"N={N} psi1 vs energy integrals", r["psi1"], psi[N][0], 1e-7)
            c.close(f"N={N} psi2 vs energy integrals", r["psi2"], psi[N][1], 1e-7)
        c.add("no mode underresolved",
              all(b.underresolved_modes == 0 for b in self.capture.values["run_replicates"]))
        # The identity check of run_replicates divides by each replicate's own
        # error, which is near zero now and then; sum the same per-mode raw
        # statistics here and measure the defect against the RMS error instead.
        tasks = iter(self.capture.values["_mode_task"])
        for N in self.N_list:
            raw = [next(tasks)[1] for _ in range(N)]
            sums = {key: np.sum([m[key] for m in raw], axis=0) for key in raw[0]}
            defect = oracle.identity_defect(sums, model.theta1, model.theta2)
            c.add(f"N={N} identity defect < 1e-9 of the RMS error", defect < 1e-9, defect)

        errs = {N: ([], []) for N in self.N_list}
        with open(self.out / "consistency_replicates.csv") as fh:
            fh.readline()
            for line in fh:
                N, _, _, _, e1, e2, _ = line.split(",")
                errs[int(N)][0].append(float(e1))
                errs[int(N)][1].append(float(e2))
        c.add("M finite errors per N",
              all(len(e[0]) == self.M and all(map(math.isfinite, e[0] + e[1]))
                  for e in errs.values()))
        if self.quick:
            return
        # Mean |error| ~ psi^{-1/2}: slopes -3/2 and -1/2 in log N.  The slope's sd
        # with independent N is CV/sqrt(M Sxx); the streams the N share correlate
        # the errors by about sqrt(psi_N / psi_2N), which moves that sd by under
        # 3%.  0.1 allows for psi not yet being a pure power at N = 5.
        logN = [math.log(N) for N in self.N_list]
        mean = sum(logN) / len(logN)
        sxx = sum((x - mean) ** 2 for x in logN)
        tol = 0.1 + SD_MAX * HALF_NORMAL_CV / math.sqrt(self.M * sxx)
        for col, theory in (("slope1", -1.5), ("slope2", -0.5)):
            c.close(f"{col} near {theory}", summary[col], theory, 0.0, tol)
        # sqrt(psi_N) * error ~ N(0, 1): mean |z| over all N near sqrt(2/pi).  The
        # replicates are independent; a replicate's mean over N has a variance of
        # at most var|Z|, whatever the correlation between N.
        n_z = self.M * len(self.N_list)
        for j in (0, 1):
            z = [math.sqrt(psi[N][j]) * abs(e) for N in self.N_list for e in errs[N][j]]
            c.close(f"mean |z{j + 1}| near sqrt(2/pi)", sum(z) / n_z, HALF_NORMAL_MEAN,
                    0.0, SD_MAX * HALF_NORMAL_SD / math.sqrt(self.M))


class NormalitySec5(Workload):
    def setup(self):
        self.config = CONFIGS / "sec5_exponential.json"
        self.hm.cli.load_config(self.config)
        self.N = 20 if self.quick else 100
        self.M = 30 if self.quick else 32
        self.workers = len(os.sched_getaffinity(0))
        self.path_steps = self.N * self.M * self.n_steps
        self.psi_modes = self.N
        self.capture.install(self.hm.montecarlo, "run_replicates")

    def body(self):
        self.cli("mc", "normality", "--config", self.config, "--n-list", self.N,
                 "--replicates", self.M, "--workers", self.workers,
                 "--seed", self.seed, "--out", self.out, *self.dt_args)

    def check(self, c):
        summary = json.loads((self.out / "normality_summary.json").read_text())
        model = self.model(self.config)
        c.add("route decomposition", summary["route"] == "decomposition", summary["route"])
        c.add("no replicate excluded", summary["n_excluded"] == 0, summary["n_excluded"])
        (batch,) = self.capture.values["run_replicates"]
        want = oracle.underresolved(model, self.N)
        c.add(f"underresolved modes = {want}", batch.underresolved_modes == want,
              batch.underresolved_modes)
        c.add("some mode underresolved", want > 0)
        psi1, psi2, _ = oracle.psi_sums(model, [self.N])[self.N]
        thr = oracle.dkw_threshold(self.M, ALPHA)
        for j, (err, p) in enumerate(((batch.err1, psi1), (batch.err2, psi2)), 1):
            z = [math.sqrt(p) * e for e in err]
            c.add(f"z{j} finite", len(z) == self.M and all(map(math.isfinite, z)))
            d = oracle.ks_distance(z)
            c.add(f"KS z{j} < {thr:.3f}", d < thr, d)
            c.close(f"reported ks{j}", summary[f"ks{j}"], d, 1e-6, 1e-12)


def _read_psi_csv(path):
    rows = {}
    with open(path) as fh:
        fh.readline()
        for line in fh:
            N, p1, p2, p12, _, _ = line.split(",")
            rows[int(N)] = (float(p1), float(p2), float(p12))
    return rows


class PsiTable(Workload):
    # (preset, largest N, largest mode sampled: the float oracle overflows past k = 354 on sec5)
    SPECTRA = (("alg_ex1", 600, 600), ("alg_ex3", 3000, 3000), ("sec5_example", 3000, 300))
    SIM_N = 2

    def setup(self):
        rng = random.Random(self.seed)
        alg_ex3 = self.inputs / "alg_ex3.json"
        alg_ex3.write_text(json.dumps({
            "preset": "alg_ex3", "dimension": 1,
            "params": {"theta1": 1.0, "theta2": 0.5, "T": 1.0},
            "grid": {"n_steps": 4096}}))
        paths = {"alg_ex1": CONFIGS / "alg_ex1.json", "alg_ex3": alg_ex3,
                 "sec5_example": CONFIGS / "sec5_exponential.json"}
        self.runs = []
        for name, n_max, k_max in self.SPECTRA:
            if self.quick:
                n_max, k_max = n_max // 20, min(k_max, n_max // 20)
            sampled = sorted(rng.sample(range(2, k_max + 1), 4))
            n_list = sorted({n_max // 2, n_max} | set(sampled) | {k - 1 for k in sampled})
            cfg = self.hm.cli.load_config(paths[name])
            self.runs.append((name, paths[name], n_list, sampled, cfg))
        self.sim = self.runs[0][4]
        self.psi_modes = sum(max(r[2]) for r in self.runs)
        self.path_steps = self.SIM_N * self.sim["grid"].n_steps

    def body(self):
        for name, path, n_list, _, _ in self.runs:
            self.cli("psi", "--config", path, "--n-list", ",".join(map(str, n_list)),
                     "--out", self.out / name)
        # the one simulation of this workload: a few paths of alg_ex1
        self.trajs = self.op("simulate_solution", self.hm.simulate.simulate_solution,
                             self.sim["spec"], self.sim["params"], self.SIM_N,
                             self.sim["grid"], self.seed)

    def check(self, c):
        for name, path, n_list, sampled, _ in self.runs:
            rows = _read_psi_csv(self.out / name / "psi.csv")
            c.add(f"{name} one row per N", sorted(rows) == n_list)
            vals = [rows[N] for N in n_list]
            c.add(f"{name} psi1, psi2 increase with N",
                  all(b[j] > a[j] for a, b in zip(vals, vals[1:]) for j in (0, 1)))
            model = self.model(path)
            sums = oracle.psi_sums(model, sampled)
            for k in sampled:
                term = oracle.psi_terms(model, k)
                for j, col in enumerate(("psi1", "psi2", "psi12")):
                    c.close(f"{name} {col}({k})", rows[k][j], sums[k][j], 1e-7)
                    # a term below 1e-6 of the sum is lost in the CSV's difference
                    if abs(term[j]) >= 1e-6 * abs(sums[k][j]):
                        c.close(f"{name} {col} term k={k}", rows[k][j] - rows[k - 1][j],
                                term[j], 1e-7)
            if name == "alg_ex1" and not self.quick:
                n_max = n_list[-1]
                for j, col, theory in ((0, "psi1", 3.0), (1, "psi2", 1.0)):
                    slope = math.log(rows[n_max][j] / rows[n_max // 2][j]) / math.log(
                        n_max / (n_max // 2))
                    c.close(f"alg_ex1 {col} ~ N^{theory:g}", slope, theory, 0.0, 0.05)
        n = self.sim["grid"].n_steps
        dw2 = [x * x for t in self.trajs for x in t.dw]
        c.add("simulated paths start at 0 and are finite",
              len(self.trajs) == self.SIM_N
              and all(t.u[0] == 0.0 and t.v[0] == 0.0 and len(t.dw) == n
                      and all(map(math.isfinite, t.u)) for t in self.trajs))
        c.close("E dw^2 = dt", sum(dw2) / len(dw2) / self.sim["grid"].dt, 1.0, 0.0,
                SD_MAX * math.sqrt(2.0 / len(dw2)))


class PathsRoundtrip(Workload):
    def setup(self):
        self.config = CONFIGS / "alg_ex1.json"
        self.cfg = self.hm.cli.load_config(self.config)
        self.N = 5 if self.quick else 40
        self.path_steps = self.N * self.n_steps
        self.psi_modes = self.N
        self.capture.install(self.hm.cli, "simulate_solution")

    def body(self):
        common = ("--config", self.config, "--n-list", self.N, "--seed", self.seed,
                  "--out", self.out, *self.dt_args)
        self.cli("simulate", *common)
        self.cli("estimate", *common, "--trajectories", self.out / "trajectories.csv")

    def check(self, c):
        est = json.loads((self.out / "estimate.json").read_text())
        hm = self.hm
        spec, params = self.cfg["spec"], self.cfg["params"]
        (trajs,) = self.capture.values["simulate_solution"]
        inproc = hm.estimate.estimate_from_trajectories(trajs, spec)
        c.add("round trip = in-process estimate, bit for bit",
              (est["theta1_hat"], est["theta2_hat"]) == (inproc.theta1_hat, inproc.theta2_hat),
              f"{est['theta1_hat']!r} {inproc.theta1_hat!r}")

        model = self.model(self.config)
        psi1, psi2, _ = oracle.psi_sums(model, [self.N])[self.N]
        c.close("psi1 vs energy integrals", est["psi1"], psi1, 1e-7)
        c.close("psi2 vs energy integrals", est["psi2"], psi2, 1e-7)
        paths = oracle.read_paths(self.out / "trajectories.csv")
        c.add("CSV holds modes 1..N", sorted(paths) == list(range(1, self.N + 1)))
        mine = oracle.path_statistics(model, paths, endpoint=True)
        th1, th2 = oracle.solve(mine)
        c.close("theta1_hat vs own statistics", est["theta1_hat"], th1, 1e-9, 1e-12)
        c.close("theta2_hat vs own statistics", est["theta2_hat"], th2, 1e-9, 1e-12)
        for key in ("A1", "A2", "K1", "K2", "K12"):
            c.close(f"{key} vs own statistics", est["stats"][key], mine[key], 1e-9)
        # iota_j has sd sqrt(psi_j) and the error of theta_j sd 1/sqrt(psi_j); these
        # scales, not the values themselves, which can be near zero, set the atol
        raw = oracle.path_statistics(model, paths, endpoint=False)
        c.close("iota1 vs own Ito sums", est["iota1"], raw["iota1"], 1e-9, 1e-9 * psi1 ** 0.5)
        c.close("iota2 vs own Ito sums", est["iota2"], raw["iota2"], 1e-9, 1e-9 * psi2 ** 0.5)

        # with residual increments the decomposition reproduces mle - theta exactly
        res = oracle.path_statistics(model, paths, endpoint=False, increments="residual")
        r1, r2 = oracle.solve(res)
        e1, e2 = oracle.decomposition(res)
        c.close("own identity, theta1", e1, r1 - model.theta1, 0.0, 1e-9 / psi1 ** 0.5)
        c.close("own identity, theta2", e2, r2 - model.theta2, 0.0, 1e-9 / psi2 ** 0.5)
        dec = hm.estimate.error_decomposition(trajs, spec, params, increments="residual")
        p1, p2 = hm.estimate.mle(dec.stats)
        c.close("error_decomposition identity, theta1", dec.reconstructed[0],
                p1 - params.theta1, 0.0, 1e-9 / psi1 ** 0.5)
        c.close("error_decomposition identity, theta2", dec.reconstructed[1],
                p2 - params.theta2, 0.0, 1e-9 / psi2 ** 0.5)
        for key in ("norm_err1", "norm_err2"):
            c.add(f"|{key}| < {Z_MAX}", abs(est[key]) < Z_MAX, est[key])


WORKLOADS = {
    "consistency_alg_ex1": ConsistencyAlgEx1,
    "normality_sec5": NormalitySec5,
    "psi_table": PsiTable,
    "paths_roundtrip": PathsRoundtrip,
}


class Program:
    """The hypermle modules, imported from this checkout's src/."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import hypermle
        from hypermle import cli, estimate, fundamental, montecarlo, simulate, spectrum

        if Path(hypermle.__file__).resolve().parent != src / "hypermle":
            raise SystemExit(f"hypermle imported from {hypermle.__file__}, not {src}")
        self.modules = {"cli": cli, "estimate": estimate, "fundamental": fundamental,
                        "montecarlo": montecarlo, "simulate": simulate, "spectrum": spectrum}
        self.__dict__.update(self.modules)


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report its time alone")
    args = ap.parse_args(argv)

    hm = Program()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        wl = WORKLOADS[args.workload](hm, tmp, args.seed, args.quick)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(hm.modules)
        wl.setup()
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            wl.body()
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.capture.uninstall()
        if tracer:
            tracer.uninstall()

        checks = Checks()
        if wl.failed == 0:
            try:
                wl.check(checks)
            except Exception as exc:  # a missing or malformed output fails the round
                checks.add("outputs readable", False, repr(exc))
        result = {
            "ops": wl.ops, "failed": wl.failed, "errors": wl.errors,
            "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "path_steps": wl.path_steps, "psi_modes": wl.psi_modes,
        }
        if tracer:
            layers = result["layers"] = layer_metrics(tracer, _dir_bytes(wl.out))
            checks.add("traced path steps = the inputs' path steps",
                       layers["simulate.path_steps"] == wl.path_steps)
            checks.add("traced psi modes = the inputs' psi modes",
                       layers["fundamental.psi_modes"] == wl.psi_modes)
            trace_dir = OUT / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-{args.seed}.jsonl")
        result["ok"] = checks.ok
        result["checks"] = checks.items
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
