"""The hypermle benchmark: run one workload for a given time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Runs whole rounds of the workload, each in a fresh process (perfbench/workload.py),
until the next round would end past --seconds.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("consistency_alg_ex1", "normality_sec5", "psi_table", "paths_roundtrip")
LIMIT_S = 170.0  # a run must end within 180 s
SETUPS = 7  # set-ups timed per run; processes that stop after set-up make up the rest

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "path_steps_per_s": ("1/s", "higher"),
    "psi_modes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _round(workload, seed, traced, quick, deadline, setup_only=False):
    env = dict(os.environ)
    # The program's matrices are at most 3x3 or one quadrature panel row, so
    # BLAS threads gain nothing; one per process keeps workers x BLAS <= nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--spawned", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} round did not end in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and the fewest rounds, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypermle" / "cli.py").is_file():
        sys.exit(f"perfbench: no hypermle source under {ROOT / 'src'}")

    start = time.monotonic()
    deadline = start + LIMIT_S
    # a traced run alternates untraced and traced rounds to measure its overhead
    min_rounds = 2 if args.trace else 1
    rounds = []
    while True:
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        t0 = time.monotonic()
        res = _round(args.workload, args.seed * 1000 + r, traced, args.quick, deadline)
        res["traced"] = traced
        rounds.append(res)
        took = time.monotonic() - t0
        failed_checks = [c for c in res["checks"] if not c["ok"]]
        print(f"round {r}{' traced' if traced else ''}: wall {res['wall_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s, {res['ops']} ops, {res['failed']} failed, "
              f"{len(res['checks']) - len(failed_checks)}/{len(res['checks'])} checks")
        for c in failed_checks:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}", file=sys.stderr)
        for e in res["errors"]:
            print(f"  OPERATION FAILED {e}", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and (args.quick or elapsed + 0.5 * took >= args.seconds):
            break

    plain = [r for r in rounds if not r["traced"]]
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < SETUPS:
        setups.append(_round(args.workload, args.seed * 1000 + len(setups), False,
                             args.quick, deadline, setup_only=True)["setup_s"])
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit}
                   for name, (unit, _) in LAYERS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain),
            "unit": "s"}
    else:
        per_round = {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in plain],
            "path_steps_per_s": [r["path_steps"] / r["wall_s"] for r in plain],
            "psi_modes_per_s": [r["psi_modes"] / r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {name: {"value": statistics.median(per_round[name]), "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": all(r["ok"] for r in rounds),
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
