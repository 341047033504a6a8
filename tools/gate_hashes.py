"""sha256 of every output of the CLI gate set, to compare two checkouts with one diff.

    python3 tools/gate_hashes.py > hashes.txt

Runs `python -m hypermle` from this checkout's `src` in a temporary
directory, with OPENBLAS_NUM_THREADS=1: `psi` on three configs, `mc
consistency`, `lln` and `normality` at one and two workers, `simulate` then
`estimate` on three configs, `estimate` once more on alg_ex1's trajectory
file with its rows reversed (its estimate.json must hash as the in-order
one's), `check` on four and `mc tables`.  Prints one
`sha256  path` line per output file, manifests aside (they hold times and
paths), with paths relative to the temporary directory.  A command that
exits with another code than expected stops the script.  Outputs that must
not change with a refactor or an optimization should print the same lines
at the parent and at the change.  After the lines, the script exits
non-zero if an `mc` gate's output at `--workers 1` hashes differently from
the same output at `--workers 2`: results are byte-identical at any worker
count, and one worker fills its normals a chunk at a time, several a whole
path at a time.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"


def _every_n(hi):
    """--n-list 1,2,...,hi: psi at every N up to hi."""
    return ["--n-list", ",".join(str(n) for n in range(1, hi + 1))]


def _runs(tmp):
    """(output directory, expected exit code, CLI arguments before --out) of each gate, in order.

    The last gate reads the rows of paths_alg_ex1's trajectory file in reverse,
    a file (under tmp, not hashed) written once that file's gate has run.
    """
    ex1, wave, sec5 = (str(CONFIGS / f"{name}.json") for name in ("alg_ex1", "custom_wave", "sec5_exponential"))
    runs = [
        ("psi_alg_ex1", 0, ["psi", "--config", ex1, *_every_n(600)]),
        ("psi_alg_ex3", 0, ["psi", "--config", "alg_ex3.json", *_every_n(3000)]),
        ("psi_sec5", 0, ["psi", "--config", sec5, *_every_n(3000)]),
        ("check_alg_ex1", 0, ["check", "--config", ex1]),
        ("check_custom_wave", 0, ["check", "--config", wave]),
        ("check_sec5", 0, ["check", "--config", sec5]),
        ("check_antidissipative", 2, ["check", "--config", "antidissipative.json"]),
        ("mc_tables", 0, ["mc", "tables", "--config", ex1]),
    ]
    for workers in (1, 2):
        w = ["--workers", str(workers), "--seed", "4"]
        runs += [
            (f"mc_consistency_w{workers}", 0,
             ["mc", "consistency", "--config", ex1, "--n-list", "5,10,20,40", "--replicates", "48", *w]),
            (f"mc_lln_w{workers}", 0, ["mc", "lln", "--config", ex1, "--n-list", "5,10,20", "--replicates", "32", *w]),
            (f"mc_normality_w{workers}", 0,
             ["mc", "normality", "--config", sec5, "--n-list", "100", "--replicates", "32", *w]),
        ]
    for name, config, extra in (("alg_ex1", ex1, ["--n-list", "20"]), ("custom_wave", wave, ["--n-list", "20"]),
                                ("sec5", sec5, ["--n-list", "40", "--dt-steps", "256"])):
        common = ["--config", config, "--seed", "3", *extra]
        runs += [(f"paths_{name}", 0, ["simulate", *common]),
                 (f"paths_{name}", 0, ["estimate", *common, "--trajectories", f"paths_{name}/trajectories.csv"])]
    yield from runs
    header, *rows = (tmp / "paths_alg_ex1" / "trajectories.csv").read_text().splitlines(keepends=True)
    (tmp / "reversed_alg_ex1.csv").write_text(header + "".join(reversed(rows)))
    yield ("paths_alg_ex1_reversed", 0, ["estimate", "--config", ex1, "--seed", "3", "--n-list", "20",
                                         "--trajectories", "reversed_alg_ex1.csv"])


def _worker_mismatches(hashes):
    """The mc outputs at --workers 1 whose hash differs from (or lacks) the same output's at --workers 2."""
    return [name for name in hashes if name.startswith("mc_") and "_w1/" in name
            and hashes[name] != hashes.get(name.replace("_w1/", "_w2/"))]


def main():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "alg_ex3.json").write_text(json.dumps({"preset": "alg_ex3", "params": {"theta1": 1.0, "theta2": 0.5}}))
        (tmp / "antidissipative.json").write_text(json.dumps({"preset": "wave_strong_antidissipative"}))
        for out, code, args in _runs(tmp):
            res = subprocess.run([sys.executable, "-m", "hypermle", *args, "--out", out], cwd=tmp, env=env,
                                 capture_output=True, text=True)
            if res.returncode != code:
                sys.exit(f"{out}: exit {res.returncode}, expected {code}\n{res.stderr}")
        hashes = {}
        for path in sorted(tmp.rglob("*")):
            if path.is_file() and path.parent != tmp and path.name != "manifest.jsonl":
                name = path.relative_to(tmp).as_posix()
                hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{hashes[name]}  {name}")
    differ = _worker_mismatches(hashes)
    if differ:
        sys.exit("outputs that differ between --workers 1 and --workers 2: " + ", ".join(differ))


if __name__ == "__main__":
    main()
