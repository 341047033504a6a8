#!/usr/bin/env python3
"""Desk-scale reproduction of the three asymptotic claims.

Consistency (errors shrink as modes accumulate), asymptotic normality of the
normalized errors, and a negative control whose first parameter is provably
not estimable.  Replicate counts are kept small here; the acceptance suite
runs the full-size versions.
"""
import numpy as np

from hypermle.equations import preset
from hypermle.montecarlo import ExperimentConfig, ks_statistic, run_consistency, run_normality

spec, params = preset("alg_ex1", d=1)

print("=" * 72)
print("1. Consistency: mean |error| vs number of modes (true rates -3/2, -1/2)")
print("=" * 72)
cfg = ExperimentConfig(spec=spec, params=params, N_list=[25, 50, 100, 200],
                       replicates=80, n_steps=2048, seed=42)
res = run_consistency(cfg)
for row in res["rows"]:
    print(f"  N={row['N']:4d}: |err1| {row['mean_abs_err1']:.5f} "
          f"(ci {row['mean_abs_err1_ci'][0]:.5f}..{row['mean_abs_err1_ci'][1]:.5f})  "
          f"|err2| {row['mean_abs_err2']:.4f}")
print(f"fitted decay slopes: {res['slope1']:.3f} (theta1), {res['slope2']:.3f} (theta2)")
print(f"bootstrap slope bands: {res['slope1_ci']}, {res['slope2_ci']}")

print()
print("=" * 72)
print("2. Normality and independence of the normalized errors")
print("=" * 72)
cfg = ExperimentConfig(spec=spec, params=params, N_list=[150], replicates=150,
                       n_steps=2048, seed=43)
rep = run_normality(cfg)
print(f"  KS distances vs standard normal: {rep.ks1:.4f}, {rep.ks2:.4f} "
      f"(1% critical {rep.critical[0.01]:.4f})")
print(f"  corr(norm_err1, norm_err2) = {rep.corr12:+.3f}  "
      f"(Fisher CI {rep.corr_ci[0]:+.3f}..{rep.corr_ci[1]:+.3f})")

print()
print("=" * 72)
print("3. Negative control: lower-order unknown buried under a strong operator")
print("=" * 72)
spec5, params5 = preset("alg_ex5", d=1)
cfg = ExperimentConfig(spec=spec5, params=params5, N_list=[25, 100, 400],
                       replicates=60, n_steps=1024, seed=44)
res = run_consistency(cfg)
for row in res["rows"]:
    print(f"  N={row['N']:4d}: |err1| {row['mean_abs_err1']:8.3f}   "
          f"|err2| {row['mean_abs_err2']:.4f}")
print("theta1's normalizer stays bounded, so its error never vanishes,")
print("while theta2 keeps improving.")

from hypermle.fundamental import psi

pv = psi(spec5, params5, 400)
batch_errs = res["rows"][-1]["batch"].err1
z = np.sqrt(pv.psi1) * batch_errs[np.isfinite(batch_errs)]
D, crit = ks_statistic(z)
print(f"normalized theta1 error fails the KS normality check: D = {D:.3f} "
      f"vs 5% critical {crit[0.05]:.3f}")
