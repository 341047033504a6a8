"""Monte Carlo experiment harness: consistency curves, normality tests, LLN checks.

The engine simulates mode-major and replicate-vectorized: the exact one-step
transition of mode k is built once and all replicates advance through it
together.  The estimator needs a mode's paths only through their running
sums, so the paths are made and reduced _CHUNK steps at a time, while they
are in cache, and never held whole.  The Brownian increments enter only
through sum u dw and sum v dw, so each step draws just the two normals of
its state noise, and the part of those two sums that the path leaves free
is sampled exactly given the path, from two normals per replicate
(_mode_task).  The per-replicate statistic contributions are reduced in
fixed mode order.  Every replicate's noise comes from a counter-based
stream keyed by (seed, replicate, mode), so results are byte-identical for
a given seed regardless of scheduling.

Estimator errors are reported through one of two equivalent routes:

* "stats": solve the normal equations (the estimator formula itself);
* "decomposition": the exact error identity in terms of the Ito integrals
  iota and the information statistics K.

Both agree to discretization accuracy when the grid resolves every mode.
When it does not (exponential spectra), the raw statistics amplify grid
noise by the unbounded weights tau_k and the "stats" route degrades, while
the decomposition route stays well conditioned; the harness then switches
and records that it did.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimate import (_ENDPOINT_KEYS, _coeff_rows, _decomposition_errors, _mode_coeffs,
                       _mode_contrib, _mode_order_sum, _mode_sums, _nonsingular, _solve_normal)
from .fundamental import psi_curve
from .simulate import (_CHUNK, TimeGrid, _chain_operators, _psd_factor, _run_chain,
                       _scaled_transition, _true_modes, _underresolved, mode_stream)
from .spectrum import _line_fit, lambda_mu_slog  # perfbench/tracing.py wraps lambda_mu_slog; nothing here calls it

__all__ = [
    "ExperimentConfig",
    "NormalityReport",
    "run_replicates",
    "run_consistency",
    "run_normality",
    "verify_lln",
    "fit_growth",
    "ks_statistic",
]

_SIGNIFICANCE = 0.01           # level of run_normality's KS verdicts (a key of _KS_C)
_N_BOOT = 1000                 # bootstrap resamples per interval
_CI_PERCENTILES = (2.5, 97.5)  # bounds of each bootstrap interval
_LOG_FLAG_SLOPE = 0.2          # fit_growth: a power slope below this may be log N growth


@dataclass
class ExperimentConfig:
    spec: object
    params: object
    N_list: list
    replicates: int
    n_steps: int
    seed: int
    workers: int = 1
    grid: TimeGrid = field(init=False)  # over params.T, the horizon psi is taken to as well

    def __post_init__(self):
        ns = list(self.N_list)
        if ns != sorted(ns) or len(set(ns)) != len(ns) or min(ns) < 1:
            raise ValueError("N_list must be strictly increasing positive integers")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        self.grid = TimeGrid(self.params.T, self.n_steps)


@dataclass
class BatchResult:
    """Per-replicate outcomes of one (N, M) run."""

    N: int
    theta1_hat: np.ndarray
    theta2_hat: np.ndarray
    err1: np.ndarray
    err2: np.ndarray
    iota1: np.ndarray
    iota2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    K12: np.ndarray
    D_N: np.ndarray
    excluded: np.ndarray            # boolean: singular-system replicates
    route: str
    underresolved_modes: int
    identity_max_rel: float         # worst |reconstructed - direct| / RMS(direct)


def _mode_task(k, mode, grid, seed, M, residual):
    """Everything mode k contributes, independent of all other modes.

    mode is (lam, mu, P, S, scale, coeffs): the mode, its propagator and
    scale from _scaled_transition, its noise factor from _psd_factor and its
    row of the run's _mode_coeffs table, all made in the run's array pass, so
    the task only draws, scans and reduces.

    The M replicate streams are made first, and then each gives its 2n path
    normals and two more, eta, in one fill of its row of the draw buffer.
    The chain runs through the buffer _CHUNK steps at a time, each chunk
    starting from the state the previous one ended in, and _mode_sums
    reduces each chunk's paths while they are in cache.  The running sums
    add up over the chunks; the endpoint products come from the last one.
    dw's free part sigma eta_i (see _psd_factor) enters only the sums over
    u_i and v_i, and given the path (sum u_i eta_i, sum v_i eta_i) is N(0, G)
    with G the Gram matrix of (u_0, v_0); so sigma L_G eta, L_G the Cholesky
    factor of G, completes the dw sums exactly in law.  Returns the endpoint
    contributions and, with residual, the raw ones with residual increments.
    """
    lam, mu, P, S, scale, coeffs = mode
    n, dt = grid.n_steps, grid.dt

    # The fills run without the interpreter lock; with every stream made first,
    # they come in one long stretch that other worker threads can overlap.
    streams = [mode_stream(seed, m, k) for m in range(M)]
    draws = np.empty((M, 2 * n + 2))  # each replicate's normals are contiguous
    for stream, row in zip(streams, draws):
        stream.standard_normal(out=row)
    xi = draws[:, :2 * n].reshape(M, n, 2).transpose(1, 2, 0)
    eta = draws[:, 2 * n:]

    # Made after the draw buffer, not before it: the other order left the heap
    # 0.7 MiB larger at the peak of a 48-replicate consistency run.
    ops = _chain_operators(P, S, n)
    x = np.zeros((2, M))
    sums = None
    for t0 in range(0, n, _CHUNK):
        u, v, dwp = _run_chain(ops, x, xi[t0:t0 + _CHUNK])
        part = _mode_sums(u, v, dwp, dt, lam / scale, mu, residual=residual)
        if sums is not None:
            for key in part.keys() - _ENDPOINT_KEYS:
                part[key] += sums[key]
        sums = part
        x = np.stack((u[-1], v[-1]))
        del u, v, dwp  # this chunk's paths go before the next chunk's are made

    # L_G = [[l11, 0], [l21, l22]]; G11 = 0 (a path still at rest) gives l11 = l21 = 0
    g11, g12, g22 = sums["su2s"] / dt, sums["suvs"] / dt, sums["sv2"] / dt
    l11 = np.sqrt(g11)
    l21 = np.divide(g12, l11, out=np.zeros(M), where=l11 > 0.0)
    l22 = np.sqrt(np.maximum(g22 - l21 * l21, 0.0))
    sums["sudws"] += S[2, 2] * (l11 * eta[:, 0])
    sums["svdw"] += S[2, 2] * (l21 * eta[:, 0] + l22 * eta[:, 1])

    sums["T"] = grid.T
    contrib = _mode_contrib(coeffs, sums, endpoint=True)
    contrib_raw = _mode_contrib(coeffs, sums, endpoint=False, residual=True) if residual else None
    return contrib, contrib_raw


def _solve_batch(vals):
    """Per-replicate normal-equation solutions and decomposition errors from summed statistics.

    Returns (th1, th2, dec1, dec2, D, excluded); replicates whose information
    matrix is singular or nearly so are excluded and get NaN estimates.
    """
    K1, K2, K12 = vals["K1"], vals["K2"], vals["K12"]
    th1, th2, gap = _solve_normal(vals)
    excluded = ~_nonsingular(K1, K2, gap)
    th1[excluded] = np.nan
    th2[excluded] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        dec1, dec2, D = _decomposition_errors(K1, K2, K12, vals["iota1"], vals["iota2"])
    return th1, th2, dec1, dec2, D, excluded


def _identity_defect(raw, params):
    """Worst |decomposition - (mle - theta)| over the batch, in units of the RMS error.

    With raw sums and residual increments the identity is exact up to
    rounding.  The RMS error, not each replicate's own error (near zero now
    and then), sets the scale.
    """
    th1, th2, dec1, dec2, _, excluded = _solve_batch(raw)
    ok = ~excluded
    if not np.any(ok):
        return math.nan
    worst = 0.0
    for th, dec, theta in ((th1, dec1, params.theta1), (th2, dec2, params.theta2)):
        err = th[ok] - theta
        worst = max(worst, float(np.max(np.abs(dec[ok] - err)) / np.sqrt(np.mean(err * err))))
    return worst


def run_replicates(spec, params, N, grid, seed, M, workers=1):
    """Simulate M replicates of modes 1..N and reduce them to estimator outcomes.

    Modes are independent work items, computed on a pool of `workers` threads
    and always reduced in increasing-k order, so the result is byte-identical
    for any worker count.

    When the grid resolves every mode (route "stats") the identity check runs:
    identity_max_rel is the worst defect over the RMS error, else NaN.
    """
    if N < 1 or N > spec.k_max:
        raise ValueError(f"N must lie in [1, {spec.k_max}]")
    lam, mu, _ = _true_modes(spec, params, N)
    P, Q, scale = _scaled_transition(lam, mu, grid.dt)
    S, _ = _psd_factor(Q)
    coeffs = _coeff_rows(_mode_coeffs(spec, np.arange(1, N + 1), scale))
    modes = list(zip(lam.tolist(), mu.tolist(), P, S, scale.tolist(), coeffs))
    underresolved = int(np.count_nonzero(_underresolved(lam, mu, grid.dt)))
    resolved = underresolved == 0

    def task(k):
        return _mode_task(k, modes[k - 1], grid, seed, M, resolved)

    from concurrent.futures import ThreadPoolExecutor  # at module level it slows every CLI start

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(task, range(1, N + 1)))

    def summed(part):  # part 0: endpoint contributions, 1: raw ones
        return {key: np.atleast_1d(total)
                for key, total in _mode_order_sum(r[part] for r in results).items()}

    vals = summed(0)
    th1, th2, dec1, dec2, D, excluded = _solve_batch(vals)

    route = "stats" if resolved else "decomposition"
    if route == "stats":
        err1 = th1 - params.theta1
        err2 = th2 - params.theta2
    else:
        err1, err2 = dec1.copy(), dec2.copy()
        err1[excluded] = np.nan
        err2[excluded] = np.nan
        th1 = params.theta1 + err1
        th2 = params.theta2 + err2

    identity_max_rel = _identity_defect(summed(1), params) if resolved else math.nan

    return BatchResult(
        N=N, theta1_hat=th1, theta2_hat=th2, err1=err1, err2=err2,
        iota1=vals["iota1"], iota2=vals["iota2"], K1=vals["K1"], K2=vals["K2"], K12=vals["K12"],
        D_N=D, excluded=excluded, route=route,
        underresolved_modes=underresolved, identity_max_rel=identity_max_rel,
    )


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------

_KS_C = {0.01: 1.628, 0.05: 1.358, 0.10: 1.224}


def _std_normal_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def ks_statistic(samples):
    """Sup distance of the empirical law to the standard normal, with critical values."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m < 30:
        raise ValueError("need at least 30 samples for a KS verdict")
    cdf = _std_normal_cdf(x)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - cdf)
    d_minus = np.max(cdf - (i - 1) / m)
    D = float(max(d_plus, d_minus))
    crit = {alpha: c / math.sqrt(m) for alpha, c in _KS_C.items()}
    return D, crit


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _bootstrap_mean_ci(x, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xB00], dtype=np.uint64)))
    idx = rng.integers(0, len(x), size=(_N_BOOT, len(x)))
    means = np.mean(np.asarray(x)[idx], axis=1)
    return tuple(np.percentile(means, _CI_PERCENTILES))


def _bootstrap_slopes(err_lists, N_list, seed):
    """Resample replicates within each N, refit the decay slope each time.

    The resamples are drawn one after another, each drawing its indices for
    every N in turn; then each N's means are one fancy-index mean, and the
    slopes one least-squares fit with a right-hand side per resample.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x510], dtype=np.uint64)))
    idx = [np.empty((_N_BOOT, len(errs)), dtype=np.int64) for errs in err_lists]
    for b in range(_N_BOOT):
        for errs, rows in zip(err_lists, idx):
            rows[b] = rng.integers(0, len(errs), size=len(errs))
    log_means = np.log([np.mean(errs[rows], axis=1) for errs, rows in zip(err_lists, idx)])
    slopes = _line_fit(np.log(np.asarray(N_list, dtype=float)), log_means)[0][0]
    return tuple(float(p) for p in np.percentile(slopes, _CI_PERCENTILES))


def _fit_slope(logx, logy):
    coef, yhat = _line_fit(logx, logy)
    dof = max(len(logx) - 2, 1)
    s2 = float(np.sum((logy - yhat) ** 2)) / dof
    sxx = float(np.sum((logx - logx.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    return float(coef[0]), stderr


def _batches(config, N_list):
    """(N, psi values, batch, kept mask) per N of N_list, from one psi_curve call for them all."""
    psis = psi_curve(config.spec, config.params, N_list)
    for N, pv in zip(N_list, psis):
        batch = run_replicates(config.spec, config.params, N, config.grid, config.seed,
                               config.replicates, workers=config.workers)
        yield N, pv, batch, ~batch.excluded


def run_consistency(config):
    """Mean absolute errors per N, with 95% bands from 1000 bootstrap resamples, and decay slopes.

    The identity check runs at each N whose grid resolves modes 1..N.
    """
    rows = []
    err1_lists, err2_lists = [], []
    for N, pv, batch, ok in _batches(config, config.N_list):
        ae1 = np.abs(batch.err1[ok])
        ae2 = np.abs(batch.err2[ok])
        err1_lists.append(ae1)
        err2_lists.append(ae2)
        rows.append({
            "N": N,
            "mean_abs_err1": float(np.mean(ae1)),
            "mean_abs_err2": float(np.mean(ae2)),
            "se1": float(np.std(ae1, ddof=1) / math.sqrt(len(ae1))),
            "se2": float(np.std(ae2, ddof=1) / math.sqrt(len(ae2))),
            "mean_abs_err1_ci": _bootstrap_mean_ci(ae1, config.seed + N),
            "mean_abs_err2_ci": _bootstrap_mean_ci(ae2, config.seed + N + 1),
            "n_excluded": int(np.count_nonzero(batch.excluded)),
            "route": batch.route,
            "underresolved_modes": batch.underresolved_modes,
            "identity_max_rel": batch.identity_max_rel,
            "psi1": pv.psi1,
            "psi2": pv.psi2,
            "batch": batch,
        })
    logN = np.log([r["N"] for r in rows])
    slope1, se_s1 = _fit_slope(logN, np.log([r["mean_abs_err1"] for r in rows]))
    slope2, se_s2 = _fit_slope(logN, np.log([r["mean_abs_err2"] for r in rows]))
    return {
        "rows": rows,
        "slope1": slope1, "slope1_stderr": se_s1,
        "slope2": slope2, "slope2_stderr": se_s2,
        "slope1_ci": _bootstrap_slopes(err1_lists, config.N_list, config.seed),
        "slope2_ci": _bootstrap_slopes(err2_lists, config.N_list, config.seed + 7),
    }


@dataclass
class NormalityReport:
    N: int
    norm_err1: np.ndarray
    norm_err2: np.ndarray
    ks1: float
    ks2: float
    critical: dict
    corr12: float
    corr_ci: tuple
    verdict1: bool
    verdict2: bool
    independent: bool
    n_excluded: int
    route: str
    underresolved_modes: int
    identity_max_rel: float = math.nan


def run_normality(config):
    """Normalized-error normality and independence at the largest N in N_list.

    KS verdicts at the 1% level; the identity check runs if modes 1..N are resolved.
    """
    if config.replicates < 30:
        raise ValueError("normality verdicts need at least 30 replicates")
    ((N, pv, batch, ok),) = _batches(config, [max(config.N_list)])
    z1 = math.sqrt(pv.psi1) * batch.err1[ok]
    z2 = math.sqrt(pv.psi2) * batch.err2[ok]
    ks1, crit = ks_statistic(z1)
    ks2, _ = ks_statistic(z2)
    corr = float(np.corrcoef(z1, z2)[0, 1])
    m = len(z1)
    zf = 0.5 * math.log((1 + corr) / (1 - corr))
    half = 1.959964 / math.sqrt(m - 3)
    ci = (math.tanh(zf - half), math.tanh(zf + half))
    thr = crit[_SIGNIFICANCE]
    excluded = int(np.count_nonzero(batch.excluded))
    frac_ok = excluded <= 0.01 * config.replicates
    return NormalityReport(
        N=N, norm_err1=z1, norm_err2=z2, ks1=ks1, ks2=ks2, critical=crit,
        corr12=corr, corr_ci=ci,
        verdict1=bool(ks1 < thr and frac_ok),
        verdict2=bool(ks2 < thr and frac_ok),
        independent=bool(abs(corr) < 0.15),
        n_excluded=excluded, route=batch.route,
        underresolved_modes=batch.underresolved_modes,
        identity_max_rel=batch.identity_max_rel,
    )


def verify_lln(config):
    """Empirical K/Psi ratios and the Ito isometry ratio across N_list."""
    out = []
    for N, pv, batch, ok in _batches(config, config.N_list):
        r1 = batch.K1[ok] / pv.psi1
        r2 = batch.K2[ok] / pv.psi2
        r12 = batch.K12[ok] / pv.psi12 if pv.psi12 != 0.0 else np.full(np.count_nonzero(ok), np.nan)
        out.append({
            "N": N,
            "K1_over_psi1": (float(np.median(r1)), float(np.percentile(r1, 5)), float(np.percentile(r1, 95))),
            "K2_over_psi2": (float(np.median(r2)), float(np.percentile(r2, 5)), float(np.percentile(r2, 95))),
            "K12_over_psi12": (float(np.nanmedian(r12)), float(np.nanpercentile(r12, 5)), float(np.nanpercentile(r12, 95))),
            "iota1_isometry": float(np.mean(batch.iota1[ok] ** 2) / pv.psi1),
            "iota2_isometry": float(np.mean(batch.iota2[ok] ** 2) / pv.psi2),
            "D_N_median": float(np.median(batch.D_N[ok])),
            "underresolved_modes": batch.underresolved_modes,
        })
    return out


def fit_growth(psi_table, columns=("psi1", "psi2")):
    """Log-log growth slopes of normalizer columns over the upper half of N_list.

    A column is flagged "logarithmic" when its power slope is below 0.2
    (_LOG_FLAG_SLOPE) while the values keep increasing and scale linearly in
    log log N (the signature of Upsilon_N(-1) growth at desk ranges).
    """
    if len(psi_table) < 4:
        raise ValueError("need at least 4 psi rows to fit growth")
    Ns = np.array([p.N for p in psi_table], dtype=float)
    half = len(Ns) // 2
    out = {}
    for name in columns:
        v = np.array([getattr(p, name) for p in psi_table], dtype=float)
        slope, stderr = _fit_slope(np.log(Ns[half:]), np.log(v[half:]))
        increasing = bool(np.all(np.diff(v) > 0.0))
        llslope, _ = _fit_slope(np.log(np.log(Ns[half:])), np.log(v[half:]))
        log_flag = bool(slope < _LOG_FLAG_SLOPE and increasing and 0.5 <= llslope <= 2.0)
        out[name] = {"slope": slope, "stderr": stderr, "log_flag": log_flag,
                     "loglog_slope": llslope}
    return out
