"""Sufficient statistics, the closed-form two-parameter estimator, and its error decomposition.

The normal equations solved here are

    F1 + L1 + K1*th1 + K12*th2 = A1
    F2 + L2 + K12*th1 + K2*th2 = A2

with the nine path statistics accumulated over modes k = 1..N.  Signs follow
the expansion of A1, A2 under the mode dynamics (F1 enters with the kappa*tau
u^2 integral positively; see the tests for the exact algebraic round trip).

Two computational variants exist for the time integrals:

* endpoint identities (default): quantities of the form int u v dt collapse
  to u(T)^2/2 exactly, int u dv to u(T)v(T) - int v^2 dt, and int v dv to
  (v(T)^2 - T)/2.  These are exact pathwise identities of the continuous
  model; using them removes the worst discretization error and keeps stiff
  high-frequency modes honest.
* raw left-endpoint Riemann/Ito sums: needed when the error-decomposition
  identity is checked, because that identity is exact only when every sum
  shares the same left endpoints.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .simulate import UnderresolvedModeWarning, _underresolved

__all__ = [
    "Stats",
    "EstimateResult",
    "ErrorDecomposition",
    "SingularSystemError",
    "sufficient_statistics",
    "mle",
    "error_decomposition",
    "estimate_from_trajectories",
]

# the nine statistics of the normal equations (Stats' fields, in order), then iota
_STAT_KEYS = ("A1", "A2", "F1", "F2", "K1", "K2", "K12", "L1", "L2", "iota1", "iota2")
# the keys of _mode_sums taken at the end of the path; all others are sums over the steps
_ENDPOINT_KEYS = {"uTs2", "uvTs", "vT2"}
# the information matrix counts as singular unless 1 - D_N exceeds this
_MIN_GAP = 1e-12


class SingularSystemError(RuntimeError):
    """The 2x2 information matrix is singular or nearly so."""

    def __init__(self, message, conditioning=None):
        super().__init__(message)
        self.conditioning = conditioning


@dataclass
class Stats:
    A1: float
    A2: float
    F1: float
    F2: float
    K1: float
    K2: float
    K12: float
    L1: float
    L2: float
    N: int
    endpoint_variant: bool


@dataclass
class EstimateResult:
    theta1_hat: float
    theta2_hat: float
    psi1: float = math.nan
    psi2: float = math.nan
    psi_at_truth: bool = False
    norm_err1: float = math.nan
    norm_err2: float = math.nan
    D_N: float = math.nan
    iota1: float = math.nan
    iota2: float = math.nan
    underresolved_modes: int = 0
    stats: Stats | None = None


def _dot(a, b):
    """Sum over axis 0 of a * b, as one batched dot product; a, b are (n,) or (n, M).

    Each path's dot product is one BLAS call on its contiguous steps, with
    no product array and no copy.
    """
    return np.matmul(a.T[..., None, :], b.T[..., :, None])[..., 0, 0]


def _mode_sums(u_scaled, v, dw, dt, lam_over_s, mu, residual=False):
    """Per-path reductions with time along axis 0; inputs may be (n+1,) or (n+1, M).

    Only the sums the contributions read are formed.  With residual, these
    include the left-endpoint sums against dv that the raw contributions
    read, and the sums against the residual increments
    dwhat = dv + (lam_over_s * u0 - mu * v0) * dt follow from the other sums
    by that identity, without forming dwhat.
    """
    u0 = u_scaled[:-1]
    v0 = v[:-1]
    out = {
        "su2s": _dot(u0, u0) * dt,
        "sv2": _dot(v0, v0) * dt,
        "suvs": _dot(u0, v0) * dt,
        "sudws": _dot(u0, dw),
        "svdw": _dot(v0, dw),
        "uTs2": u_scaled[-1] * u_scaled[-1],
        "uvTs": u_scaled[-1] * v[-1],
        "vT2": v[-1] * v[-1],
    }
    if residual:
        dv = np.diff(v, axis=0)
        out["sudvs"] = _dot(u0, dv)
        out["svdv"] = _dot(v0, dv)
        out["sudw_res"] = out["sudvs"] + lam_over_s * out["su2s"] - mu * out["suvs"]
        out["svdw_res"] = out["svdv"] + lam_over_s * out["suvs"] - mu * out["sv2"]
    return out


def _mode_coeffs(spec, ks, scale):
    """Eigenvalue coefficient ratios of modes ks for the scaled sums, one (N,) array per key.

    One slog_array and one value_array call per sequence.  Direct float
    products where they are finite (the scale is a power of two, so dividing
    by it is exact and file/in-process paths agree bitwise); elsewhere the
    signed log-space products, for exponential spectra.
    """
    gens = spec.generators().values()
    kap, tau, rho, nu = (g.value_array(ks) for g in gens)
    kap_p, tau_p, rho_p, nu_p = (g.slog_array(ks) for g in gens)
    s = np.asarray(scale, dtype=float)
    inv_s = (1.0, -np.log(s))
    with np.errstate(over="ignore", invalid="ignore"):
        table = {
            "tau": (tau, tau_p),
            "nu": (nu, nu_p),
            "tau_s": (tau / s, tau_p, inv_s),
            "tau2_s2": ((tau / s) * (tau / s), tau_p, tau_p, inv_s, inv_s),
            "kappa_tau_s2": ((kap * tau) / s / s, kap_p, tau_p, inv_s, inv_s),
            "nu2": (nu * nu, nu_p, nu_p),
            "rho_nu": (rho * nu, rho_p, nu_p),
            "tau_nu_s": ((tau * nu) / s, tau_p, nu_p, inv_s),
            "tau_nu_s2": ((tau * nu) / s / s, tau_p, nu_p, inv_s, inv_s),
            "rho_tau_s": ((rho * tau) / s, rho_p, tau_p, inv_s),
            "rho_tau_s2": ((rho * tau) / s / s, rho_p, tau_p, inv_s, inv_s),
            "kappa_nu_s": ((kap * nu) / s, kap_p, nu_p, inv_s),
            "kappa_nu_s2": ((kap * nu) / s / s, kap_p, nu_p, inv_s, inv_s),
        }
        out = {}
        for key, (direct, (sign, log), *slogs) in table.items():
            for s_i, l_i in slogs:  # the signed log-space product, factor by factor
                sign = sign * s_i
                log = log + l_i
            out[key] = np.where(np.isfinite(direct), direct,
                                np.where(sign == 0.0, 0.0, sign * np.exp(log)))
    return out


def _coeff_rows(table):
    """The per-mode rows of a _mode_coeffs table, as dicts of floats."""
    return [dict(zip(table, row)) for row in zip(*(col.tolist() for col in table.values()))]


def _mode_contrib(coeffs, sums, endpoint, residual=False):
    """One mode's nine statistics and iota pieces; with residual, iota uses residual increments."""
    c = coeffs
    sudw, svdw = ("sudw_res", "svdw_res") if residual else ("sudws", "svdw")
    out = {
        "F1": c["kappa_tau_s2"] * sums["su2s"],
        "F2": c["rho_nu"] * sums["sv2"],
        "K1": c["tau2_s2"] * sums["su2s"],
        "K2": c["nu2"] * sums["sv2"],
        "iota1": -c["tau_s"] * sums[sudw],
        "iota2": c["nu"] * sums[svdw],
    }
    if endpoint:
        out["A1"] = -c["tau_s"] * sums["uvTs"] + c["tau"] * sums["sv2"]
        out["A2"] = c["nu"] * 0.5 * (sums["vT2"] - sums["T"])
        out["K12"] = -0.5 * c["tau_nu_s2"] * sums["uTs2"]
        out["L1"] = -0.5 * c["rho_tau_s2"] * sums["uTs2"]
        out["L2"] = -0.5 * c["kappa_nu_s2"] * sums["uTs2"]
    else:
        out["A1"] = -c["tau_s"] * sums["sudvs"]
        out["A2"] = c["nu"] * sums["svdv"]
        out["K12"] = -c["tau_nu_s"] * sums["suvs"]
        out["L1"] = -c["rho_tau_s"] * sums["suvs"]
        out["L2"] = -c["kappa_nu_s"] * sums["suvs"]
    return out


def _mode_order_sum(contribs):
    """Per-key sums of per-mode contributions, compensated (Kahan 1965), in the order given.

    Single paths (scalars) and batches (equal-shape arrays) both pass their
    modes in increasing k, so a sum never depends on how the modes were computed.
    """
    total = dict.fromkeys(_STAT_KEYS, 0.0)
    comp = dict.fromkeys(_STAT_KEYS, 0.0)
    for contrib in contribs:
        for key in _STAT_KEYS:
            y = contrib[key] - comp[key]
            t = total[key] + y
            comp[key] = (t - total[key]) - y
            total[key] = t
    return total


def _accumulate(trajectories, spec, endpoint, residual=False):
    """(Stats, iota1, iota2) of the trajectories, from one _mode_sums pass per mode."""
    if not trajectories:
        raise ValueError("no trajectories")
    n, dt = len(trajectories[0]), trajectories[0].grid_dt
    if any(len(t) != n or t.grid_dt != dt for t in trajectories):
        raise ValueError("all trajectories must share one grid")
    if max(t.k for t in trajectories) > spec.k_max:
        raise ValueError("trajectory mode index exceeds the spectrum's k_max")

    rows = _coeff_rows(_mode_coeffs(spec, [t.k for t in trajectories], [t.scale for t in trajectories]))

    def contribs():
        for traj, coeffs in zip(trajectories, rows):
            # the raw contributions read the sums against dv, which come with residual
            sums = _mode_sums(traj.u_scaled, traj.v, traj.dw, dt, traj.lam / traj.scale, traj.mu,
                              residual=residual or not endpoint)
            sums["T"] = n * dt
            yield _mode_contrib(coeffs, sums, endpoint, residual)

    vals = _mode_order_sum(contribs())
    stats = Stats(**{key: vals[key] for key in _STAT_KEYS[:9]},
                  N=len(trajectories), endpoint_variant=endpoint)
    return stats, vals["iota1"], vals["iota2"]


def sufficient_statistics(trajectories, spec, use_endpoint_identities=True):
    """The nine statistics of the normal equations from mode trajectories."""
    return _accumulate(trajectories, spec, use_endpoint_identities)[0]


def _solve_normal(s):
    """(th1, th2, 1 - D_N) from the nine statistics in s, scalars or equal-shape arrays.

    A singular system gives inf or NaN rather than raising; callers decide
    what counts as singular.
    """
    K1, K2, K12 = s["K1"], s["K2"], s["K12"]
    det = K1 * K2 - K12 * K12
    rhs1 = s["A1"] - s["F1"] - s["L1"]
    rhs2 = s["A2"] - s["F2"] - s["L2"]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.divide(K2 * rhs1 - K12 * rhs2, det), np.divide(K1 * rhs2 - K12 * rhs1, det),
                np.divide(det, K1 * K2))


def _nonsingular(K1, K2, gap):
    """Where the information matrix is regular (scalars or arrays); a NaN gap is not."""
    return (K1 > 0.0) & (K2 > 0.0) & (gap > _MIN_GAP)


def mle(stats):
    """Unique solution of the normal equations; raises on (near-)singularity."""
    th1, th2, gap = _solve_normal(vars(stats))
    if not _nonsingular(stats.K1, stats.K2, gap):
        raise SingularSystemError(
            f"singular system: K1={stats.K1:.3g}, K2={stats.K2:.3g}, 1 - D_N = {gap:.3e} "
            "(a parameter without information cannot be estimated)", conditioning=gap)
    return th1, th2


def _decomposition_errors(K1, K2, K12, iota1, iota2):
    D = (K12 * K12) / (K1 * K2)
    e1 = (iota1 / K1 - iota2 * K12 / (K1 * K2)) / (1.0 - D)
    e2 = (iota2 / K2 - iota1 * K12 / (K1 * K2)) / (1.0 - D)
    return e1, e2, D


@dataclass
class ErrorDecomposition:
    iota1: float
    iota2: float
    D_N: float
    reconstructed: tuple
    stats: Stats


def error_decomposition(trajectories, spec, params, increments="residual"):
    """Estimator error written as a function of (iota1, iota2, K1, K2, K12).

    increments="residual" uses the discretization residual dv + (lam u - mu v) dt
    as the noise increment: together with raw Riemann statistics this makes the
    reconstruction match mle(stats) - theta exactly (same left endpoints
    everywhere).  increments="brownian" uses the true simulated increments,
    which is the well-conditioned choice for stiff spectra.
    """
    if increments not in ("residual", "brownian"):
        raise ValueError("increments must be 'residual' or 'brownian'")
    for t in trajectories:
        if t.dw is None:
            raise ValueError("error decomposition needs the Brownian increments")
    stats, iota1, iota2 = _accumulate(trajectories, spec, endpoint=False,
                                      residual=(increments == "residual"))
    e1, e2, D = _decomposition_errors(stats.K1, stats.K2, stats.K12, iota1, iota2)
    return ErrorDecomposition(iota1, iota2, D, (e1, e2), stats)


def estimate_from_trajectories(trajectories, spec, params=None, psi_values=None):
    """Full estimation report: estimator, normalizers, normalized errors, diagnostics.

    Warns UnderresolvedModeWarning when the grid misses some mode's
    oscillation: the endpoint equations then amplify grid noise and the
    estimate may be far off (their count is reported as underresolved_modes).
    """
    stats, iota1, iota2 = _accumulate(trajectories, spec, endpoint=True)
    th1, th2 = mle(stats)
    res = EstimateResult(th1, th2, stats=stats)
    lam, mu, dt = np.array([(t.lam, t.mu, t.grid_dt) for t in trajectories]).T
    res.underresolved_modes = int(np.count_nonzero(_underresolved(lam, mu, dt)))
    if res.underresolved_modes:
        warnings.warn(
            f"{res.underresolved_modes} of {len(trajectories)} modes oscillate faster than "
            "the grid resolves (ell*dt > pi); the estimate is unreliable",
            UnderresolvedModeWarning,
            stacklevel=2,
        )
    res.D_N = _decomposition_errors(stats.K1, stats.K2, stats.K12, iota1, iota2)[2]
    if psi_values is not None:
        res.psi1 = psi_values.psi1
        res.psi2 = psi_values.psi2
        res.psi_at_truth = params is not None
    if params is not None and psi_values is not None:
        res.norm_err1 = math.sqrt(res.psi1) * (th1 - params.theta1)
        res.norm_err2 = math.sqrt(res.psi2) * (th2 - params.theta2)
    if params is not None:
        res.iota1, res.iota2 = iota1, iota2
    return res
