"""Reference computations made apart from hypermle, used to check its outputs.

Nothing here imports the program.  The spectra are written out from their
definitions, the mode energy integrals come from antiderivatives of
f(t) = e^{bt} sin(lt)/l (or its real-root form), and the path statistics are
summed straight from the trajectory CSV.
"""
from __future__ import annotations

import cmath
import json
import math

import numpy as np

# Spectra of the configs the benchmark runs, from their definitions:
# lambda_k = kappa_k + theta1 * tau_k, mu_k = rho_k + theta2 * nu_k.
SPECTRA = {
    "alg_ex1": lambda k, d: (0.0, k ** (2.0 / d), 0.0, 1.0),
    "alg_ex3": lambda k, d: (0.0, k ** (2.0 / d), 0.0, -(k ** (4.0 / d))),
    "sec5_example": lambda k, d: (math.exp(2.0 * k), math.exp(k), 0.0,
                                  math.log(math.log(k + 3.0))),
}


class Model:
    """Eigenvalues and true parameters read from a config file."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.name = doc["preset"]
        self.d = int(doc.get("dimension", 1))
        p = doc["params"]
        self.theta1 = float(p["theta1"])
        self.theta2 = float(p["theta2"])
        self.T = float(p.get("T", 1.0))
        self.n_steps = int(doc.get("grid", {}).get("n_steps", 4096))

    def eig(self, k):
        """(kappa, tau, rho, nu) of mode k."""
        return SPECTRA[self.name](k, self.d)

    def lam_mu(self, k):
        kap, tau, rho, nu = self.eig(k)
        return kap + self.theta1 * tau, rho + self.theta2 * nu


def _p(c, T):
    """int_0^T e^{ct} dt for real or complex c."""
    x = c * T
    if abs(x) < 0.1:
        term, acc = 1.0, 1.0
        for j in range(1, 20):
            term = term * x / (j + 1)
            acc = acc + term
        return T * acc
    if isinstance(x, complex):
        return (cmath.exp(x) - 1.0) / c
    return math.expm1(x) / c


def _w(c, T):
    """int_0^T (T - t) e^{ct} dt for real or complex c."""
    x = c * T
    if abs(x) < 0.1:
        term, acc = 0.5, 0.5
        for j in range(1, 20):
            term = term * x / (j + 2)
            acc = acc + term
        return T * T * acc
    if isinstance(x, complex):
        return (cmath.exp(x) - 1.0 - x) / (c * c)
    return (math.expm1(x) - x) / (c * c)


def energy_integrals(lam, mu, T):
    """(int f^2, int (T-t) f^2, int (T-t) f'^2) over [0, T] for f'' - mu f' + lam f = 0."""
    b = 0.5 * mu
    disc = b * b - lam
    ell = math.sqrt(abs(disc))
    if disc < 0.0:
        # f^2 = (e^{2bt} - Re e^{zt}) / (2 l^2), z = 2b + 2il
        z = complex(2.0 * b, 2.0 * ell)
        pz, wz = _p(z, T), _w(z, T)
        pc, wc = _p(2.0 * b, T), _w(2.0 * b, T)
        r = b / ell
        i_f2 = (pc - pz.real) / (2.0 * ell * ell)
        w_f2 = (wc - wz.real) / (2.0 * ell * ell)
        w_fd2 = 0.5 * (1.0 + r * r) * wc + 0.5 * (1.0 - r * r) * wz.real + r * wz.imag
        return i_f2, w_f2, w_fd2
    # real roots r+, r-; the one nearer zero from the product r+ r- = lam
    if b <= 0.0:
        r_m = b - ell
        r_p = lam / r_m
    else:
        r_p = b + ell
        r_m = lam / r_p
    q = 4.0 * ell * ell
    i_f2 = (_p(2.0 * r_p, T) - 2.0 * _p(mu, T) + _p(2.0 * r_m, T)) / q
    w_f2 = (_w(2.0 * r_p, T) - 2.0 * _w(mu, T) + _w(2.0 * r_m, T)) / q
    w_fd2 = (r_p * r_p * _w(2.0 * r_p, T) - 2.0 * lam * _w(mu, T)
             + r_m * r_m * _w(2.0 * r_m, T)) / q
    return i_f2, w_f2, w_fd2


def psi_terms(model, k):
    """Mode k's contributions (psi1, psi2, psi12) to the normalizers."""
    _, tau, _, nu = model.eig(k)
    lam, mu = model.lam_mu(k)
    i_f2, w_f2, w_fd2 = energy_integrals(lam, mu, model.T)
    return tau * tau * w_f2, nu * nu * w_fd2, -0.5 * tau * nu * i_f2


def psi_sums(model, N_list):
    """{N: (psi1, psi2, psi12)} summed over modes 1..N."""
    out, acc = {}, np.zeros(3)
    for k in range(1, max(N_list) + 1):
        acc = acc + np.array(psi_terms(model, k))
        if k in N_list:
            out[k] = tuple(acc)
    return out


def underresolved(model, N):
    """Modes 1..N whose oscillation l = sqrt(lam - mu^2/4) has l*dt > pi."""
    dt = model.T / model.n_steps
    count = 0
    for k in range(1, N + 1):
        lam, mu = model.lam_mu(k)
        disc = 0.25 * mu * mu - lam
        if disc < 0.0 and math.sqrt(-disc) * dt > math.pi:
            count += 1
    return count


def read_paths(path):
    """{k: (u, v, dw)} from a trajectory CSV with columns k,t_index,u,v,dw."""
    with open(path) as fh:
        if fh.readline().strip() != "k,t_index,u,v,dw":
            raise ValueError(f"{path}: unexpected header")
        rows = [line.rstrip("\n").split(",") for line in fh]
    ks = np.array([int(r[0]) for r in rows])
    ti = np.array([int(r[1]) for r in rows])
    u = np.array([float(r[2]) for r in rows])
    v = np.array([float(r[3]) for r in rows])
    dw = np.array([float(r[4]) if r[4] else math.nan for r in rows])
    out = {}
    for k in np.unique(ks):
        sel = ks == k
        order = np.argsort(ti[sel])
        out[int(k)] = (u[sel][order], v[sel][order], dw[sel][order][:-1])
    return out


def path_statistics(model, paths, endpoint, increments="brownian"):
    """The nine statistics and (iota1, iota2) summed over modes, as a dict.

    endpoint=True uses the pathwise identities int u v = u_T^2/2,
    int u dv = u_T v_T - int v^2 and int v dv = (v_T^2 - T)/2; otherwise
    left-endpoint Riemann and Ito sums.  increments="residual" replaces dw by
    dv + (lam u - mu v) dt.
    """
    dt = model.T / model.n_steps
    keys = ("A1", "A2", "F1", "F2", "K1", "K2", "K12", "L1", "L2", "iota1", "iota2")
    acc = dict.fromkeys(keys, 0.0)
    for k, (u, v, dw) in sorted(paths.items()):
        kap, tau, rho, nu = model.eig(k)
        lam, mu = model.lam_mu(k)
        u0, v0, dv = u[:-1], v[:-1], np.diff(v)
        if increments == "residual":
            dw = dv + (lam * u0 - mu * v0) * dt
        su2 = float(np.sum(u0 * u0)) * dt
        sv2 = float(np.sum(v0 * v0)) * dt
        if endpoint:
            suv = 0.5 * u[-1] * u[-1]
            sudv = u[-1] * v[-1] - sv2
            svdv = 0.5 * (v[-1] * v[-1] - model.T)
        else:
            suv = float(np.sum(u0 * v0)) * dt
            sudv = float(np.sum(u0 * dv))
            svdv = float(np.sum(v0 * dv))
        acc["A1"] += -tau * sudv
        acc["A2"] += nu * svdv
        acc["F1"] += kap * tau * su2
        acc["F2"] += rho * nu * sv2
        acc["K1"] += tau * tau * su2
        acc["K2"] += nu * nu * sv2
        acc["K12"] += -tau * nu * suv
        acc["L1"] += -rho * tau * suv
        acc["L2"] += -kap * nu * suv
        acc["iota1"] += -tau * float(np.sum(u0 * dw))
        acc["iota2"] += nu * float(np.sum(v0 * dw))
    return acc


def solve(stats):
    """Solution (theta1, theta2) of the normal equations."""
    K1, K2, K12 = stats["K1"], stats["K2"], stats["K12"]
    det = K1 * K2 - K12 * K12
    r1 = stats["A1"] - stats["F1"] - stats["L1"]
    r2 = stats["A2"] - stats["F2"] - stats["L2"]
    return (K2 * r1 - K12 * r2) / det, (K1 * r2 - K12 * r1) / det


def decomposition(stats):
    """Errors (e1, e2) from the identity K e = iota."""
    K1, K2, K12 = stats["K1"], stats["K2"], stats["K12"]
    det = K1 * K2 - K12 * K12
    i1, i2 = stats["iota1"], stats["iota2"]
    return (K2 * i1 - K12 * i2) / det, (K1 * i2 - K12 * i1) / det


def identity_defect(sums, theta1, theta2):
    """Worst |decomposition - (mle - theta)| over replicates, in units of the RMS error.

    sums holds per-replicate arrays of the raw statistics with residual
    increments, for which the identity is exact up to rounding.  Scaling by
    the RMS error rather than by each replicate's own error keeps a replicate
    whose error happens to be near zero from reading as a defect.
    """
    r1, r2 = solve(sums)
    e1, e2 = decomposition(sums)
    return max(float(np.max(np.abs(e - r)) / np.sqrt(np.mean(r * r)))
               for e, r in ((e1, r1 - theta1), (e2, r2 - theta2)))


def dkw_threshold(m, alpha):
    """eps with P(sup |F_m - F| > eps) <= alpha for m iid draws (Massart's DKW bound)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


def std_normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_distance(samples):
    """Sup distance between the empirical law of samples and N(0, 1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    cdf = np.array([std_normal_cdf(t) for t in x])
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m)))
