"""Exact-in-distribution simulation of the Gaussian mode triples (u, v, w).

Each mode obeys  dv = (-lam*u + mu*v) dt + dw,  du = v dt,  u(0)=v(0)=0.
One time step of the exact solution is a linear map of the state plus a
Gaussian noise triple (state noise in u, state noise in v, the Brownian
increment) whose 3x3 covariance comes from the fundamental solution.  The
grid therefore introduces no bias in the marginal law of (u, v) at grid
times; only time-integrated statistics see the step size.

The path needs only the state noise, two normals per step.  The increment
splits as dw = c^T xi + sigma eta: a part fixed by the step's two normals
xi, and sigma eta with eta independent of the whole path (_psd_factor).
One path draws its n normals eta after its 2n path normals and keeps a
real dw at every step; the Monte Carlo, which needs dw only through two
sums per replicate, samples those sums given the path from two normals
(montecarlo._mode_task).  STREAM_VERSION names this layout.

A path is that linear recurrence run as a blocked scan (the matrix form of
a prefix scan): a matmul with a block-Toeplitz operator of powers of the
propagator gives every block of _BLOCK steps its response from a zero
start, a loop over the blocks carries the state from one block to the
next, and one more matmul adds each block's response to its start.  The
same engine serves one path (simulate_mode, one call from rest) and a batch
of replicates (montecarlo._mode_task, one call per chunk of steps, each
starting from the state the last one ended in); it differs from stepping
the recurrence only by rounding.

Stiff modes are propagated in energy coordinates (sqrt(lam)*u, v) with a
power-of-two scale, so extreme eigenvalues neither overflow nor lose the
state to underflow; rescaling by the exact power of two is lossless.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fundamental import _EXP_MAX, _closed_integrals, _slog_lam, fund_solution, scaled_mode_integrals
from .quadrature import integrate  # perfbench/tracing.py wraps this name; nothing here calls it
from .spectrum import lambda_mu_slog

__all__ = [
    "STREAM_VERSION",
    "TimeGrid",
    "ModeTrajectory",
    "UnderresolvedModeWarning",
    "TransitionError",
    "transition",
    "simulate_mode",
    "simulate_solution",
    "ito_sum",
    "mode_stream",
]

# Version of the layout of the random streams: which normals a (seed,
# replicate, mode) stream gives and what each one drives.  Version 2: each
# step draws two normals for the state noise, and dw's remaining part is
# sampled after them (n more normals for one path, two per replicate for
# the Monte Carlo's dw sums); version 1 drew three normals per step.
STREAM_VERSION = 2

_LN2 = math.log(2.0)

# steps one block matmul of _run_chain advances (a power of two)
_BLOCK = 16
# (row, column) indices of the lower triangle of one block's Toeplitz operator
_TRIL = np.tril_indices(_BLOCK)


class UnderresolvedModeWarning(UserWarning):
    """The grid does not resolve the mode oscillation (ell*dt > pi).

    Grid-point marginals stay exact in distribution, but pathwise Riemann/Ito
    sums of oscillatory integrands lose accuracy for such modes.
    """


class TransitionError(RuntimeError):
    """Noise covariance left the PSD cone by more than the tolerated clip."""


@dataclass(frozen=True)
class TimeGrid:
    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0.0 or self.n_steps < 1:
            raise ValueError("TimeGrid needs T > 0 and n_steps >= 1")

    @property
    def dt(self):
        return self.T / self.n_steps

    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class ModeTrajectory:
    """Sampled path of one mode; u is stored as scale*u with a power-of-two scale."""

    k: int
    u_scaled: np.ndarray
    v: np.ndarray
    dw: np.ndarray
    scale: float = 1.0
    lam: float = math.nan
    mu: float = math.nan
    grid_dt: float = math.nan

    @property
    def u(self):
        return self.u_scaled / self.scale

    def __len__(self):
        return len(self.dw)


def _pow2_scale(log_lam):
    """Power-of-two close to sqrt(lam); exact to rescale by."""
    if log_lam is None or log_lam <= 0.0:
        return 1.0
    e = int(round(log_lam / (2.0 * _LN2)))
    return math.ldexp(1.0, e)


def _underresolved(lam, mu, dt):
    """Whether a grid of step dt misses the oscillation of mode (lam, mu): ell*dt > pi."""
    b = 0.5 * mu
    disc = b * b - lam
    return disc < 0.0 and math.sqrt(-disc) * dt > math.pi


def _true_mode(spec, params, k):
    """(lam, mu, scale) of mode k at the true parameters, as simulate_solution runs it.

    The scale is the one _scaled_transition derives from lam, so a trajectory
    file read back with it reproduces the simulated coordinates exactly.
    """
    (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, k)
    lam = _slog_lam(k, s_lam, l_lam)
    return lam, mu, _pow2_scale(math.log(lam) if lam > 0.0 else None)


def _psd_factor(Q):
    """Block lower-triangular factor S = [[S_ss, 0], [c^T, sigma]] with S S^T = Q.

    Q is the 3x3 covariance of (state noise, Brownian increment dw).  S_ss
    S_ss^T = Q_ss comes from eigh with negative eigenvalues clipped to 0,
    c = S_ss^+ q_sw is zero on clipped directions, and sigma^2 =
    max(Q_ww - |c|^2, 0).  With xi two normals and eta a third, independent
    of them, the state noise is S_ss xi and dw = c^T xi + sigma eta: the path
    needs only xi.  S is a block Cholesky factor with the 2x2 block first;
    Q_ss, whose condition number reaches about 1e8 for resolved low modes,
    is factored and never inverted.  Returns (S, clip), clip being the
    largest negative part removed (an eigenvalue of Q_ss, or sigma^2);
    raises TransitionError when it exceeds 1e-8 of the larger of Q_ss's
    largest eigenvalue and Q_ww.
    """
    w, V = np.linalg.eigh(Q[:2, :2])
    root = np.sqrt(np.clip(w, 0.0, None))
    c = np.divide(V.T @ Q[:2, 2], root, out=np.zeros(2), where=root > 0.0)
    s2 = Q[2, 2] - c @ c
    clip = max(0.0, -float(w[0]), -s2)
    rel = clip / max(float(w[1]), Q[2, 2], 1e-300)
    if rel > 1e-8:
        raise TransitionError(f"noise covariance clip {rel:.3e} exceeds 1e-8 of the spectrum")
    S = np.zeros((3, 3))
    S[:2, :2] = V * root
    S[2, :2] = c
    S[2, 2] = math.sqrt(max(s2, 0.0))
    return S, clip


def _scaled_transition(mu, dt, lam, warn=True):
    """Propagator and noise covariance in (scale*u, v, w) coordinates.

    Returns (P, Q, scale).  P is 2x2 over the state, Q the 3x3 covariance of
    (state noise in scale*u, state noise in v, Brownian increment).  lam is a
    float; a mode known in (sign, log) form is rebuilt by _slog_lam first.
    For lam > 0 the scale is a power of two close to sqrt(lam) (_pow2_scale
    of log lam), otherwise 1.
    """
    log_lam = math.log(lam) if lam > 0.0 else None
    if log_lam is not None and log_lam > _EXP_MAX:
        raise ValueError("transition needs lam within the float range (log lam <= 700)")

    if warn and _underresolved(lam, mu, dt):
        warnings.warn(
            f"mode oscillation unresolved: ell*dt = {math.sqrt(lam - 0.25 * mu * mu) * dt:.3g} > pi",
            UnderresolvedModeWarning,
            stacklevel=3,
        )

    f, fd = fund_solution(lam, mu, dt)
    g = fd - mu * f

    if lam > 0.0:
        scale = _pow2_scale(log_lam)
        lam_over_s2 = math.exp(log_lam - 2.0 * math.log(scale)) if scale != 1.0 else lam
        sf = scale * f
        si = scaled_mode_integrals(mu, dt, log_lam=log_lam)
        q_uu = si.lam_if2 / lam_over_s2
        q_uv = sf * sf / (2.0 * scale)
        q_uw = si.sqlam_if / math.sqrt(lam_over_s2)
        P = np.array([[g, sf], [-lam_over_s2 * sf, fd]])
        Q = np.array(
            [
                [q_uu, q_uv, q_uw],
                [q_uv, si.ifd2, f],
                [q_uw, f, dt],
            ]
        )
        return P, Q, scale

    if2, ifd2, _, _, intf = _closed_integrals(lam, mu, dt)  # lam <= 0: no scaling
    P = np.array([[g, f], [-lam * f, fd]])
    Q = np.array([[if2, f * f / 2.0, intf], [f * f / 2.0, ifd2, f], [intf, f, dt]])
    return P, Q, 1.0


def transition(lam, mu, dt):
    """Exact one-step propagator and joint noise covariance in plain (u, v, w) coordinates."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    P, Q, s = _scaled_transition(mu, dt, lam=lam)
    D = np.array([1.0 / s, 1.0, 1.0])
    P_plain = P.copy()
    P_plain[0, 1] /= s
    P_plain[1, 0] *= s
    Q_plain = Q * D[:, None] * D[None, :]
    return P_plain, Q_plain


def mode_stream(seed, replicate, k):
    """Counter-based generator keyed by (seed, replicate, mode); order-independent.

    Philox is a keyed bijection of a counter, so streams with different keys
    are independent by construction (Salmon et al., SC'11).  SFC64 draws
    normals faster, but its streams would be independent only through the
    hashing of SeedSequence.  What a stream's values mean is STREAM_VERSION.
    """
    if not (0 <= replicate < 2 ** 32 and 0 <= k < 2 ** 32):
        raise ValueError("replicate and k must fit in 32 bits")
    key = np.array([seed % (2 ** 64), (replicate << 32) | k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_chain(P, S, xi, x0):
    """Iterate the exact transition as a blocked scan from the state x0.

    xi: (n, 2, M) standard normals; x0: (2, M) start state (u, v), zeros for
    a path from rest; S: the block factor of _psd_factor.  Step i maps the
    state x = (u, v) to P x + S_ss xi[i] and gives the path part c^T xi[i] of
    the Brownian increment, the part of dw that the state noise determines.
    Over a block of B = _BLOCK steps that starts from x_b, the states are
    L xi_b + P^{j+1} x_b (j = 0..B-1), where L is the lower block-Toeplitz
    operator with block (j, i) = P^{j-i} S_ss.  One matmul per component over
    all blocks writes each block's zero-start response straight into u and v,
    a loop over the n/B blocks carries x_{b+1} = (last response of block b)
    + P^B x_b from x_0 = x0, and one more matmul per component adds
    P^{j+1} x_b.  The n mod B steps left over (all of them when n < B) use
    the leading rows and columns of L.  This is the same recurrence; only the
    rounding differs from stepping (about 1e-14 of a path's largest value).

    Returns (u, v, dwp) with u, v of shape (n+1, M) (row 0 is x0) and the
    path part dwp of shape (n, M), in the scaled coordinates of P and S; the
    caller adds sigma eta.  All three are views of one buffer, so a single
    path's u, v and dw keep one allocation alive.  A long path can be run in
    pieces: the last rows of one call's u and v start the next, and the
    pieces differ from one call only by rounding.  Each replicate's path is
    contiguous (the arrays are transposed views), and the values do not
    depend on the memory layout of xi.
    """
    n, _, m = xi.shape
    B = _BLOCK
    nb, rem = divmod(n, B)
    full = nb * B

    powers = np.empty((B + 1, 2, 2))                  # powers[d] = P^d
    powers[0] = np.eye(2)
    powers[1] = P
    d = 1
    while d < B:                                      # P^(d+1..2d) = P^d P^(1..d)
        np.matmul(powers[d], powers[1:d + 1], out=powers[d + 1:2 * d + 1])
        d *= 2
    G = powers[:B] @ S[:2, :2]                        # G[d] = P^d S_ss
    # L's rows are ordered (component, step), so each component's response is one slice
    L = np.zeros((2, B, B, 2))
    j, i = _TRIL
    L[:, j, i, :] = G[j - i].transpose(1, 0, 2)
    LT = L.reshape(2 * B, 2 * B).T
    C = powers[1:].transpose(1, 2, 0)                 # C[c, :, j] = row c of P^{j+1}

    # Replicate-major throughout: z is a view of draws filled replicate by
    # replicate, even of a few steps of them (reshape copies any other layout
    # of xi, to the same values), and the results are transposed views in
    # which each replicate's path is contiguous.
    z = xi.transpose(2, 0, 1).reshape(m, 2 * n)
    uv = np.empty((3, m, n + 1))                      # u, v, and c^T xi in its first n columns
    # c^T xi elementwise, one contiguous pass and one add: a matmul would round
    # differently for another layout of xi
    cz = np.multiply(z, np.tile(S[2, :2], n))
    dwp = np.add(cz[:, 0::2], cz[:, 1::2], out=uv[2, :, :n])

    uv[:2, :, 0] = x0
    blocks = uv[:2, :, 1:full + 1].reshape(2, m, nb, B)  # views: written in place
    for c in range(2):                                # zero-start responses of every block
        np.matmul(z[:, :2 * full].reshape(m, nb, 2 * B), LT[:, c * B:(c + 1) * B], out=blocks[c])
    x = np.empty((nb + 1, 2, m))                      # x[b]: state where block b starts
    x[0] = x0
    x[1:] = blocks[..., -1].transpose(2, 0, 1)
    for b in range(nb):
        x[b + 1] += powers[B] @ x[b]
    corr = cz[:, :full].reshape(m, nb, B)             # cz is free again
    for c in range(2):
        blocks[c] += np.matmul(x[:nb].transpose(2, 0, 1), C[c], out=corr)
        # the remainder: leading rows and columns of L's component c
        uv[c, :, full + 1:] = (z[:, 2 * full:] @ LT[:2 * rem, c * B:c * B + rem]
                               + x[nb].T @ C[c, :, :rem])
    return uv[0].T, uv[1].T, dwp.T


def simulate_mode(lam, mu, grid, rng, k=1):
    """One exact trajectory of a single mode, driven by the given generator.

    The generator gives the 2n path normals first, as each replicate's
    stream does in the Monte Carlo, so the same stream gives the same path
    there and here.  Then it gives n more, eta, for the part of each Brownian
    increment that the path leaves free: dw = c^T xi + sigma eta.
    """
    n = grid.n_steps
    P, Q, scale = _scaled_transition(mu, grid.dt, lam=lam)
    S, _ = _psd_factor(Q)
    xi = rng.standard_normal((n, 2))[:, :, None]
    u, v, dwp = _run_chain(P, S, xi, np.zeros((2, 1)))
    dw = dwp[:, 0]  # a view of the path's buffer, completed in place
    dw += S[2, 2] * rng.standard_normal(n)
    return ModeTrajectory(k, u[:, 0], v[:, 0], dw, scale, lam, mu, grid.dt)


def simulate_solution(spec, params, N, grid, seed, replicate=0):
    """Independent trajectories of modes 1..N at the true parameters.

    The stream of mode k is derived from (seed, replicate, k), so any subset
    of modes reproduces identically regardless of execution order.
    """
    if N < 1 or N > spec.k_max:
        raise ValueError(f"N must lie in [1, {spec.k_max}]")
    out = []
    for k in range(1, N + 1):
        lam, mu, _ = _true_mode(spec, params, k)
        out.append(simulate_mode(lam, mu, grid, mode_stream(seed, replicate, k), k=k))
    return out


def ito_sum(integrand, increments):
    """Left-endpoint Ito sum: sum integrand[i] * increments[i]."""
    integrand = np.asarray(integrand, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if integrand.shape[-1] != increments.shape[-1] + 1:
        raise ValueError(
            f"integrand must have one more sample than increments: "
            f"{integrand.shape[-1]} vs {increments.shape[-1]}"
        )
    return float(np.dot(integrand[..., :-1], increments))
