"""Exact-in-distribution simulation of the Gaussian mode triples (u, v, w).

Each mode obeys  dv = (-lam*u + mu*v) dt + dw,  du = v dt,  u(0)=v(0)=0.
One time step of the exact solution is a linear map of the state plus a
Gaussian noise triple (state noise in u, state noise in v, the Brownian
increment) whose 3x3 covariance comes from the fundamental solution.  The
grid therefore introduces no bias in the marginal law of (u, v) at grid
times; only time-integrated statistics see the step size.  The transitions
of all the modes of a run and their noise factors are built in one numpy
pass (_scaled_transition, _psd_factor) before any path is drawn; one mode
is an array of one.

The path needs only the state noise, two normals per step.  The increment
splits as dw = c^T xi + sigma eta: a part fixed by the step's two normals
xi, and sigma eta with eta independent of the whole path (_psd_factor).
One path draws its n normals eta after its 2n path normals and keeps a
real dw at every step; the Monte Carlo, which needs dw only through two
sums per replicate, samples those sums given the path from two normals
(montecarlo._mode_task).  STREAM_VERSION names this layout.

A path is that linear recurrence run as a two-level blocked scan (the
matrix form of a prefix scan; Blelloch 1990), _CHUNK steps at a time: a
matmul with a block-Toeplitz operator of powers of the propagator gives
every block of _BLOCK steps its response from a zero start, a matmul with a
block-Toeplitz operator of powers of P^_BLOCK gives every block its start
state, and one more matmul adds each block's response to its start.  The
operators are built once per mode (_chain_operators), and no Python loop
runs over the blocks.  The same engine serves one path (simulate_mode, one
call from rest) and a batch of replicates (montecarlo._mode_task, one call
per chunk, each starting from the state the last one ended in), through
the same chunks; it differs from stepping the recurrence only by rounding.

Stiff modes are propagated in energy coordinates (sqrt(lam)*u, v) with a
power-of-two scale, so extreme eigenvalues neither overflow nor lose the
state to underflow; rescaling by the exact power of two is lossless.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fundamental import _EXP_MAX, _log_lam, _scaled_integrals, _slog_lam, fund_solution
from .fundamental import scaled_mode_integrals  # perfbench/tracing.py wraps this name; nothing here calls it
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
# Version 3 draws the same normals as version 2, but evaluates the exp and
# log of the array formulas (lam from its log form among them) with numpy,
# not the math module.  The paths depend on the last bit of each lam: where
# ell*dt is near 1e15 and beyond (sec5 from k = 43 at n = 4096) one ulp of
# lam moves P by over 10%, so those paths changed as with a new layout;
# elsewhere a path moved by rounding only.
STREAM_VERSION = 3

_LN2 = math.log(2.0)

# steps one block matmul of _run_chain advances (a power of two)
_BLOCK = 16
# Steps the scan runs at a time: each chunk's block starts come from one
# matmul with a carry operator over its blocks, and the Monte Carlo reduces
# each chunk while it is in cache.  Fewer chunks mean less per-call overhead,
# which worker threads contend for; longer ones a larger working set and
# carry operator.  512 to 1024 steps timed alike at 48 and 500 replicates on
# one thread; 768 was best at 32 replicates on two.
_CHUNK = 48 * _BLOCK
# The largest m*n*k of a matrix product that OpenBLAS runs on one thread
# (65536 times its GEMM_MULTITHREAD_THRESHOLD of 4).  The scan's carry keeps
# each product below it: one product over all replicates would be split over
# BLAS threads, for which worker threads then queue (on two vCPUs, two
# workers at 150 replicates took 1.5 s where one thread per product took 1.1 s).
_BLAS_ONE_THREAD = 2 ** 18


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


@dataclass
class ModeTrajectory:
    """Sampled path of one mode; u is stored as scale*u with a power-of-two scale."""

    k: int
    u_scaled: np.ndarray
    v: np.ndarray
    dw: np.ndarray
    scale: float
    lam: float
    mu: float
    grid_dt: float

    @property
    def u(self):
        return self.u_scaled / self.scale

    def __len__(self):
        return len(self.dw)


def _pow2_scale(log_lam):
    """Powers of two close to sqrt(lam), from log lam (1 where log lam <= 0); exact to rescale by."""
    return np.ldexp(1.0, np.round(np.maximum(log_lam, 0.0) / (2.0 * _LN2)).astype(int))


def _underresolved(lam, mu, dt):
    """Whether a grid of step dt misses the oscillation of modes (lam, mu): ell*dt > pi, elementwise."""
    b = 0.5 * mu
    disc = b * b - lam
    return (disc < 0.0) & (np.sqrt(np.maximum(-disc, 0.0)) * dt > math.pi)


def _warn_underresolved(lam, mu, dt):
    """Warn UnderresolvedModeWarning for each mode of the arrays (lam, mu) that _underresolved names."""
    miss = _underresolved(lam, mu, dt)
    for l, m in zip(lam[miss].tolist(), mu[miss].tolist()):
        warnings.warn(f"mode oscillation unresolved: ell*dt = {math.sqrt(l - 0.25 * m * m) * dt:.3g} > pi",
                      UnderresolvedModeWarning, stacklevel=3)


def _true_modes(spec, params, N):
    """Float arrays (lam, mu, scale) of the modes 1..N at the true parameters, from one spectrum call.

    The scale is the one _scaled_transition derives from lam, so a trajectory
    file read back with it reproduces the simulated coordinates exactly.
    """
    ks = np.arange(1, N + 1)
    (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
    lam = _slog_lam(ks, s_lam, l_lam)
    return lam, mu, _pow2_scale(_log_lam(lam))


def _psd_factor(Q):
    """Block lower-triangular factors S = [[S_ss, 0], [c^T, sigma]] with S S^T = Q, over a stack.

    Q (..., 3, 3) stacks the covariances of (state noise, Brownian increment
    dw), one block or every mode of a run: the factors are part of the run's
    array pass, made once next to the transitions.  S_ss S_ss^T = Q_ss comes
    from eigh with negative eigenvalues clipped to 0, c = S_ss^+ q_sw is zero
    on clipped directions, and sigma^2 = max(Q_ww - |c|^2, 0).  With xi two
    normals and eta a third, independent of them, the state noise is S_ss xi
    and dw = c^T xi + sigma eta: the path needs only xi.  S is a block
    Cholesky factor with the 2x2 block first; Q_ss, whose condition number
    reaches about 1e8 for resolved low modes, is factored and never inverted.
    Each block gives the bits of its own call.  Returns (S, clip) of shapes
    (..., 3, 3) and (...), clip being the largest negative part removed (an
    eigenvalue of Q_ss, or sigma^2); raises TransitionError, for the first
    block where it does, when the clip exceeds 1e-8 of the larger of Q_ss's
    largest eigenvalue and Q_ww.
    """
    w, V = np.linalg.eigh(Q[..., :2, :2])
    root = np.sqrt(np.clip(w, 0.0, None))
    c = np.divide((np.swapaxes(V, -1, -2) @ Q[..., :2, 2:])[..., 0], root, out=np.zeros_like(root),
                  where=root > 0.0)
    s2 = Q[..., 2, 2] - (c[..., None, :] @ c[..., :, None])[..., 0, 0]
    worst = np.maximum(-w[..., 0], -s2)
    clip = np.where(worst > 0.0, worst, 0.0)
    rel = np.ravel(clip / np.maximum(np.maximum(w[..., 1], Q[..., 2, 2]), 1e-300))
    bad = rel[rel > 1e-8]
    if bad.size:
        raise TransitionError(f"noise covariance clip {bad[0]:.3e} exceeds 1e-8 of the spectrum")
    S = np.zeros(Q.shape)
    S[..., :2, :2] = V * root[..., None, :]
    S[..., 2, :2] = c
    S[..., 2, 2] = np.sqrt(np.maximum(s2, 0.0))
    return S, clip


def _scaled_transition(lam, mu, dt):
    """Propagators and noise covariances of arrays of modes in (scale*u, v, w) coordinates.

    Returns (P, Q, scale) stacked over the modes: P (n, 2, 2) over the state,
    Q (n, 3, 3) the covariance of (state noise in scale*u, state noise in v,
    Brownian increment), and scale (n,).  lam may take either sign; a mode
    known in (sign, log) form is rebuilt by _slog_lam first.  For lam > 0 the
    scale is a power of two close to sqrt(lam) (_pow2_scale of log lam),
    otherwise 1.
    """
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    log_lam = _log_lam(lam)
    if (log_lam > _EXP_MAX).any():
        raise ValueError("transition needs lam within the float range (log lam <= 700)")

    f, fd = fund_solution(lam, mu, dt)
    g = fd - mu * f
    scale = _pow2_scale(log_lam)
    lam_over_s2 = np.where(scale == 1.0, lam, np.exp(log_lam - 2.0 * np.log(scale)))
    sf = scale * f
    (lam_if2, ifd2, _, _, sqlam_if), _ = _scaled_integrals(lam, mu, dt, log_lam)
    factor = np.where(lam > 0.0, lam_over_s2, 1.0)  # the integrals of lam <= 0 carry no lam factors
    q_uu = lam_if2 / factor
    q_uv = sf * sf / (2.0 * scale)
    q_uw = sqlam_if / np.sqrt(factor)
    P = np.stack([g, sf, -lam_over_s2 * sf, fd], axis=-1).reshape(-1, 2, 2)
    Q = np.stack([q_uu, q_uv, q_uw, q_uv, ifd2, f, q_uw, f, np.full_like(f, dt)], axis=-1).reshape(-1, 3, 3)
    return P, Q, scale


def transition(lam, mu, dt):
    """Exact one-step propagator and joint noise covariance in plain (u, v, w) coordinates."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lam, mu = np.array([lam], dtype=float), np.array([mu], dtype=float)
    _warn_underresolved(lam, mu, dt)
    (P,), (Q,), (s,) = _scaled_transition(lam, mu, dt)
    D = np.array([1.0 / s, 1.0, 1.0])
    P_plain = P.copy()
    P_plain[0, 1] /= s
    P_plain[1, 0] *= s
    Q_plain = Q * D[:, None] * D[None, :]
    return P_plain, Q_plain


def mode_stream(seed, replicate, k, gen=None):
    """Counter-based generator keyed by (seed, replicate, mode); order-independent.

    Philox is a keyed bijection of a counter, so streams with different keys
    are independent by construction (Salmon et al., SC'11).  SFC64 draws
    normals faster, but its streams would be independent only through the
    hashing of SeedSequence.  What a stream's values mean is STREAM_VERSION.

    Given gen, a Generator over a Philox, re-keys it in place and returns it:
    key set, counter zero, buffer empty and no pending 32-bit half, so it
    gives the values of a fresh stream whatever it drew before.  That costs
    about a third of a fresh Philox, whose constructor also draws OS entropy
    that the key then replaces.  Without gen, returns a fresh generator.
    """
    if not (0 <= replicate < 2 ** 32 and 0 <= k < 2 ** 32):
        raise ValueError("replicate and k must fit in 32 bits")
    key = np.array([seed % (2 ** 64), (replicate << 32) | k], dtype=np.uint64)
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


class _ChainOperators(NamedTuple):
    """What _run_chain applies to every chunk of one mode's paths (see _chain_operators)."""

    LT: np.ndarray     # (2B, 2B): transpose of the block-Toeplitz operator L, rows (component, step)
    C: np.ndarray      # (2, 2, B): C[c, :, j] = row c of P^(j+1)
    HT: np.ndarray     # (2(nb+1), 2(nb+1)): transpose of the carry operator H over nb blocks
    c: np.ndarray      # (2,): the row c^T of the block factor S
    steps: int         # steps per chunk: _CHUNK, or the whole path when shorter


def _powers(A, d):
    """(A^0, ..., A^d) of a 2x2 matrix, each power the product of two earlier ones."""
    out = np.empty((d + 1, 2, 2))
    out[0] = np.eye(2)
    if d:
        out[1] = A
    k = 1
    while k < d:                                      # A^(k+1..k+j) = A^k A^(1..j)
        j = min(k, d - k)
        np.matmul(out[k], out[1:j + 1], out=out[k + 1:k + j + 1])
        k += j
    return out


def _lower_toeplitz(blocks, size):
    """(size, 2, size, 2) view with block (j, i) = blocks[j - i] for i <= j, else zero."""
    padded = np.zeros((2 * size - 1, 2, 2))           # padded[size - 1 + d] = blocks[d], d >= 0
    padded[size - 1:] = blocks[:size]
    s0, s1, s2 = padded.strides
    return np.lib.stride_tricks.as_strided(padded[size - 1:], (size, 2, size, 2), (s0, s1, -s0, s2),
                                           writeable=False)


def _chain_operators(P, S, n):
    """The operators of the blocked scan for paths of n steps, built once per mode.

    With B = _BLOCK: L, the lower block-Toeplitz operator with block (j, i) =
    P^(j-i) S_ss, gives a block's states from a zero start; C, the powers
    P^(j+1), add its start state; and H, the lower block-Toeplitz operator
    with block (b, j) = (P^B)^(b-j), gives every block start of a chunk of
    nb blocks from the chunk's start and the blocks' zero-start ends.  The
    powers of P^B reach P^(nb B), at most the path's whole span.
    """
    B = _BLOCK
    steps = min(n, _CHUNK)
    nb = steps // B
    powers = _powers(P, B)
    G = powers[:B] @ S[:2, :2]                        # G[d] = P^d S_ss
    # L's rows are ordered (component, step), so each component's response is one slice
    L = _lower_toeplitz(G, B).transpose(1, 0, 2, 3)
    H = _lower_toeplitz(_powers(powers[B], nb), nb + 1)
    return _ChainOperators(LT=L.reshape(2 * B, 2 * B).T, C=powers[1:].transpose(1, 2, 0),
                           HT=H.reshape(2 * (nb + 1), 2 * (nb + 1)).T, c=S[2, :2].copy(),
                           steps=steps)


def _chain_buffers(m, n):
    """The buffers `_run_chain(..., out=)` fills for m replicates over at most one chunk of paths of n steps.

    A (3, m, steps + 1) block for u, v and the path part of dw, and an
    (m, 2 steps) block for the product c^T xi and then the scan's scratch,
    steps being the chunk length of _chain_operators.
    """
    steps = min(n, _CHUNK)
    return np.empty((3, m, steps + 1)), np.empty((m, 2 * steps))


def _run_chain(ops, x0, xi, out=None):
    """Iterate the exact transition as a blocked scan from the state x0.

    ops: _chain_operators of the mode's P and S; x0: (2, M) start state (u,
    v), zeros for a path from rest; xi: (n, 2, M) standard normals.  Step i
    maps the state x = (u, v) to P x + S_ss xi[i] and gives the path part
    c^T xi[i] of the Brownian increment, the part of dw that the state noise
    determines.  The steps run in chunks of ops.steps, each a two-level scan
    (Blelloch 1990).  Over a block of B = _BLOCK steps that starts from x_b
    the states are L xi_b + P^(j+1) x_b (j = 0..B-1).  One matmul per
    component writes every block's zero-start response L xi_b straight into
    u and v; a matmul with the carry operator H turns the chunk's start and
    the blocks' last responses into every block start x_b (one product per
    group of replicates, see _BLAS_ONE_THREAD); and one more matmul per
    component adds P^(j+1) x_b.  The steps after the last full
    block (all of them when n < B) use the leading rows and columns of L, and
    a shorter last chunk those of H.  This is the same recurrence; only the
    rounding differs from stepping (about 1e-14 of a path's largest value).

    Returns (u, v, dwp) with u, v of shape (n+1, M) (row 0 is x0) and the
    path part dwp of shape (n, M), in the scaled coordinates of P and S; the
    caller adds sigma eta.  All three are views of one buffer, so a single
    path's u, v and dw keep one allocation alive.  A long path can be run in
    pieces of whole chunks, the last rows of one call's u and v starting the
    next, and the pieces give the values of one call.  Each replicate's path
    is contiguous (the arrays are transposed views), and the values do not
    depend on the memory layout of xi.

    out, from _chain_buffers, gives the buffers for a call of at most one
    chunk: the results are views of its leading columns, valid until the
    next call with it, and the call allocates nothing of the paths' size.
    Without out, the call allocates its own buffers.
    """
    n, _, m = xi.shape
    # Replicate-major throughout: z is a view of draws filled replicate by
    # replicate, even of a few steps of them (reshape copies any other layout
    # of xi, to the same values), and the results are transposed views in
    # which each replicate's path is contiguous.
    z = xi.transpose(2, 0, 1).reshape(m, 2 * n)
    # u, v, and c^T xi in the first n columns of uv
    uv, cz = (np.empty((3, m, n + 1)), None) if out is None else (out[0][:, :, :n + 1], out[1][:, :2 * n])
    # c^T xi elementwise, one contiguous pass and one add: a matmul would round
    # differently for another layout of xi
    cz = np.multiply(z, np.tile(ops.c, n), out=cz)
    dwp = np.add(cz[:, 0::2], cz[:, 1::2], out=uv[2, :, :n])
    uv[:2, :, 0] = x0
    for t0 in range(0, n, ops.steps):                 # cz is free again: scratch space
        t1 = min(t0 + ops.steps, n)
        _scan_chunk(ops, z[:, 2 * t0:2 * t1], uv[:2, :, t0:t1 + 1], cz[:, 2 * t0:2 * t1])
    return uv[0].T, uv[1].T, dwp.T


def _scan_chunk(ops, z, uv, scratch):
    """One chunk of _run_chain: uv[:, :, 1:] from the start uv[:, :, 0] and the normals z.

    scratch is a free (M, 2 * steps) block, which holds the start corrections.
    """
    m = z.shape[0]
    B = _BLOCK
    nb, rem = divmod(z.shape[1] // 2, B)
    full = nb * B
    LT, C = ops.LT, ops.C

    blocks = uv[:, :, 1:full + 1].reshape(2, m, nb, B)  # views: written in place
    for c in range(2):                                # zero-start responses of every block
        np.matmul(z[:, :2 * full].reshape(m, nb, 2 * B), LT[:, c * B:(c + 1) * B], out=blocks[c])
    ends = np.empty((m, nb + 1, 2))                   # the chunk's start, then each block's end
    ends[:, 0] = uv[:, :, 0].T
    ends[:, 1:] = blocks[..., -1].transpose(1, 2, 0)
    k = 2 * (nb + 1)
    x = np.empty((m, nb + 1, 2))                      # x[:, b]: start of block b
    rows = max(1, _BLAS_ONE_THREAD // (k * k))        # replicates per carry product
    for r in range(0, m, rows):
        np.matmul(ends[r:r + rows].reshape(-1, k), ops.HT[:k, :k], out=x[r:r + rows].reshape(-1, k))
    corr = scratch[:, :full]
    for c in range(2):
        np.matmul(x[:, :nb], C[c], out=corr.reshape(m, nb, B))
        # added as (m, full) views: numpy buffers a strided 3-d add in 0.4 MiB, a 2-d one in 0.2
        uv[c, :, 1:full + 1] += corr
        # the remainder: leading rows and columns of L's component c
        uv[c, :, full + 1:] = (z[:, 2 * full:] @ LT[:2 * rem, c * B:c * B + rem]
                               + x[:, nb] @ C[c, :, :rem])


def simulate_mode(lam, mu, grid, rng, k=1):
    """One exact trajectory of a single mode, driven by the given generator.

    The generator gives the 2n path normals first, as each replicate's
    stream does in the Monte Carlo, so the same stream gives the same path
    there and here, through the same chunks of the scan.  Then it gives n
    more, eta, for the part of each Brownian increment that the path leaves
    free: dw = c^T xi + sigma eta.
    """
    lam, mu = np.array([lam], dtype=float), np.array([mu], dtype=float)
    _warn_underresolved(lam, mu, grid.dt)
    return _trajectories([k], lam, mu, grid, [rng])[0]


def simulate_solution(spec, params, N, grid, seed, replicate=0):
    """Independent trajectories of modes 1..N at the true parameters.

    The stream of mode k is derived from (seed, replicate, k), so any subset
    of modes reproduces identically regardless of execution order.
    """
    if N < 1 or N > spec.k_max:
        raise ValueError(f"N must lie in [1, {spec.k_max}]")
    lam, mu, _ = _true_modes(spec, params, N)
    _warn_underresolved(lam, mu, grid.dt)
    ks = range(1, N + 1)
    return _trajectories(ks, lam, mu, grid, (mode_stream(seed, replicate, k) for k in ks))


def _trajectories(ks, lam, mu, grid, rngs):
    """The trajectory of each mode k of ks (float arrays lam, mu), drawn from its generator of rngs
    as simulate_mode draws it; the transitions and their noise factors come from one
    _scaled_transition call and one _psd_factor call."""
    n = grid.n_steps
    P, Q, scale = _scaled_transition(lam, mu, grid.dt)
    S, _ = _psd_factor(Q)
    out = []
    for k, rng, P_k, S_k, *mode in zip(ks, rngs, P, S, scale.tolist(), lam.tolist(), mu.tolist()):
        xi = rng.standard_normal((n, 2))[:, :, None]
        u, v, dwp = _run_chain(_chain_operators(P_k, S_k, n), np.zeros((2, 1)), xi)
        dw = dwp[:, 0]  # a view of the path's buffer, completed in place
        dw += S_k[2, 2] * rng.standard_normal(n)
        out.append(ModeTrajectory(k, u[:, 0], v[:, 0], dw, *mode, grid.dt))
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
