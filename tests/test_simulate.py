"""Exactness and determinism of the Gaussian mode simulation."""
import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hypermle.fundamental import mode_moments
from hypermle.montecarlo import run_replicates  # batched sampler reused as a fast oracle
from hypermle.simulate import (
    ModeTrajectory,
    TimeGrid,
    TransitionError,
    UnderresolvedModeWarning,
    _psd_factor,
    _run_chain,
    _scaled_transition,
    ito_sum,
    mode_stream,
    simulate_mode,
    simulate_solution,
    transition,
)
from hypermle.spectrum import Constant, ModelParams, PowerLaw, SpectrumSpec


def sample_endpoints(lam, mu, grid, n_rep, seed=0):
    """(u(T), v(T), w(T)) over replicates via the scaled chain, vectorized.

    Each stream is laid out as simulate_mode reads it: 2n path normals, then
    the n normals of dw's free part.
    """
    P, Q, scale = _scaled_transition(mu, grid.dt, lam=lam, warn=False)
    S, _ = _psd_factor(Q)
    xi = np.empty((grid.n_steps, 2, n_rep))
    eta = np.empty((grid.n_steps, n_rep))
    for m in range(n_rep):
        stream = mode_stream(seed, m, 1)
        xi[:, :, m] = stream.standard_normal((grid.n_steps, 2))
        eta[:, m] = stream.standard_normal(grid.n_steps)
    u, v, dwp = _run_chain(P, S, xi, np.zeros((2, n_rep)))
    return u[-1] / scale, v[-1], (dwp + S[2, 2] * eta).sum(axis=0)


class TestTransition:
    def test_quarter_period_rotation(self):
        P, Q = transition(1.0, 0.0, math.pi / 2)
        assert P[0, 1] == pytest.approx(1.0, abs=1e-12)   # = f(dt)
        assert P[1, 1] == pytest.approx(0.0, abs=1e-12)   # = f'(dt)
        assert Q[2, 2] == pytest.approx(math.pi / 2)      # Var(dw) = dt exactly

    def test_noise_v_brownian_coupling(self):
        # Cov(noise_v, dw) = int_0^dt f' = f(dt)
        for lam, mu, dt in [(4.0, -1.0, 0.25), (100.0, -5.0, 0.03), (25.0, -10.0, 0.1)]:
            P, Q = transition(lam, mu, dt)
            from hypermle.fundamental import fund_solution

            f, _ = fund_solution(lam, mu, dt)
            assert Q[1, 2] == pytest.approx(f, rel=1e-9)

    def test_small_dt_expansion(self):
        lam, mu, dt = 4.0, -0.7, 1e-5
        P, Q = transition(lam, mu, dt)
        A = np.array([[0.0, 1.0], [-lam, mu]])
        assert np.max(np.abs(P - np.eye(2) - dt * A)) < 10 * dt * dt
        lead = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        assert np.max(np.abs(Q / dt - lead)) < 10 * dt

    def test_whole_period_noise_coupling_vanishes(self):
        # Cov(noise_u, dw) = int_0^dt f = int_0^{2pi} sin = 0 over one full period
        with pytest.warns(UnderresolvedModeWarning):
            P, Q = transition(1.0, 0.0, 2 * math.pi)
        assert np.all(np.isfinite(Q))
        assert abs(Q[0, 2]) <= 1e-12

    def test_psd_clip_guard(self):
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e-3]])
        with pytest.raises(TransitionError):
            _psd_factor(bad)
        with pytest.raises(TransitionError):  # the negative part in the state block instead
            _psd_factor(np.diag([1.0, -1e-3, 1.0]))

    def test_underresolved_warning(self):
        grid = TimeGrid(1.0, 4)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            simulate_mode(1e6, 0.0, grid, mode_stream(0, 0, 1))
        assert any(issubclass(w.category, UnderresolvedModeWarning) for w in rec)


class TestMarginalExactness:
    # coarse grid, exact marginals: stated covariances at n_steps = 16
    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (1e4, -1.0), (25.0, -10.0)])
    def test_endpoint_covariance(self, lam, mu):
        grid = TimeGrid(1.0, 16)
        n_rep = 40000
        u, v, _ = sample_endpoints(lam, mu, grid, n_rep, seed=5)
        mm = mode_moments(lam, mu, 1.0)
        cov_uv_true = fund_cross(lam, mu, 1.0)
        for got, want, name in [
            (u.var(), mm.int_f2, "Var u"),
            (v.var(), mm.int_fdot2, "Var v"),
            (np.mean(u * v) - u.mean() * v.mean(), cov_uv_true, "Cov uv"),
        ]:
            se = 2.0 * want / math.sqrt(n_rep) + 4.0 * math.sqrt(
                mm.int_f2 * mm.int_fdot2 / n_rep
            )
            assert abs(got - want) < se, f"{name}: {got} vs {want}"

    def test_zero_mean(self):
        grid = TimeGrid(1.0, 16)
        u, v, _ = sample_endpoints(9.0, -2.0, grid, 20000, seed=4)
        assert abs(u.mean()) < 4 * u.std() / math.sqrt(len(u))
        assert abs(v.mean()) < 4 * v.std() / math.sqrt(len(v))

    def test_brownian_quadratic_variation(self):
        grid = TimeGrid(2.0, 512)
        t = simulate_mode(4.0, -1.0, grid, mode_stream(5, 0, 1))
        assert np.sum(t.dw ** 2) == pytest.approx(2.0, rel=0.15)

    def test_vw_coupling(self):
        # Cov(v(T), w(T)) = int_0^T f'(s) ds = f(T)
        from hypermle.fundamental import fund_solution

        lam, mu = 16.0, -3.0
        grid = TimeGrid(1.0, 32)
        _, v, w = sample_endpoints(lam, mu, grid, 40000, seed=6)
        f, _ = fund_solution(lam, mu, 1.0)
        got = np.mean(v * w) - v.mean() * w.mean()
        se = 4.0 * math.sqrt(np.var(v) * np.var(w) / len(v))
        assert abs(got - f) < se

    def test_variance_matches_quadrature_for_random_modes(self):
        # E u^2(T) = int_0^T f^2 for ten random (lam, mu), 1e4 replicates each
        rng = np.random.default_rng(8)
        grid = TimeGrid(1.0, 32)
        for _ in range(10):
            lam = 10.0 ** rng.uniform(0, 4)
            mu = -(10.0 ** rng.uniform(-1, 1.5))
            u, _, _ = sample_endpoints(lam, mu, grid, 10000, seed=int(lam * 100))
            want = mode_moments(lam, mu, 1.0).int_f2
            se = want * math.sqrt(2.0 / len(u))
            assert abs(np.var(u) - want) < 3 * se, (lam, mu)

    def test_grid_refinement_invariance(self):
        # the law of u(T) must not depend on the step count
        lam, mu = 30.0, -2.0
        samples = {}
        for n_steps in (16, 256, 4096):
            grid = TimeGrid(1.0, n_steps)
            u, _, _ = sample_endpoints(lam, mu, grid, 10000, seed=7 + n_steps)
            samples[n_steps] = u
        for a, b in [(16, 256), (256, 4096), (16, 4096)]:
            stat = ks_2samp(samples[a], samples[b])
            # 1% critical value for the two-sample statistic
            ne = len(samples[a]) / 2
            assert stat.statistic < 1.628 / math.sqrt(ne)


def fund_cross(lam, mu, T):
    """int_0^T f f' = f(T)^2 / 2."""
    from hypermle.fundamental import fund_solution

    f, _ = fund_solution(lam, mu, T)
    return f * f / 2.0


class TestDeterminism:
    def test_same_stream_same_path(self):
        grid = TimeGrid(1.0, 64)
        a = simulate_mode(10.0, -1.0, grid, mode_stream(9, 3, 2))
        b = simulate_mode(10.0, -1.0, grid, mode_stream(9, 3, 2))
        assert np.array_equal(a.u_scaled, b.u_scaled)
        assert np.array_equal(a.dw, b.dw)

    def test_solution_matches_mode(self):
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 64)
        sol = simulate_solution(spec, params, 3, grid, seed=11, replicate=5)
        lone = simulate_mode(4.0, -0.5, grid, mode_stream(11, 5, 2), k=2)
        assert np.array_equal(sol[1].u_scaled, lone.u_scaled)

    def test_batch_matches_per_path(self):
        # the vectorized engine and the public per-path API draw the same paths;
        # estimator values agree up to reduction-order rounding
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 128)
        batch = run_replicates(spec, params, 4, grid, seed=13, M=3)
        from hypermle.estimate import mle, sufficient_statistics

        trajs = simulate_solution(spec, params, 4, grid, seed=13, replicate=1)
        th = mle(sufficient_statistics(trajs, spec))
        assert th[0] == pytest.approx(batch.theta1_hat[1], rel=1e-12)
        assert th[1] == pytest.approx(batch.theta2_hat[1], rel=1e-12)

    def test_batch_byte_identical_across_runs(self):
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 128)
        a = run_replicates(spec, params, 4, grid, seed=13, M=5)
        b = run_replicates(spec, params, 4, grid, seed=13, M=5)
        assert np.array_equal(a.theta1_hat, b.theta1_hat)
        assert np.array_equal(a.iota1, b.iota1)
        assert np.array_equal(a.K1, b.K1)

    def test_contiguous_draws_match_shaped_draws(self):
        # filling a buffer leaves each (seed, replicate, mode) stream's values unchanged
        buf = np.empty((2, 100, 2))
        eta = np.empty((2, 2))
        for m in range(2):
            stream = mode_stream(7, m, 3)
            stream.standard_normal(out=buf[m])
            stream.standard_normal(out=eta[m])
            shaped = mode_stream(7, m, 3)
            assert np.array_equal(buf[m], shaped.standard_normal((100, 2)))
            assert np.array_equal(eta[m], shaped.standard_normal(2))

    def test_mode_independence(self):
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 16)
        uj, uk = [], []
        for r in range(4000):
            sol = simulate_solution(spec, params, 2, grid, seed=17, replicate=r)
            uj.append(sol[0].u[-1])
            uk.append(sol[1].u[-1])
        corr = np.corrcoef(uj, uk)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(4000)


def reference_chain(P, S, xi):
    """The exact transition stepped one grid step at a time."""
    n, _, m = xi.shape
    u = np.zeros((n + 1, m))
    v = np.zeros((n + 1, m))
    for i in range(n):
        noise = S[:2, :2] @ xi[i]
        u[i + 1] = P[0, 0] * u[i] + P[0, 1] * v[i] + noise[0]
        v[i + 1] = P[1, 0] * u[i] + P[1, 1] * v[i] + noise[1]
    return u, v


# (lam or None, log lam, mu): resolved, undamped, stiff, growing, scaled far beyond
# the grid, scaled beyond the float range of lam*u, and overdamped with real roots
CHAIN_MODES = [
    (1.0, None, -0.5),
    (1.0, None, 0.0),
    (1e4, None, -1.0),
    (1.0123e7, None, 1.5),
    (None, 80.0, 1.5),
    (None, 200.0, 1.6),
    (100.0, None, -5000.0),
]


def chain_operators(lam, log_lam, mu, dt=1.0 / 4096):
    P, Q, _ = _scaled_transition(mu, dt, lam=lam if lam is not None else math.exp(log_lam),
                                 warn=False)
    S, _ = _psd_factor(Q)
    return P, S


class TestBlockedChain:
    @pytest.mark.parametrize("mode", CHAIN_MODES)
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 4099])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_step_loop(self, mode, n, m):
        P, S = chain_operators(*mode)
        xi = np.random.default_rng(n * 10 + m).standard_normal((n, 2, m))
        u, v, dwp = _run_chain(P, S, xi, np.zeros((2, m)))
        assert u.shape == v.shape == (n + 1, m) and dwp.shape == (n, m)
        assert np.all(u[0] == 0.0) and np.all(v[0] == 0.0)
        for got, want in zip((u, v), reference_chain(P, S, xi)):
            err = np.max(np.abs(got - want), axis=0)
            assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=0))
        assert np.array_equal(dwp, S[2, 0] * xi[:, 0] + S[2, 1] * xi[:, 1])

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_block_factor(self, mode):
        # S = [[S_ss, 0], [c^T, sigma]] with S S^T = Q: the state noise needs only two normals
        lam, log_lam, mu = mode
        _, Q, _ = _scaled_transition(mu, 1.0 / 4096, lam=lam if lam is not None else math.exp(log_lam),
                                     warn=False)
        S, _ = _psd_factor(Q)
        assert np.all(S[:2, 2] == 0.0) and S[2, 2] >= 0.0
        assert np.max(np.abs(S @ S.T - Q)) <= 1e-14 * np.max(np.abs(Q))

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_layout_independent(self, mode):
        # the Monte Carlo engine passes a transposed view of replicate-major draws
        P, S = chain_operators(*mode)
        buf = np.random.default_rng(1).standard_normal((5, 4099, 2))
        view = buf.transpose(1, 2, 0)
        x0 = np.zeros((2, 5))
        for got, want in zip(_run_chain(P, S, view, x0),
                             _run_chain(P, S, np.ascontiguousarray(view), x0)):
            assert np.array_equal(got, want)


class TestItoSum:
    def test_total_increment(self):
        inc = np.array([0.1, -0.2, 0.3])
        assert ito_sum(np.ones(4), inc) == pytest.approx(inc.sum())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ito_sum(np.ones(4), np.ones(4))

    def test_v_dv_ito_correction(self):
        # E int v dv = (E v(T)^2 - T)/2; left sums have O(dt) bias
        lam, mu, T = 4.0, -1.0, 1.0
        grid = TimeGrid(T, 1000)
        mm = mode_moments(lam, mu, T)
        want = (mm.int_fdot2 - T) / 2.0
        vals = []
        for r in range(800):
            t = simulate_mode(lam, mu, grid, mode_stream(23, r, 1))
            vals.append(ito_sum(t.v, np.diff(t.v)))
        got = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert abs(got - want) < 3 * se + 5.0 / grid.n_steps

    def test_u_du_parts_identity(self):
        # int u du = u(T)^2/2 up to O(dt): u has differentiable paths
        grid = TimeGrid(1.0, 4096)
        t = simulate_mode(9.0, -2.0, grid, mode_stream(29, 0, 1))
        lhs = ito_sum(t.u, np.diff(t.u))
        assert lhs == pytest.approx(t.u[-1] ** 2 / 2.0, abs=5e-4)
