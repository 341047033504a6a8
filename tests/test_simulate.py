"""Exactness and determinism of the Gaussian mode simulation."""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hypermle import simulate
from hypermle.config import load_config
from hypermle.fundamental import fund_solution, mode_moments
from hypermle.montecarlo import run_replicates  # batched sampler reused as a fast oracle
from hypermle.simulate import (
    _BLOCK,
    _CHUNK,
    ModeTrajectory,
    TimeGrid,
    TransitionError,
    UnderresolvedModeWarning,
    _chain_buffers,
    _chain_operators,
    _psd_factor,
    _run_chain,
    _scaled_transition,
    _true_modes,
    ito_sum,
    mode_stream,
    simulate_mode,
    simulate_solution,
    transition,
)
from hypermle.spectrum import Constant, ModelParams, PowerLaw, SpectrumSpec
from test_fundamental import mixed_modes

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def sample_endpoints(lam, mu, grid, n_rep, seed=0):
    """(u(T), v(T), w(T)) over replicates via the scaled chain, vectorized.

    Each stream is laid out as simulate_mode reads it: 2n path normals, then
    the n normals of dw's free part.
    """
    (P,), (Q,), (scale,) = _scaled_transition([lam], [mu], grid.dt)
    S, _ = _psd_factor(Q)
    xi = np.empty((grid.n_steps, 2, n_rep))
    eta = np.empty((grid.n_steps, n_rep))
    for m in range(n_rep):
        stream = mode_stream(seed, m, 1)
        xi[:, :, m] = stream.standard_normal((grid.n_steps, 2))
        eta[:, m] = stream.standard_normal(grid.n_steps)
    u, v, dwp = _run_chain(_chain_operators(P, S, grid.n_steps), np.zeros((2, n_rep)), xi)
    return u[-1] / scale, v[-1], (dwp + S[2, 2] * eta).sum(axis=0)


def endpoint_states(lam, mu, grid, n_rep, rng, batch=40_000):
    """(u(T), v(T)) of n_rep paths from rest, their normals drawn from rng through _run_chain in batches."""
    (P,), (Q,), (scale,) = _scaled_transition([lam], [mu], grid.dt)
    S, _ = _psd_factor(Q)
    ops = _chain_operators(P, S, grid.n_steps)
    u, v = [], []
    for start in range(0, n_rep, batch):
        xi = rng.standard_normal((grid.n_steps, 2, min(batch, n_rep - start)))
        path_u, path_v, _ = _run_chain(ops, np.zeros((2, xi.shape[2])), xi)
        u.append(path_u[-1] / scale)
        v.append(path_v[-1])
    return np.concatenate(u), np.concatenate(v)


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
        # in a stack the first bad block is named, whatever follows it
        stack = np.stack([np.eye(3), np.diag([1.0, -1e-3, 1.0]), np.diag([1.0, 1.0, -2e-3])])
        with pytest.raises(TransitionError, match="clip 1.000e-03 exceeds"):
            _psd_factor(stack)
        S, clip = _psd_factor(stack[[0, 0]])
        assert S.shape == (2, 3, 3) and clip.shape == (2,) and np.all(clip == 0.0)

    def test_underresolved_warning(self):
        grid = TimeGrid(1.0, 4)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            simulate_mode(1e6, 0.0, grid, mode_stream(0, 0, 1))
        assert any(issubclass(w.category, UnderresolvedModeWarning) for w in rec)


class TestTransitionBatch:
    @pytest.mark.parametrize("dt", [1.0, 1.0 / 4096])
    def test_mixed_batch_is_each_mode_alone(self, dt):
        # a mode's (P, Q, scale) and its f(dt), f'(dt) do not depend on the batch it is built in
        lam, mu = mixed_modes()
        P, Q, scale = _scaled_transition(lam, mu, dt)
        f, fd = fund_solution(lam, mu, dt)
        assert P.shape == (len(lam), 2, 2) and Q.shape == (len(lam), 3, 3) and scale.shape == (len(lam),)
        for i, (l, m) in enumerate(zip(lam.tolist(), mu.tolist())):
            one = _scaled_transition([l], [m], dt)
            assert [a.tobytes() for a in one] == [P[i:i + 1].tobytes(), Q[i:i + 1].tobytes(),
                                                  scale[i:i + 1].tobytes()], (l, m)
            assert np.array([fund_solution(l, m, dt)]).tobytes() == np.array([[f[i], fd[i]]]).tobytes()

    @pytest.mark.parametrize("modes", ["alg_ex1", "sec5_exponential", "custom_wave", "mixed"])
    def test_stacked_factor_is_each_block_alone(self, modes):
        # the run's one _psd_factor call gives every mode the bits of its own call
        if modes == "mixed":
            lam, mu = mixed_modes()
            Q = np.concatenate([_scaled_transition(lam, mu, dt)[1] for dt in (1.0, 1.0 / 4096)])
        else:
            cfg = load_config(CONFIGS / f"{modes}.json")
            lam, mu, _ = _true_modes(cfg["spec"], cfg["params"], 300 if modes.startswith("sec5") else 400)
            _, Q, _ = _scaled_transition(lam, mu, 1.0 / 4096)
        S, clip = _psd_factor(Q)
        assert S.shape == Q.shape and clip.shape == Q.shape[:1]
        for i, block in enumerate(Q):
            S_i, clip_i = _psd_factor(block)
            assert (S_i.tobytes(), clip_i.tobytes()) == (S[i].tobytes(), clip[i].tobytes()), i

    @pytest.mark.parametrize("N", [1, 6])
    def test_one_factor_call_per_solution(self, monkeypatch, N):
        calls = []

        def counted(Q):
            calls.append(Q.shape)
            return _psd_factor(Q)

        monkeypatch.setattr(simulate, "_psd_factor", counted)
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        simulate_solution(spec, params, N, TimeGrid(1.0, 64), seed=1)
        assert calls == [(N, 3, 3)]

    def test_solution_warns_once_per_unresolved_mode(self):
        # lam_k = k^2, mu = -1/2 on a grid of one step: ell*dt > pi for k = 4, 5, 6
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            simulate_solution(spec, params, 6, TimeGrid(1.0, 1), seed=1)
        assert [w.category for w in rec] == [UnderresolvedModeWarning] * 3
        assert [str(w.message) for w in rec] == [
            f"mode oscillation unresolved: ell*dt = {math.sqrt(k * k - 1 / 16):.3g} > pi" for k in (4, 5, 6)]


class TestMarginalExactness:
    # coarse grid, exact marginals: stated covariances at n_steps = 16
    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (1e4, -1.0), (25.0, -10.0)])
    def test_endpoint_covariance(self, lam, mu):
        # Each statistic is held within Z Gaussian standard errors of its exact
        # value: sqrt(2/(n-1)) sigma^2 for a variance, sqrt((s_u^2 s_v^2 + c^2)/n)
        # for the covariance c.  At Z = 5 a correct sampler fails one statistic
        # with probability 5.7e-7, and this test (3 statistics, 3 modes) with
        # about 5e-6.  481 000 replicates keep every tolerance within the one of
        # the earlier form 2 want/sqrt(n) + 4 sqrt(s_u^2 s_v^2/n) at 40 000
        # replicates; Var v at (1e4, -1) needs the most.
        Z = 5.0
        n_rep = 481_000
        grid = TimeGrid(1.0, 16)
        u, v = endpoint_states(lam, mu, grid, n_rep, np.random.Generator(np.random.Philox(5)))
        mm = mode_moments(lam, mu, 1.0)
        var_u, var_v, cov_uv = mm.int_f2, mm.int_fdot2, fund_cross(lam, mu, 1.0)
        var_se = math.sqrt(2.0 / (n_rep - 1))
        for got, want, se, name in [
            (u.var(ddof=1), var_u, var_se * var_u, "Var u"),
            (v.var(ddof=1), var_v, var_se * var_v, "Var v"),
            (np.cov(u, v)[0, 1], cov_uv, math.sqrt((var_u * var_v + cov_uv ** 2) / n_rep), "Cov uv"),
        ]:
            assert abs(got - want) < Z * se, f"{name}: {got} vs {want}, z = {(got - want) / se:.2f}"

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
        # one fill of a replicate's row (the Monte Carlo's draws) gives the
        # values of the (seed, replicate, mode) stream drawn as 2n path normals,
        # then the two normals eta
        draws = np.empty((2, 2 * 100 + 2))
        for m, row in enumerate(draws):
            mode_stream(7, m, 3).standard_normal(out=row)
            shaped = mode_stream(7, m, 3)
            assert np.array_equal(row[:200].reshape(100, 2), shaped.standard_normal((100, 2)))
            assert np.array_equal(row[200:], shaped.standard_normal(2))

    @pytest.mark.parametrize("seed, replicate, k", [(0, 0, 0), (2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1),
                                                    (2 ** 64 - 1, 0, 2 ** 32 - 1), (5, 2 ** 32 - 1, 0)])
    @pytest.mark.parametrize("left", ["unused", "mid_buffer", "pending_uint32"])
    def test_rekeyed_stream_matches_fresh(self, seed, replicate, k, left):
        # the Monte Carlo re-keys one generator per replicate for every mode: whatever
        # it drew before, it then gives the values of a fresh (seed, replicate, mode) stream
        gen = mode_stream(3, 1, 2)
        if left == "mid_buffer":
            gen.standard_normal(1)
            assert gen.bit_generator.state["buffer_pos"] < 4
        elif left == "pending_uint32":
            gen.integers(0, 10, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
        assert mode_stream(seed, replicate, k, gen) is gen
        fresh = mode_stream(seed, replicate, k)
        # full-range draws are the raw 32-bit halves: no rejection step can hide a stale one
        assert np.array_equal(gen.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2 ** 32, size=3, dtype=np.uint32))
        assert np.array_equal(gen.standard_normal(1001), fresh.standard_normal(1001))

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
# the grid, scaled beyond the float range of lam*u, overdamped with real roots, and
# lam < 0, a path growing like e^(10 t)
CHAIN_MODES = [
    (1.0, None, -0.5),
    (1.0, None, 0.0),
    (1e4, None, -1.0),
    (1.0123e7, None, 1.5),
    (None, 80.0, 1.5),
    (None, 200.0, 1.6),
    (100.0, None, -5000.0),
    (-100.0, None, 0.0),
]


def chain_operators(lam, log_lam, mu, dt=1.0 / 4096):
    (P,), (Q,), _ = _scaled_transition([lam if lam is not None else math.exp(log_lam)], [mu], dt)
    S, _ = _psd_factor(Q)
    return P, S


class TestBlockedChain:
    @pytest.mark.parametrize("mode", CHAIN_MODES)
    # within one block; one, two and a remainder of blocks; 5 chunks and a last of
    # 16 blocks + 3 steps; 2 whole chunks; one chunk of blocks and a remainder
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 4099, 2 * _CHUNK, _CHUNK - 5])
    @pytest.mark.parametrize("m", [1, 3, 40])  # 40: a whole chunk's carry takes two products
    def test_matches_step_loop(self, mode, n, m):
        P, S = chain_operators(*mode)
        xi = np.random.default_rng(n * 10 + m).standard_normal((n, 2, m))
        u, v, dwp = _run_chain(_chain_operators(P, S, n), np.zeros((2, m)), xi)
        assert u.shape == v.shape == (n + 1, m) and dwp.shape == (n, m)
        assert np.all(u[0] == 0.0) and np.all(v[0] == 0.0)
        for got, want in zip((u, v), reference_chain(P, S, xi)):
            err = np.max(np.abs(got - want), axis=0)
            assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=0))
        assert np.array_equal(dwp, S[2, 0] * xi[:, 0] + S[2, 1] * xi[:, 1])

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_chunks_are_one_run(self, mode):
        # the Monte Carlo runs whole chunks in separate calls, each from the state
        # the last one ended in: the values of one call over the whole path
        P, S = chain_operators(*mode)
        n = 2 * _CHUNK + 3 * _BLOCK + 5
        xi = np.random.default_rng(3).standard_normal((n, 2, 4))
        ops = _chain_operators(P, S, n)
        u, v, dwp = _run_chain(ops, np.zeros((2, 4)), xi)
        x = np.zeros((2, 4))
        for t0 in range(0, n, _CHUNK):
            uc, vc, dc = _run_chain(ops, x, xi[t0:t0 + _CHUNK])
            t1 = t0 + len(dc)
            assert np.array_equal(uc, u[t0:t1 + 1]) and np.array_equal(vc, v[t0:t1 + 1])
            assert np.array_equal(dc, dwp[t0:t1])
            x = np.stack((uc[-1], vc[-1]))

    @pytest.mark.parametrize("n", [_BLOCK - 3, _CHUNK, 2 * _CHUNK + 3 * _BLOCK + 5])
    def test_chunk_buffers_give_the_same_values(self, n):
        # the Monte Carlo's workspace: one chunk's buffers, written by every chunk in turn
        # (the last one short) and holding the last chunk's values when a call starts
        P, S = chain_operators(*CHAIN_MODES[0])
        xi = np.random.default_rng(5).standard_normal((n, 2, 4))
        ops = _chain_operators(P, S, n)
        out = _chain_buffers(4, n)
        for buf in out:
            buf.fill(np.nan)
        x = np.zeros((2, 4))
        for t0 in range(0, n, _CHUNK):
            got = _run_chain(ops, x, xi[t0:t0 + _CHUNK], out)
            for g, w in zip(got, _run_chain(ops, x, xi[t0:t0 + _CHUNK])):
                assert np.array_equal(g, w) and np.shares_memory(g, out[0])
            x = np.stack((got[0][-1], got[1][-1]))

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_block_factor(self, mode):
        # S = [[S_ss, 0], [c^T, sigma]] with S S^T = Q: the state noise needs only two normals
        lam, log_lam, mu = mode
        _, (Q,), _ = _scaled_transition([lam if lam is not None else math.exp(log_lam)], [mu], 1.0 / 4096)
        S, _ = _psd_factor(Q)
        assert np.all(S[:2, 2] == 0.0) and S[2, 2] >= 0.0
        assert np.max(np.abs(S @ S.T - Q)) <= 1e-14 * np.max(np.abs(Q))

    @pytest.mark.parametrize("mode", CHAIN_MODES)
    def test_layout_independent(self, mode):
        # the Monte Carlo engine passes a transposed view of replicate-major draws
        P, S = chain_operators(*mode)
        buf = np.random.default_rng(1).standard_normal((5, 4099, 2))
        view = buf.transpose(1, 2, 0)
        ops, x0 = _chain_operators(P, S, 4099), np.zeros((2, 5))
        for got, want in zip(_run_chain(ops, x0, view),
                             _run_chain(ops, x0, np.ascontiguousarray(view))):
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
