"""Harness-level tests: KS oracle, growth fits, LLN ratios, determinism, the streamed engine."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from hypermle.equations import preset
from hypermle import montecarlo
from hypermle.estimate import _coeff_rows, _mode_coeffs, _mode_contrib, _mode_sums
from hypermle.fundamental import PsiValues
from hypermle.montecarlo import (
    _CHUNK,
    _KS_C,
    ExperimentConfig,
    _bootstrap_slopes,
    _mode_task,
    fit_growth,
    ks_statistic,
    run_consistency,
    run_normality,
    run_replicates,
    verify_lln,
)
from hypermle.simulate import (_BLOCK, TimeGrid, TransitionError, _chain_operators, _psd_factor,
                               _run_chain, _scaled_transition, _true_modes, mode_stream, transition)
from hypermle.spectrum import Constant, SpectrumSpec


class TestKsStatistic:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        D, crit = ks_statistic(x)
        assert D == pytest.approx(kstest(x, "norm").statistic, rel=1e-10)
        assert crit[0.01] == pytest.approx(1.628 / math.sqrt(500))
        assert crit[0.05] == pytest.approx(1.358 / math.sqrt(500))

    def test_point_mass_at_median(self):
        D, _ = ks_statistic(np.zeros(100))
        assert D == pytest.approx(0.5)

    def test_unit_shift_gap(self):
        rng = np.random.default_rng(1)
        D, _ = ks_statistic(rng.standard_normal(100000) + 1.0)
        # sup_x |Phi(x) - Phi(x-1)| = Phi(1/2) - Phi(-1/2)
        want = 0.3829249
        assert D == pytest.approx(want, abs=0.01)

    def test_calibration(self):
        # normal samples rarely exceed the 5% critical value
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(100):
            D, crit = ks_statistic(rng.standard_normal(1000))
            hits += D < crit[0.05]
        assert hits >= 94

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_statistic(np.zeros(10))


class TestFitGrowth:
    def test_power_columns(self):
        rows = [PsiValues(n, 2.0 * n ** 3, 0.5 * n, 0.0, 0.0, 0.0)
                for n in (50, 100, 200, 400, 800)]
        fit = fit_growth(rows)
        assert fit["psi1"]["slope"] == pytest.approx(3.0, abs=1e-9)
        assert fit["psi2"]["slope"] == pytest.approx(1.0, abs=1e-9)
        assert not fit["psi1"]["log_flag"] and not fit["psi2"]["log_flag"]

    def test_log_column_flagged(self):
        rows = [PsiValues(n, 3.0 + math.log(n), n ** 2, 0.0, 0.0, 0.0)
                for n in (50, 100, 200, 400, 800)]
        fit = fit_growth(rows)
        assert fit["psi1"]["log_flag"]
        assert not fit["psi2"]["log_flag"]

    def test_needs_four_points(self):
        rows = [PsiValues(n, n, n, 0.0, 0.0, 0.0) for n in (10, 20, 30)]
        with pytest.raises(ValueError):
            fit_growth(rows)


def exp_weight_lln_fixture(n_terms, seed=0):
    """(sum e^k xi_k^2) / (sum e^k) for iid standard normals; has no limit.

    Returned as the running sequence m -> ratio_m, computed with normalized
    weights so no overflow occurs.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xE], dtype=np.uint64)))
    xi2 = rng.standard_normal(n_terms) ** 2
    out = np.empty(n_terms)
    for m in range(1, n_terms + 1):
        w = np.exp(np.arange(1, m + 1, dtype=float) - m)  # e^{k-m}
        out[m - 1] = float(np.dot(w, xi2[:m]) / np.sum(w))
    return out


class TestLlnFixture:
    def test_exponential_weights_do_not_stabilize(self):
        # the sequence keeps making O(1) moves arbitrarily late
        r = exp_weight_lln_fixture(400, seed=3)
        tail = r[200:]
        assert np.max(tail) - np.min(tail) > 0.5
        # compare: uniform weights settle by the same index
        rng = np.random.default_rng(3)
        xi2 = rng.standard_normal(400) ** 2
        flat = np.cumsum(xi2) / np.arange(1, 401)
        assert np.max(flat[200:]) - np.min(flat[200:]) < 0.25


class TestHarness:
    def setup_method(self):
        spec, params = preset("alg_ex1", d=1)
        self.cfg = ExperimentConfig(
            spec=spec, params=params, N_list=[10, 20, 40], replicates=40,
            n_steps=512, seed=101,
        )

    def test_consistency_errors_decay(self):
        res = run_consistency(self.cfg)
        rows = res["rows"]
        assert rows[0]["mean_abs_err1"] > rows[-1]["mean_abs_err1"]
        assert res["slope1"] < -0.8
        assert all(r["n_excluded"] == 0 for r in rows)
        # opportunistic identity check ran and held on every replicate
        assert all(r["identity_max_rel"] < 1e-9 for r in rows)

    def test_identity_defect_measured_against_rms_error(self):
        # one replicate's error here is near zero; the defect is not
        spec, params = preset("alg_ex1", d=1)
        batch = run_replicates(spec, params, 10, TimeGrid(1.0, 4096), seed=210001, M=48)
        assert batch.identity_max_rel < 1e-9

    def test_normality_report_shape(self):
        rep = run_normality(self.cfg)
        assert rep.N == 40
        assert len(rep.norm_err1) == 40
        assert 0.0 <= rep.ks1 <= 1.0 and 0.0 <= rep.ks2 <= 1.0
        assert -1.0 <= rep.corr12 <= 1.0
        assert rep.route == "stats"

    def test_grid_spans_the_model_horizon(self):
        # psi is taken over params.T, so the paths must run to it too; a grid over
        # T = 4 against params T = 1 gave KS 0.302/0.317 where 0.210 is right
        spec, params = preset("alg_ex1", d=1, T=4.0)
        config = ExperimentConfig(spec=spec, params=params, N_list=[20], replicates=60,
                                  n_steps=512, seed=3)
        assert config.grid.T == 4.0
        assert config.grid.dt == 4.0 / 512

    def test_verify_lln_ratios(self):
        rows = verify_lln(self.cfg)
        last = rows[-1]
        assert 0.6 < last["K1_over_psi1"][0] < 1.4
        assert 0.5 < last["iota1_isometry"] < 1.5

    def test_full_determinism(self):
        a = run_consistency(self.cfg)
        b = run_consistency(self.cfg)
        for ra, rb in zip(a["rows"], b["rows"]):
            assert ra["mean_abs_err1"] == rb["mean_abs_err1"]
            assert ra["mean_abs_err2"] == rb["mean_abs_err2"]

    def test_determinism_across_worker_counts(self):
        spec, params = preset("alg_ex1", d=1)
        grid = TimeGrid(1.0, 256)
        a = run_replicates(spec, params, 12, grid, seed=700, M=20, workers=1)
        b = run_replicates(spec, params, 12, grid, seed=700, M=20, workers=5)
        assert np.array_equal(a.theta1_hat, b.theta1_hat)
        assert np.array_equal(a.theta2_hat, b.theta2_hat)
        assert np.array_equal(a.K12, b.K12)

    def test_consistency_monotone_with_bootstrap_confidence(self):
        # errors at the largest N are below those at the smallest N, with the
        # bootstrap intervals separated (99%-style confidence statement)
        res = run_consistency(self.cfg)
        first, last = res["rows"][0], res["rows"][-1]
        assert last["mean_abs_err1_ci"][1] < first["mean_abs_err1_ci"][0]
        assert last["mean_abs_err2_ci"][1] < first["mean_abs_err2_ci"][0]
        lo, hi = res["slope1_ci"]
        assert lo <= res["slope1"] <= hi
        assert hi < 0.0  # decaying with confidence

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_coefficient_table_per_run(self, monkeypatch, workers):
        calls = []

        def counted(*args):
            calls.append(args)
            return _mode_coeffs(*args)

        monkeypatch.setattr(montecarlo, "_mode_coeffs", counted)
        spec, params = preset("alg_ex1", d=1)
        run_replicates(spec, params, 12, TimeGrid(1.0, 64), seed=700, M=4, workers=workers)
        assert len(calls) == 1 and list(calls[0][1]) == list(range(1, 13))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_noise_factor_per_run(self, monkeypatch, workers):
        calls = []

        def counted(Q):
            calls.append(Q.shape)
            return _psd_factor(Q)

        monkeypatch.setattr(montecarlo, "_psd_factor", counted)
        spec, params = preset("alg_ex1", d=1)
        run_replicates(spec, params, 12, TimeGrid(1.0, 64), seed=700, M=4, workers=workers)
        assert calls == [(12, 3, 3)]

    def test_clip_raises_before_any_path_is_drawn(self, monkeypatch):
        def second_mode_bad(lam, mu, dt):
            P, Q, scale = _scaled_transition(lam, mu, dt)
            Q[1, 1, 1] = -1.0  # mode 2's state noise leaves the PSD cone
            return P, Q, scale

        streams = []
        monkeypatch.setattr(montecarlo, "_scaled_transition", second_mode_bad)
        monkeypatch.setattr(montecarlo, "mode_stream", lambda *key: streams.append(key))
        spec, params = preset("alg_ex1", d=1)
        with pytest.raises(TransitionError):
            run_replicates(spec, params, 4, TimeGrid(1.0, 64), seed=700, M=2)
        assert streams == []

    def test_decomposition_route_for_stiff_spectra(self):
        spec, params = preset("sec5_example")
        batch = run_replicates(spec, params, 25, TimeGrid(1.0, 256), seed=7, M=40)
        assert batch.route == "decomposition"
        assert batch.underresolved_modes > 0
        assert np.all(np.isfinite(batch.err1[~batch.excluded]))
        assert math.isnan(batch.identity_max_rel)  # the identity check needs resolved modes

    def test_routes_agree_when_resolved(self):
        spec, params = preset("alg_ex1", d=1)
        batch = run_replicates(spec, params, 20, TimeGrid(1.0, 1024), seed=9, M=30)
        assert batch.route == "stats"
        # decomposition errors from the same batch approximate the direct ones
        dec1 = batch.err1  # stats route
        rec1 = (batch.iota1 / batch.K1 - batch.iota2 * batch.K12 / (batch.K1 * batch.K2)) / (
            1 - batch.D_N
        )
        assert np.max(np.abs(dec1 - rec1)) < 0.05 * np.std(dec1) + 5e-3


def _bootstrap_slopes_loop(err_lists, N_list, seed):
    """_bootstrap_slopes one resample and one N at a time, fitting each slope alone."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x510], dtype=np.uint64)))
    logN = np.log(np.asarray(N_list, dtype=float))
    A = np.vstack([logN, np.ones_like(logN)]).T
    slopes = np.empty(1000)
    for b in range(1000):
        means = []
        for errs in err_lists:
            idx = rng.integers(0, len(errs), size=len(errs))
            means.append(np.mean(errs[idx]))
        slopes[b] = np.linalg.lstsq(A, np.log(means), rcond=None)[0][0]
    return tuple(float(p) for p in np.percentile(slopes, (2.5, 97.5)))


class TestBootstrapSlopes:
    # the same stream of resample indices, drawn in the same order: the same bands, bit for bit
    @pytest.mark.parametrize("counts", [[48] * 4, [200] * 4, [48, 47, 48, 45]])
    def test_matches_loop(self, counts):
        rng = np.random.default_rng(len(counts) + counts[-1])
        err_lists = [np.abs(rng.standard_normal(c)) * 2.0 ** -j for j, c in enumerate(counts)]
        N_list = [5 * 2 ** j for j in range(len(counts))]
        assert _bootstrap_slopes(err_lists, N_list, 11) == _bootstrap_slopes_loop(err_lists, N_list, 11)


def two_sample_ks(a, b):
    """Two-sample sup distance and the asymptotic 1% critical value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right") / len(a)
    cb = np.searchsorted(b, both, side="right") / len(b)
    D = float(np.max(np.abs(ca - cb)))
    ne = len(a) * len(b) / (len(a) + len(b))
    return D, _KS_C[0.01] / math.sqrt(ne)


class TestTwoSampleKs:
    def test_identical_distributions(self):
        rng = np.random.default_rng(11)
        D, crit = two_sample_ks(rng.standard_normal(3000), rng.standard_normal(3000))
        assert D < crit

    def test_shift_detected(self):
        rng = np.random.default_rng(12)
        D, crit = two_sample_ks(rng.standard_normal(3000), rng.standard_normal(3000) + 0.3)
        assert D > crit


def true_mode(spec, params, k, dt):
    """(lam, mu, P, S, scale, coeffs) of mode k, as run_replicates hands it to _mode_task."""
    lam, mu, _ = _true_modes(spec, params, k)
    return one_mode(spec, k, lam[-1].item(), mu[-1].item(), dt)


def one_mode(spec, k, lam, mu, dt):
    """(lam, mu, P, S, scale, coeffs) of the mode (lam, mu) with spec's coefficients at k, built alone."""
    (P,), Q, (scale,) = _scaled_transition([lam], [mu], dt)
    (S,), _ = _psd_factor(Q)
    (coeffs,) = _coeff_rows(_mode_coeffs(spec, [k], [scale]))
    return lam, mu, P, S, scale.item(), coeffs


def _one_shot_task(k, mode, grid, seed, M, residual):
    """_mode_task's contributions from one _run_chain call over the whole grid.

    Each stream gives 2n path normals, then the two normals eta of dw's free
    part; given the path, (sum u0 eta, sum v0 eta) is L_G eta, with L_G here
    from np.linalg.cholesky of each replicate's Gram matrix of (u0, v0).
    """
    lam, mu, P, S, scale, coeffs = mode
    n = grid.n_steps
    streams = [mode_stream(seed, m, k) for m in range(M)]
    xi = np.stack([stream.standard_normal((n, 2)) for stream in streams], axis=2)
    eta = [stream.standard_normal(2) for stream in streams]
    u, v, dwp = _run_chain(_chain_operators(P, S, n), np.zeros((2, M)), xi)
    sums = _mode_sums(u, v, dwp, grid.dt, lam / scale, mu, residual=residual)
    for m in range(M):
        u0, v0 = u[:-1, m], v[:-1, m]
        gram = np.array([[u0 @ u0, u0 @ v0], [u0 @ v0, v0 @ v0]])
        free = S[2, 2] * (np.linalg.cholesky(gram) @ eta[m])
        sums["sudws"][m] += free[0]
        sums["svdw"][m] += free[1]
    sums["T"] = grid.T
    if not residual:
        return _mode_contrib(coeffs, sums, endpoint=True), None, {}
    raw = _mode_contrib(coeffs, sums, endpoint=False, residual=True)
    return _mode_contrib(coeffs, sums, endpoint=True), raw, _residual_iota_size(coeffs, sums, lam / scale, mu)


def _residual_iota_size(coeffs, sums, lam_over_s, mu):
    """Magnitudes of the three sums each residual-increment iota is the difference of."""
    return {
        "iota1": abs(coeffs["tau_s"]) * (np.abs(sums["sudvs"]) + abs(lam_over_s) * sums["su2s"]
                                         + abs(mu) * np.abs(sums["suvs"])),
        "iota2": abs(coeffs["nu"]) * (np.abs(sums["svdv"]) + abs(lam_over_s) * np.abs(sums["suvs"])
                                      + abs(mu) * sums["sv2"]),
    }


class TestStreamedModeTask:
    """_mode_task runs the chain and the sums _CHUNK steps at a time."""

    @pytest.mark.parametrize("n", [_BLOCK - 3, _CHUNK, 2 * _CHUNK, _CHUNK + 3 * _BLOCK + 5])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("preset_name, k", [("alg_ex1", 3), ("sec5_example", 5)])
    def test_matches_one_shot(self, n, residual, preset_name, k):
        spec, params = preset(preset_name)
        grid = TimeGrid(1.0, n)
        mode = true_mode(spec, params, k, grid.dt)
        got = _mode_task(k, mode, grid, 31, 4, residual)
        *want, size = _one_shot_task(k, mode, grid, 31, 4, residual)
        assert (got[1] is None) == (not residual)
        for g, w, raw in zip(got, want, (False, True)):
            if w is None:
                continue
            assert g.keys() == w.keys()
            for key in w:
                if raw and key in size:
                    # a difference of three sums: rounding scales with their magnitudes
                    assert np.all(np.abs(g[key] - w[key]) <= 1e-12 * size[key]), key
                else:
                    np.testing.assert_allclose(g[key], w[key], rtol=1e-12, err_msg=key)

    @pytest.mark.parametrize("n", [_BLOCK - 3, 2 * _CHUNK, _CHUNK + 3 * _BLOCK + 5])
    def test_halves_chained_through_start_state(self, n):
        spec, params = preset("alg_ex1")
        _, _, P, S, _, _ = true_mode(spec, params, 7, 1.0 / n)
        xi = np.random.default_rng(n).standard_normal((n, 2, 5))
        ops = _chain_operators(P, S, n)
        u, v, dw = _run_chain(ops, np.zeros((2, 5)), xi)
        h = n // 2
        u1, v1, dw1 = _run_chain(ops, np.zeros((2, 5)), xi[:h])
        u2, v2, dw2 = _run_chain(ops, np.stack((u1[-1], v1[-1])), xi[h:])
        for whole, first, second in ((u, u1, u2), (v, v1, v2)):
            assert np.array_equal(second[0], first[-1])
            joined = np.concatenate((first, second[1:]))
            err = np.max(np.abs(joined - whole), axis=0)
            assert np.all(err <= 1e-12 * np.max(np.abs(whole), axis=0))
        assert np.array_equal(np.concatenate((dw1, dw2)), dw)

    def test_peak_memory_below_twice_draw_buffer(self):
        # two normals per step; the full (n+1) x M paths of one mode would take the peak past this
        spec, params = preset("alg_ex1")
        grid = TimeGrid(1.0, 4096)
        M = 48
        mode = true_mode(spec, params, 10, grid.dt)
        draw_bytes = M * grid.n_steps * 2 * 8
        _mode_task(10, mode, grid, 3, M, True)  # one-time allocations go first
        tracemalloc.start()
        try:
            _mode_task(10, mode, grid, 3, M, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * draw_bytes, peak / draw_bytes


def _three_normal_sums(lam, mu, grid, M, seed):
    """Plain-coordinate sums of a reference sampler: three normals per step from the full Q.

    The factor is eigh of the whole 3x3 covariance of (state noise, dw), so
    every step's dw is drawn with its state noise and no sum is sampled
    given the path.  Returns (sum u dw, sum v dw, sum u dwhat, sum u^2 dt,
    sum v^2 dt) over M replicates, dwhat the residual increment.
    """
    P, Q = transition(lam, mu, grid.dt)
    w, V = np.linalg.eigh(Q)
    S = V * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    u, v = np.zeros(M), np.zeros(M)
    sudw, svdw, sudwhat, su2, sv2 = (np.zeros(M) for _ in range(5))
    for _ in range(grid.n_steps):
        eps_u, eps_v, dw = S @ rng.standard_normal((3, M))
        u_new = P[0, 0] * u + P[0, 1] * v + eps_u
        v_new = P[1, 0] * u + P[1, 1] * v + eps_v
        sudw += u * dw
        svdw += v * dw
        sudwhat += u * (v_new - v + (lam * u - mu * v) * grid.dt)
        su2 += u * u * grid.dt
        sv2 += v * v * grid.dt
        u, v = u_new, v_new
    return sudw, svdw, sudwhat, su2, sv2


def _two_normal_sums(lam, mu, grid, M, seed):
    """The same sums from _mode_task: two normals per step, dw's sums sampled given the path.

    With tau = nu = 1 and kappa = rho = 0 the contributions are the plain
    sums: iota1 = -sum u dw, iota2 = sum v dw, K1 = sum u^2 dt, K2 = sum v^2 dt,
    and the raw iota1 = -sum u dwhat.  Replicates come from calls of 5000
    with seeds seed, seed + 1, ... so that no call holds all the paths.
    """
    spec = SpectrumSpec(Constant(0), Constant(1), Constant(0), Constant(1))
    mode = one_mode(spec, 1, lam, mu, grid.dt)
    parts = []
    for call in range(M // 5000):
        contrib, raw = _mode_task(1, mode, grid, seed + call, 5000, True)
        parts.append((-contrib["iota1"], contrib["iota2"], -raw["iota1"], contrib["K1"], contrib["K2"]))
    return tuple(np.concatenate(col) for col in zip(*parts))


class TestConditionalDwSums:
    """The joint law of the dw sums with the path is that of three normals per step.

    Each statistic is a z-score of a mean (or of a difference of two
    independent means) over 40 000 replicates per sampler; |z| < 5 fails a
    correct sampler with probability 5.7e-7 per statistic, about 8e-6 for the
    14 below.
    """

    # (lam, mu) at 64 steps: resolved, where the path fixes dw up to
    # sigma^2/dt = 1.3e-5; unresolved, where sigma^2/dt = 0.84 and the sampled
    # part dominates
    @pytest.mark.parametrize("lam, mu", [(400.0, -0.5), (1e5, -0.5)])
    @pytest.mark.filterwarnings("ignore::hypermle.simulate.UnderresolvedModeWarning")
    def test_moments_match_three_normal_sampler(self, lam, mu):
        grid = TimeGrid(1.0, 64)
        M = 40_000
        ud, vd, uh, u2, v2 = _two_normal_sums(lam, mu, grid, M, seed=61)
        ud3, vd3, uh3, u23, v23 = _three_normal_sums(lam, mu, grid, M, seed=62)

        def z_diff(a, b):
            return (a.mean() - b.mean()) / math.sqrt(a.var() / len(a) + b.var() / len(b))

        def z_zero(a):
            return a.mean() / math.sqrt(a.var() / len(a))

        z = {
            "E(sum u dw)^2": z_diff(ud * ud, ud3 * ud3),
            "E(sum v dw)^2": z_diff(vd * vd, vd3 * vd3),
            "E sum u dw sum v dw": z_diff(ud * vd, ud3 * vd3),
            "E sum u dw sum u dwhat": z_diff(ud * uh, ud3 * uh3),
            "E sum v dw sum v^2 dt": z_diff(vd * v2, vd3 * v23),
            # the grid isometries, exact for left-point sums
            "E(sum u dw)^2 = E sum u^2 dt": z_zero(ud * ud - u2),
            "E(sum v dw)^2 = E sum v^2 dt": z_zero(vd * vd - v2),
        }
        bad = {name: val for name, val in z.items() if not abs(val) < 5.0}
        assert not bad, bad
