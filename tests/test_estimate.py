"""Normal-equation statistics, the closed-form estimator, and the error identity."""
import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hypermle import estimate
from hypermle.equations import PRESETS, preset
from hypermle.estimate import (
    SingularSystemError,
    Stats,
    _mode_coeffs,
    _mode_sums,
    error_decomposition,
    estimate_from_trajectories,
    mle,
    sufficient_statistics,
)
from hypermle.fundamental import psi
from hypermle.montecarlo import run_replicates
from hypermle.simulate import TimeGrid, UnderresolvedModeWarning, simulate_solution
from hypermle.spectrum import (Constant, Explicit, ExpLaw, LogLaw, LogLogLaw, ModelParams, PowerLaw,
                               SignedAlternating, SpectrumSpec)

EX1 = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
EX1_PARAMS = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)


def synth_stats(K1, K2, K12, th1, th2, F1=0.3, F2=-0.2, L1=0.05, L2=-0.07, N=5):
    A1 = F1 + L1 + K1 * th1 + K12 * th2
    A2 = F2 + L2 + K12 * th1 + K2 * th2
    return Stats(A1, A2, F1, F2, K1, K2, K12, L1, L2, N, True)


class TestMle:
    def test_synthetic_round_trip(self):
        st = synth_stats(3.0, 2.0, 0.7, 2.0, -1.0)
        th1, th2 = mle(st)
        assert th1 == pytest.approx(2.0, rel=1e-14)
        assert th2 == pytest.approx(-1.0, rel=1e-14)

    def test_decoupled_when_k12_zero(self):
        st = synth_stats(3.0, 2.0, 0.0, 1.5, 0.25)
        th1, th2 = mle(st)
        assert th1 == pytest.approx((st.A1 - st.F1 - st.L1) / st.K1, rel=1e-14)
        assert th2 == pytest.approx((st.A2 - st.F2 - st.L2) / st.K2, rel=1e-14)

    def test_near_singular_rejected(self):
        K1, K2 = 3.0, 2.0
        st = synth_stats(K1, K2, math.sqrt(K1 * K2) * (1 - 1e-14), 1.0, 1.0)
        with pytest.raises(SingularSystemError) as err:
            mle(st)
        assert err.value.conditioning is not None

    def test_nu_identically_zero_errors_out(self):
        # no theta2 information at all: K2 = 0
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(0))
        params = ModelParams(1.0, 0.0, (0.5, 2.0), (-1.0, 1.0), 1.0)
        trajs = simulate_solution(spec, params, 5, TimeGrid(1.0, 64), seed=3)
        st = sufficient_statistics(trajs, spec)
        assert st.A2 == 0.0 and st.K2 == 0.0 and st.K12 == 0.0
        with pytest.raises(SingularSystemError):
            mle(st)

    def test_all_zero_paths_give_zero_stats(self):
        from hypermle.simulate import ModeTrajectory

        n = 32
        trajs = [
            ModeTrajectory(k, np.zeros(n + 1), np.zeros(n + 1), np.zeros(n), 1.0,
                           lam=float(k * k), mu=-0.5, grid_dt=1.0 / n)
            for k in (1, 2)
        ]
        st = sufficient_statistics(trajs, EX1, use_endpoint_identities=False)
        for f in ("A1", "A2", "F1", "F2", "K1", "K2", "K12", "L1", "L2"):
            assert getattr(st, f) == 0.0
        # endpoint variant: A2 alone picks up the -T/2 Ito correction per mode
        st_e = sufficient_statistics(trajs, EX1, use_endpoint_identities=True)
        assert st_e.A2 == pytest.approx(-1.0)
        assert st_e.K12 == 0.0 and st_e.A1 == 0.0


class TestStatistics:
    def test_endpoint_vs_riemann_shrinks_with_dt(self):
        # |K12_endpoint - K12_riemann| should drop roughly 4x when steps quadruple
        ratios = []
        for seed in range(20):
            diffs = []
            for n_steps in (256, 1024):
                grid = TimeGrid(1.0, n_steps)
                trajs = simulate_solution(EX1, EX1_PARAMS, 10, grid, seed=100 + seed)
                se = sufficient_statistics(trajs, EX1, use_endpoint_identities=True)
                sr = sufficient_statistics(trajs, EX1, use_endpoint_identities=False)
                diffs.append(abs(se.K12 - sr.K12))
            ratios.append(diffs[0] / diffs[1])
        med = float(np.median(ratios))
        assert 2.0 < med < 8.0, f"median shrink factor {med}"

    def test_cauchy_schwarz_positivity(self):
        # K1 K2 - K12^2 > 0 on every one of 1000 simulated datasets
        grid = TimeGrid(1.0, 64)
        hits = 0
        for seed in range(250):
            batch = run_replicates(EX1, EX1_PARAMS, 3, grid, seed=10_000 + seed, M=4)
            dets = batch.K1 * batch.K2 - batch.K12 ** 2
            assert np.all(dets > 0.0)
            hits += len(dets)
        assert hits == 1000

    def test_consistency_estimate_small_run(self):
        # batched engine: mean estimate near the truth at moderate N
        batch = run_replicates(EX1, EX1_PARAMS, 50, TimeGrid(1.0, 1024), seed=5, M=60)
        assert np.nanmean(batch.theta1_hat) == pytest.approx(1.0, abs=0.02)
        assert np.nanmean(batch.theta2_hat) == pytest.approx(-0.5, abs=0.2)


def reference_sums(u, v, dw, dt, lam_over_s, mu):
    """_mode_sums written out as (sum of products, sum of their magnitudes) along time."""
    u0, v0, dv = u[:-1], v[:-1], np.diff(v, axis=0)
    dwhat = dv + (lam_over_s * u0 - mu * v0) * dt
    pairs = {"su2s": (u0, u0 * dt), "sv2": (v0, v0 * dt), "suvs": (u0, v0 * dt),
             "sudvs": (u0, dv), "svdv": (v0, dv), "sudws": (u0, dw), "svdw": (v0, dw),
             "sudw_res": (u0, dwhat), "svdw_res": (v0, dwhat)}
    out = {key: ((a * b).sum(axis=0), np.abs(a * b).sum(axis=0)) for key, (a, b) in pairs.items()}
    for key, (a, b) in {"uTs2": (u, u), "uvTs": (u, v), "vT2": (v, v)}.items():
        out[key] = (a[-1] * b[-1], np.abs(a[-1] * b[-1]))
    return out


class TestModeSums:
    @pytest.mark.parametrize("shape", [(513,), (513, 4)])
    def test_matches_product_sums(self, shape):
        # the sums accumulate in another order than numpy's pairwise sum; each
        # order is within n eps of the sum of magnitudes, n = 512 terms
        rng = np.random.default_rng(5)
        u = np.cumsum(rng.standard_normal(shape), axis=0)
        v = np.cumsum(rng.standard_normal(shape), axis=0)
        dw = rng.standard_normal((512,) + shape[1:])
        got = _mode_sums(u, v, dw, 1.0 / 512, 9.0, -0.5, residual=True)
        want = reference_sums(u, v, dw, 1.0 / 512, 9.0, -0.5)
        assert got.keys() == want.keys()
        for key, (value, magnitude) in want.items():
            assert np.all(np.abs(got[key] - value) <= 2 * 512 * np.finfo(float).eps * magnitude), key

    @pytest.mark.parametrize("shape", [(513,), (513, 4)])
    def test_endpoint_sums_form_no_dv_sums(self, shape, monkeypatch):
        # the endpoint contributions read no sum against dv or dwhat, so none is formed
        rng = np.random.default_rng(6)
        u = np.cumsum(rng.standard_normal(shape), axis=0)
        v = np.cumsum(rng.standard_normal(shape), axis=0)
        dw = rng.standard_normal((512,) + shape[1:])
        want = reference_sums(u, v, dw, 1.0 / 512, 9.0, -0.5)

        def no_diff(*args, **kwargs):
            raise AssertionError("dv formed")

        monkeypatch.setattr(np, "diff", no_diff)
        got = _mode_sums(u, v, dw, 1.0 / 512, 9.0, -0.5)
        assert got.keys() == want.keys() - {"sudvs", "svdv", "sudw_res", "svdw_res"}
        for key in got:
            value, magnitude = want[key]
            assert np.all(np.abs(got[key] - value) <= 2 * 512 * np.finfo(float).eps * magnitude), key


class TestErrorDecomposition:
    def test_identity_exact_for_shared_endpoints(self):
        for seed in (0, 1, 2):
            for n_steps in (64, 512):
                trajs = simulate_solution(EX1, EX1_PARAMS, 8, TimeGrid(1.0, n_steps), seed=seed)
                dec = error_decomposition(trajs, EX1, EX1_PARAMS, increments="residual")
                th = mle(dec.stats)
                direct = (th[0] - 1.0, th[1] + 0.5)
                for d, r in zip(direct, dec.reconstructed):
                    assert abs(d - r) <= 1e-9 * abs(d)

    def test_isometry(self):
        # E iota_i^2 = E K_i (켜 psi), Monte Carlo vs quadrature
        pv = psi(EX1, EX1_PARAMS, 30)
        batch = run_replicates(EX1, EX1_PARAMS, 30, TimeGrid(1.0, 512), seed=31, M=400)
        r1 = float(np.mean(batch.iota1 ** 2) / pv.psi1)
        r2 = float(np.mean(batch.iota2 ** 2) / pv.psi2)
        assert 0.8 < r1 < 1.2
        assert 0.8 < r2 < 1.2

    def test_d_n_shrinks_with_n(self):
        meds = []
        for N in (10, 40, 160):
            batch = run_replicates(EX1, EX1_PARAMS, N, TimeGrid(1.0, 256), seed=37, M=30)
            meds.append(float(np.median(batch.D_N)))
        assert meds[0] > meds[1] > meds[2]

    def test_missing_dw_rejected(self):
        trajs = simulate_solution(EX1, EX1_PARAMS, 3, TimeGrid(1.0, 64), seed=7)
        trajs[1].dw = None
        with pytest.raises(ValueError):
            error_decomposition(trajs, EX1, EX1_PARAMS)


class TestTrajectoryInputs:
    def test_mode_fields_required(self):
        # without lam and mu the residual route's iota would be NaN and no mode underresolved
        from hypermle.simulate import ModeTrajectory

        n = 8
        with pytest.raises(TypeError):
            ModeTrajectory(1, np.zeros(n + 1), np.zeros(n + 1), np.zeros(n))
        with pytest.raises(TypeError):
            ModeTrajectory(1, np.zeros(n + 1), np.zeros(n + 1), np.zeros(n), 1.0, grid_dt=1.0 / n)

    def test_mixed_grids_rejected(self):
        # the same n_steps over T = 1 and T = 2: equal lengths, steps of different size
        trajs = (simulate_solution(EX1, EX1_PARAMS, 2, TimeGrid(1.0, 64), seed=3)
                 + simulate_solution(EX1, EX1_PARAMS, 3, TimeGrid(2.0, 64), seed=3)[2:])
        with pytest.raises(ValueError, match="share one grid"):
            sufficient_statistics(trajs, EX1)
        with pytest.raises(ValueError, match="share one grid"):
            estimate_from_trajectories(trajs, EX1, EX1_PARAMS)


# sequences at the float range's edges, where the direct products overflow or vanish
EDGE_SPECS = {
    "explicit": SpectrumSpec(
        Explicit([0.0, 1e308, -1e308, 3.0, -0.0, 1e-308, 2.5, -7.0]),
        SignedAlternating(Explicit([0.0, 1e308, -1e308, 3.0, -0.0, 1e-308, 2.5, -7.0])),
        Explicit([1e308, 0.0, -2.0, 1e-300, 5.0, 0.0, -1e200, 1e150]),
        Explicit([1e308, 0.0, -2.0, 1e-300, 5.0, 0.0, -1e200, 1e150])),
    "log_laws": SpectrumSpec(SignedAlternating(LogLaw(2.0, 3.0, 1.0)), LogLogLaw(-1.5, 3.0),
                             LogLaw(-1.0, 2.0, 1.0), SignedAlternating(ExpLaw(1.0, 1.5))),
    "power_overflow": SpectrumSpec(PowerLaw(1e-200, 300.0), PowerLaw(-1e-200, 300.0),
                                   PowerLaw(0.0, 300.0), PowerLaw(1e305, 2.0)),
    "exp_overflow": SpectrumSpec(ExpLaw(1e-300, 3.0), ExpLaw(-2.0, 1.0), ExpLaw(-1e-300, 3.0),
                                 ExpLaw(0.0, 2.0)),
}


def _bits(table, keys=None):
    return b"".join(np.asarray(table[key], dtype=float).tobytes() for key in sorted(keys or table))


class TestModeCoeffs:
    """One coefficient table for all modes; each mode's row is that mode's table alone."""

    @pytest.mark.parametrize("name", sorted(PRESETS) + sorted(EDGE_SPECS))
    def test_table_is_each_mode_alone(self, name):
        spec = preset(name)[0] if name in PRESETS else EDGE_SPECS[name]
        ks = np.arange(1, min(700, spec.k_max) + 1)
        scale = 2.0 ** ((37 * ks) % 700 - 10)  # powers of two from 2^-10 to 2^689
        table = _mode_coeffs(spec, ks, scale)
        assert all(col.shape == ks.shape for col in table.values())
        for i, k in enumerate(ks.tolist()):
            alone = _mode_coeffs(spec, [k], [scale[i]])
            assert _bits(alone) == _bits({key: col[i:i + 1] for key, col in table.items()}), k
        back = np.arange(len(ks))[::-7]  # any subset, in any order
        assert _bits(_mode_coeffs(spec, ks[back], scale[back])) == _bits(
            {key: col[back] for key, col in table.items()})

    def test_exact_direct_products(self):
        spec, _ = preset("alg_ex1")
        assert _mode_coeffs(spec, [3], [4.0])["tau_s"][0] == 9.0 / 4.0

    def test_log_space_products_past_the_float_range(self):
        # kappa_400 = e^800 overflows; with scale 2^577 ~ e^400 its products with the
        # scale divisions are finite, from the signed log-space sums
        spec, _ = preset("sec5_example")
        scale = 2.0 ** round(800 / (2 * math.log(2)))
        table = _mode_coeffs(spec, [400], [scale])
        assert spec.kappa.value_array([400])[0] == math.inf
        log_nu = math.log(math.log(math.log(403.0)))
        for key, log in (("kappa_tau_s2", 1200.0 - 2 * math.log(scale)),
                         ("kappa_nu_s", 800.0 + log_nu - math.log(scale)),
                         ("kappa_nu_s2", 800.0 + log_nu - 2 * math.log(scale))):
            assert math.isfinite(table[key][0]), key
            assert table[key][0] == pytest.approx(math.exp(log), rel=1e-12), key

    def test_one_table_per_accumulate(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _mode_coeffs(*args)

        monkeypatch.setattr(estimate, "_mode_coeffs", counted)
        trajs = simulate_solution(EX1, EX1_PARAMS, 6, TimeGrid(1.0, 64), seed=3)
        sufficient_statistics(trajs, EX1)
        assert len(calls) == 1 and list(calls[0][1]) == [1, 2, 3, 4, 5, 6]


class TestScaleEquivariance:
    def test_tau_rescaling(self):
        # simulating with tau' = c tau and theta1' = theta1/c leaves the data
        # distribution invariant, so c * theta1_hat' ~ theta1_hat
        c = 3.0
        spec_scaled = SpectrumSpec(Constant(0), PowerLaw(c, 2), Constant(0), Constant(1))
        params_scaled = ModelParams(1.0 / c, -0.5, (0.5 / c, 2.0 / c), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 512)
        base = run_replicates(EX1, EX1_PARAMS, 20, grid, seed=41, M=120)
        scaled = run_replicates(spec_scaled, params_scaled, 20, grid, seed=43, M=120)
        stat = ks_2samp(base.theta1_hat, c * scaled.theta1_hat)
        ne = 120 / 2
        assert stat.statistic < 1.628 / math.sqrt(ne)

    def test_same_seed_rescaling_is_exact(self):
        # with identical streams the rescale is an algebraic identity
        c = 2.0  # power of two: exact in floating point
        spec_scaled = SpectrumSpec(Constant(0), PowerLaw(c, 2), Constant(0), Constant(1))
        params_scaled = ModelParams(1.0 / c, -0.5, (0.5 / c, 2.0 / c), (-1.0, 1.0), 1.0)
        grid = TimeGrid(1.0, 256)
        base = run_replicates(EX1, EX1_PARAMS, 10, grid, seed=47, M=8)
        scaled = run_replicates(spec_scaled, params_scaled, 10, grid, seed=47, M=8)
        assert np.allclose(c * scaled.theta1_hat, base.theta1_hat, rtol=1e-10)


class TestEstimateResult:
    def test_report_fields(self):
        trajs = simulate_solution(EX1, EX1_PARAMS, 12, TimeGrid(1.0, 256), seed=53)
        pv = psi(EX1, EX1_PARAMS, 12)
        res = estimate_from_trajectories(trajs, EX1, EX1_PARAMS, pv)
        assert res.psi_at_truth
        assert res.norm_err1 == pytest.approx(math.sqrt(pv.psi1) * (res.theta1_hat - 1.0))
        assert 0.0 <= res.D_N < 1.0
        assert math.isfinite(res.iota1) and math.isfinite(res.iota2)


class TestUnderresolvedModes:
    def test_exponential_spectrum_counted_and_warned(self):
        # sec5: ell_k ~ e^k, so modes k >= 10 oscillate faster than dt = 1/4096 resolves
        spec, params = preset("sec5_example")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderresolvedModeWarning)
            trajs = simulate_solution(spec, params, 12, TimeGrid(1.0, 4096), seed=3)
        with pytest.warns(UnderresolvedModeWarning):
            res = estimate_from_trajectories(trajs, spec, params)
        assert res.underresolved_modes == 3

    def test_resolved_grid_reports_zero_without_warning(self):
        spec, params = preset("alg_ex1", d=1)
        trajs = simulate_solution(spec, params, 40, TimeGrid(1.0, 4096), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnderresolvedModeWarning)
            res = estimate_from_trajectories(trajs, spec, params)
        assert res.underresolved_modes == 0
