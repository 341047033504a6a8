"""Analytic-core tests: fundamental solution, M/V functions, mode integrals, psi."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import hypermle.fundamental as fundamental
import hypermle.quadrature as quadrature
import hypermle.simulate as simulate
from hypermle.config import load_config
from hypermle.equations import preset
from hypermle.fundamental import (
    FundamentalOverflowError,
    ModeMoments,
    PsiValues,
    characteristic_roots,
    covariance_u,
    fund_solution,
    m_func,
    m_func_log,
    mode_moments,
    predicted_moments,
    psi,
    psi_curve,
    scaled_mode_integrals,
    upsilon,
    v_func,
)
from hypermle.montecarlo import run_replicates
from hypermle.quadrature import integrate
from hypermle.simulate import TimeGrid, simulate_solution, transition
from hypermle.spectrum import Constant, ModelParams, PowerLaw, SpectrumSpec, lambda_mu_slog


def ode_oracle(lam, mu, t_eval, rtol=1e-11, atol=1e-13):
    """Independent high-order integration of f'' - mu f' + lam f = 0, f(0)=0, f'(0)=1."""
    sol = solve_ivp(
        lambda t, y: [y[1], mu * y[1] - lam * y[0]],
        (0.0, max(t_eval) or 1.0),
        [0.0, 1.0],
        t_eval=np.sort(t_eval),
        rtol=rtol,
        atol=atol,
        method="DOP853",
    )
    order = np.argsort(np.argsort(t_eval))
    return sol.y[0][order], sol.y[1][order]


def quadrature_oracle(lam, mu, T, rtol):
    """int f^2, int f'^2, int (T-t) f^2, int (T-t) f'^2, int f and int |f| by adaptive quadrature.

    Panels resolve every half oscillation of f, plus geometric panels toward
    t = 0 where the fast exponential rate |b| (+ ell for real roots) makes a
    boundary layer.
    """
    b = 0.5 * mu
    disc = b * b - lam
    ell = math.sqrt(abs(disc))
    edges = set(np.linspace(0.0, T, math.ceil(ell * T / math.pi) + 9).tolist())
    rate = abs(b) + (ell if disc > 0.0 else 0.0)
    if rate * T > 50.0:
        edges.update(T * 2.0 ** -j for j in range(1, math.ceil(math.log2(rate * T)) + 4))
    edges = np.array(sorted(edges))

    def quad(g):
        return integrate(g, 0.0, T, rtol=rtol, atol=1e-300, edges=edges)[0]

    def f(s):
        return fund_solution(lam, mu, s)[0]

    def fd(s):
        return fund_solution(lam, mu, s)[1]

    return {
        "if2": quad(lambda s: f(s) ** 2),
        "ifd2": quad(lambda s: fd(s) ** 2),
        "iif2": quad(lambda s: (T - s) * f(s) ** 2),
        "iifd2": quad(lambda s: (T - s) * fd(s) ** 2),
        "if": quad(f),
        "iabsf": quad(lambda s: np.abs(f(s))),
    }


def scaled_quadrature_oracle(lam, mu, T, rtol):
    """The oracle's integrals in the lam-scaled form of ScaledIntegrals (lam > 0)."""
    q = quadrature_oracle(lam, mu, T, rtol)
    sq = math.sqrt(lam)
    return {"lam_if2": lam * q["if2"], "ifd2": q["ifd2"], "lam_iif2": lam * q["iif2"],
            "iifd2": q["iifd2"], "sqlam_if": sq * q["if"], "sqlam_iabsf": sq * q["iabsf"]}


_ENERGIES = ("lam_if2", "ifd2", "lam_iif2", "iifd2")
_UNSCALED = ("if2", "ifd2", "iif2", "iifd2", "if")


def covariance_oracle(lam, mu, s, t, rtol):
    """int_0^min(s,t) f(s-r) f(t-r) dr and the integral of its absolute value, by quadrature."""
    m = min(s, t)
    ell = characteristic_roots(lam, mu).ell
    edges = np.linspace(0.0, m, math.ceil(ell * m / math.pi) + 9)

    def kernel(r):
        return fund_solution(lam, mu, s - r)[0] * fund_solution(lam, mu, t - r)[0]

    def quad(g):
        return integrate(g, 0.0, m, rtol=rtol, atol=1e-300, edges=edges)[0]

    return quad(kernel), quad(lambda r: np.abs(kernel(r)))


def one_mode_rows(lam, mu, T):
    """_scaled_integrals of the one mode (lam, mu): (5,) rows, lam-scaled for lam > 0."""
    lam = np.array([lam], dtype=float)
    rows, _ = fundamental._scaled_integrals(lam, np.array([mu], dtype=float), T, fundamental._log_lam(lam))
    return rows[:, 0]


def negative_kappa_model():
    """kappa = -12, tau = 3 k^2, rho = 1/2, nu = 2 at theta = (1, -1/2): lambda_1 = -9, lambda_2 = 0."""
    spec = SpectrumSpec(Constant(-12.0), PowerLaw(3.0, 2.0), Constant(0.5), Constant(2.0))
    return spec, ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)


class TestCharacteristicRoots:
    def test_undamped(self):
        r = characteristic_roots(1.0, 0.0)
        assert r.tag == "complex_pair" and r.ell == 1.0 and r.half_mu == 0.0

    def test_double(self):
        r = characteristic_roots(1.0, -2.0)
        assert r.tag == "double_root" and r.ell == 0.0 and r.half_mu == -1.0

    def test_real(self):
        r = characteristic_roots(3.0, -4.0)
        assert r.tag == "real_pair" and r.ell == pytest.approx(1.0) and r.half_mu == -2.0

    def test_band_is_relative(self):
        assert characteristic_roots(1e8, -2e4 * (1 + 1e-10)).tag == "double_root"
        assert characteristic_roots(1e8, -2e4 * (1 + 1e-3)).tag == "real_pair"


class TestFundSolution:
    def test_pure_sine(self):
        f, fd = fund_solution(1.0, 0.0, math.pi / 2)
        assert f == pytest.approx(1.0, abs=1e-14)
        assert fd == pytest.approx(0.0, abs=1e-14)

    def test_double_root_value(self):
        # f = t e^{-t}: known closed form, cross-checked by the ODE oracle below
        f, fd = fund_solution(1.0, -2.0, 1.0)
        assert f == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert fd == pytest.approx(0.0, abs=1e-12)

    def test_real_pair_value(self):
        f, _ = fund_solution(3.0, -4.0, 1.0)
        assert f == pytest.approx(math.sinh(1.0) * math.exp(-2.0), rel=1e-12)

    def test_against_ode_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            lam = 10.0 ** rng.uniform(-1, 5)
            mu = -(10.0 ** rng.uniform(-1, 2.5)) if rng.random() < 0.8 else rng.uniform(0, 2)
            ts = rng.uniform(0.01, 1.0, size=7)
            f, fd = fund_solution(lam, mu, ts)
            f0, fd0 = ode_oracle(lam, mu, ts)
            assert np.max(np.abs(f - f0)) < 1e-8
            assert np.max(np.abs(fd - fd0)) < 1e-6 * max(1.0, math.sqrt(lam))

    def test_ode_residual(self):
        # second derivative from the ODE itself must be consistent across branches
        rng = np.random.default_rng(2)
        for _ in range(200):
            lam = 10.0 ** rng.uniform(-1, 6)
            mu = -(10.0 ** rng.uniform(-2, 3))
            t = rng.uniform(0.0, 1.0, size=5)
            h = 1e-6
            f, fd = fund_solution(lam, mu, t)
            _, fd_p = fund_solution(lam, mu, t + h)
            _, fd_m = fund_solution(lam, mu, np.maximum(t - h, 0.0))
            fdd = (fd_p - fd_m) / (2 * h)
            lhs = fdd - mu * fd + lam * f
            scale = lam * np.max(np.abs(f)) + 1.0
            assert np.max(np.abs(lhs)) / scale < 1e-3  # central difference limits accuracy

    def test_branch_continuity_across_double_root(self):
        # lam fixed, mu swept through the double root at mu = -2
        for t in (0.5, 1.0, 2.0):
            vals = [fund_solution(1.0, -2.0 + eps, t)[0]
                    for eps in np.linspace(-1e-4, 1e-4, 41)]
            assert np.max(np.abs(np.diff(vals))) < 1e-6

    def test_overflow_reported(self):
        with pytest.raises(FundamentalOverflowError):
            fund_solution(1.0, 2000.0, 1.0)

    @pytest.mark.parametrize("lam", [1e6, 160000.0])  # antiderivatives; series at the double root
    def test_growing_mode_integrals_overflow_reported(self, lam):
        # e^{mu T} = e^800 is beyond the float range: raise instead of returning NaN
        with pytest.raises(FundamentalOverflowError):
            scaled_mode_integrals(800.0, 1.0, math.log(lam))

    def test_fs_bound_along_hyperbolic_spectrum(self):
        # sup_k sup_t f_k^2 stays bounded for lambda_k = k^2, mu = -0.5
        tgrid = np.linspace(0, 1, 64)
        sup = 0.0
        for k in range(1, 1001, 25):
            f, _ = fund_solution(float(k * k), -0.5, tgrid)
            sup = max(sup, float(np.max(f * f)))
        assert sup < 2.0


class TestMV:
    def test_exact_zero_values(self):
        assert m_func(0.0) == 0.25
        assert v_func(0.0) == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_m_at_one(self):
        assert m_func(1.0) == pytest.approx((math.e - 2.0) / 2.0, rel=1e-14)

    def test_taylor_switch_seam(self):
        # both evaluation paths at the same switch-point argument
        from hypermle.fundamental import _M_COEF, _M_SWITCH, _V_COEF, _V_SWITCH

        for x0 in (_M_SWITCH, -_M_SWITCH):
            m_taylor = float(np.polynomial.polynomial.polyval(x0, _M_COEF))
            m_direct = (math.expm1(x0) - x0) / (2.0 * x0 * x0)
            assert m_taylor == pytest.approx(m_direct, rel=1e-10)
        for x0 in (_V_SWITCH, -_V_SWITCH):
            v_taylor = float(np.polynomial.polynomial.polyval(x0, _V_COEF))
            em1 = math.expm1(x0)
            num = math.expm1(2 * x0) + 4 * em1 - 4 * x0 * em1 - 6 * x0
            v_direct = num / (4 * x0 ** 4)
            assert v_taylor == pytest.approx(v_direct, rel=1e-10)

    def test_series_branch_matches_polyval_bit_for_bit(self):
        from hypermle.fundamental import _M_COEF, _M_SWITCH, _V_COEF, _V_SWITCH

        x = np.concatenate([np.linspace(-0.2, 0.2, 100_001), [0.0, -0.0, 1e-300, -1e-300]])
        for fn, coef, switch in ((m_func, _M_COEF, _M_SWITCH), (v_func, _V_COEF, _V_SWITCH)):
            xs = x[np.abs(x) < switch]
            assert fn(xs).tobytes() == np.polynomial.polynomial.polyval(xs, coef).tobytes()

    def test_positive(self):
        x = np.linspace(-1000.0, 700.0, 4001)
        assert np.all(m_func(x) > 0.0)
        assert np.all(v_func(x[x < 350]) > 0.0)

    @pytest.mark.parametrize("x,tol", [(-1e2, 0.05), (-1e3, 0.005), (-1e4, 0.0005)])
    def test_negative_asymptotics(self, x, tol):
        assert m_func(x) / (1.0 / (2.0 * abs(x))) == pytest.approx(1.0, rel=tol)
        assert v_func(x) / (4.0 / (2.0 * abs(x)) ** 3) == pytest.approx(1.0, rel=tol)

    def test_positive_asymptotics(self):
        x = 300.0
        assert m_func(x) / (2.0 * math.exp(x) / (2 * x) ** 2) == pytest.approx(1.0, rel=0.05)
        assert v_func(x) / (4.0 * math.exp(2 * x) / (2 * x) ** 4) == pytest.approx(1.0, rel=0.05)

    def test_log_form_matches(self):
        x = np.array([-2000.0, -31.0, -1.0, 0.0, 2.5, 31.0, 500.0, 700.0, -1e6])
        got = m_func_log(x)
        mid = np.abs(x) <= 30
        assert got[mid] == pytest.approx(np.log(m_func(x[mid])), rel=1e-12)
        assert got[-2] == pytest.approx(700.0 - math.log(2 * 700.0 ** 2), rel=1e-9)
        assert got[-1] == pytest.approx(math.log(1e6 - 1) - math.log(2e12), rel=1e-9)


class TestModeMoments:
    def test_sine_integral(self):
        mm = mode_moments(1.0, 0.0, 2 * math.pi)
        assert mm.int_f2 == pytest.approx(math.pi, rel=1e-9)
        assert mm.Eu2T == mm.int_f2

    def test_gamma_integral(self):
        # int_0^inf t^2 e^{-2t} dt = 1/4, truncated at T = 50
        mm = mode_moments(1.0, -2.0, 50.0)
        assert mm.int_f2 == pytest.approx(0.25, rel=1e-9)

    def test_double_integral_oracle(self):
        # psi-style double integral of sin^2 over the triangle
        mm = mode_moments(1.0, 0.0, 2 * math.pi)
        assert mm.double_int_f2 == pytest.approx(math.pi ** 2, rel=1e-9)

    def test_closed_matches_quadrature_on_overlap(self):
        from hypermle.fundamental import _integrals_closed_complex

        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = 10.0 ** rng.uniform(0.5, 6)
            mu = -(10.0 ** rng.uniform(-2, 1.5))
            if mu * mu >= 4 * lam * 0.9:
                continue
            ell = math.sqrt(lam - mu * mu / 4)
            q = quadrature_oracle(lam, mu, 1.0, 1e-11)
            c = dict(zip(_UNSCALED, _integrals_closed_complex(*(np.array([x]) for x in (lam, mu, 1.0, ell)))))
            for fieldname in _UNSCALED[:4]:
                assert q[fieldname] == pytest.approx(c[fieldname][0], rel=1e-9)

    def test_envelope_matches_closed_at_high_frequency(self):
        from hypermle.fundamental import _integrals_closed_complex, _integrals_envelope

        lam, mu = np.array([1e15, 1e16]), np.full(2, -1.3)
        ell = np.sqrt(lam - mu * mu / 4)
        if2, ifd2, iif2, iifd2, _ = _integrals_closed_complex(lam, mu, 1.0, ell)
        closed = np.array([lam * if2, ifd2, lam * iif2, iifd2])
        assert closed == pytest.approx(np.array(_integrals_envelope(np.log(lam), mu, 1.0)), rel=1e-6)

    def test_log_native_envelope(self):
        # lambda far beyond the float range; lam * iint f^2 ~ T^2 M(mu T)
        si = scaled_mode_integrals(1.9, 1.0, log_lam=800.0)
        assert si.regime == "envelope"
        assert si.lam_iif2 == pytest.approx(m_func(1.9), rel=1e-12)

    def test_asymptotic_consistency(self):
        # quadrature double integral * lam approaches T^2 M(T mu) as lam grows
        for lam in (1e4, 1e6):
            mm = mode_moments(lam, -1.0, 1.0)
            assert mm.double_int_f2 * lam == pytest.approx(m_func(-1.0), rel=0.01)


@st.composite
def energy_modes(draw):
    """(lam, mu, T) with total phase 1e-6..1e4, |mu| T up to 1e4, and all three root kinds."""
    rnd = draw(st.randoms(use_true_random=False))
    T = 10.0 ** rnd.uniform(-3.0, 1.0)
    if draw(st.booleans()):
        mu_T = -(10.0 ** rnd.uniform(-3.0, 4.0))
    else:
        mu_T = 10.0 ** rnd.uniform(-3.0, math.log10(300.0))  # e^{mu T} stays finite
    b = 0.5 * mu_T / T
    kind = draw(st.sampled_from(["complex", "double", "real"]))
    if kind == "double":
        return b * b, 2.0 * b, T
    if kind == "complex":
        phase = 10.0 ** rnd.uniform(-6.0, 4.0)
        return b * b + (phase / T) ** 2, 2.0 * b, T
    phase = abs(b) * T * 10.0 ** rnd.uniform(-6.0, -1e-3)  # real roots: ell < |b|
    return b * b - (phase / T) ** 2, 2.0 * b, T


@st.composite
def nonpositive_modes(draw):
    """(lam, mu, T) with lam = 0 exactly or lam < 0, either sign of mu, f^2 growing up to e^700.

    Such a mode has the roots r >= 0 >= r' with lam = r r' and mu = r + r'.  f^2
    grows like e^{2 r t}, so r T <= 350 keeps it within the float range; at
    lam = 0 that is mu T = 350 (beyond it the integrals overflow, see
    test_nonpositive_lambda_overflow_reported).
    """
    rnd = draw(st.randoms(use_true_random=False))
    T = 10.0 ** rnd.uniform(-3.0, math.log10(2.0))
    r_T = 10.0 ** rnd.uniform(-3.0, math.log10(350.0))
    r2_T = -(10.0 ** rnd.uniform(-3.0, 4.0))
    if draw(st.booleans()):  # lam = 0: the roots are 0 and mu
        return 0.0, (r_T if draw(st.booleans()) else r2_T) / T, T
    return (r_T / T) * (r2_T / T), (r_T + r2_T) / T, T


class TestIntegralsProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(energy_modes())
    @example((1.0, -2.0, 50.0))               # double root, disc = 0 exactly
    @example((0.09, 0.0, 1.0))                # complex, (ell T)^2 = 0.09 < 1/4
    @example((4.0, 0.0, 1.0))                 # complex, (ell T)^2 = 4 > 1/4
    @example((3.99, -4.0, 1.0))               # real, (ell T)^2 = 0.01
    @example((3.0, -4.0, 1.0))                # real, (ell T)^2 = 1
    @example((2.5e7 + 1e6, -1e4, 1.0))        # |mu| T = 1e4, ell = 1e3
    @example((2.5e7 + 1.0, -1e4, 1.0))        # |mu| T = 1e4, ell = 1: strongly damped
    @example((2.5e7 - 1e6, -1e4, 1.0))        # |mu| T = 1e4, real roots
    @example((22501.0, 300.0, 1.0))           # growing, phase 1
    @example((1e8 + 2500.0, -100.0, 1.0))     # phase 1e4
    def test_matches_quadrature_oracle(self, mode):
        lam, mu, T = mode
        si = scaled_mode_integrals(mu, T, math.log(lam))
        q = scaled_quadrature_oracle(lam, mu, T, 1e-12)
        for name in _ENERGIES:
            assert getattr(si, name) == pytest.approx(q[name], rel=1e-10, abs=0.0), name
        assert abs(si.sqlam_if - q["sqlam_if"]) <= 1e-10 * q["sqlam_iabsf"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nonpositive_modes())
    @example((0.0, 0.0, 1.0))                 # f = t, disc = 0 exactly
    @example((0.0, -2.0, 1.0))                # lam = 0, decaying
    @example((0.0, 0.5, 1.0))                 # lam = 0, growing, series (phase 1/4)
    @example((0.0, 350.0, 1.0))               # lam = 0, f^2 grows to e^700
    @example((-1.0, 0.0, 1.0))                # f = sinh t
    @example((-9.0, -0.5, 1.0))               # negative_kappa_model's first mode
    @example((-0.01, 0.1, 1.0))               # lam < 0, series (phase 0.11)
    @example((-1e6, -1e4, 1.0))               # lam < 0, |mu| T = 1e4
    def test_nonpositive_lambda_matches_quadrature_oracle(self, mode):
        lam, mu, T = mode
        got = dict(zip(_UNSCALED, one_mode_rows(lam, mu, T)))
        q = quadrature_oracle(lam, mu, T, 1e-12)
        for name in _UNSCALED[:4]:
            assert got[name] == pytest.approx(q[name], rel=1e-10, abs=0.0), name
        assert abs(got["if"] - q["if"]) <= 1e-10 * q["iabsf"]


@st.composite
def covariance_cases(draw):
    """(lam, mu, s, t): lam = 0 or of either sign, decaying and growing modes, s and t in either order."""
    rnd = draw(st.randoms(use_true_random=False))
    lam = draw(st.sampled_from([1.0, -1.0, 0.0])) * 10.0 ** rnd.uniform(-2.0, 3.0)
    mu = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** rnd.uniform(-2.0, 1.3)
    return lam, mu, rnd.uniform(0.01, 2.0), rnd.uniform(0.01, 2.0)


def test_nonpositive_lambda_overflow_reported():
    # lam = 0 and mu T = 351: f^2 grows like e^{702}, beyond the float range
    with pytest.raises(FundamentalOverflowError):
        mode_moments(0.0, 351.0, 1.0)


def test_no_quadrature_at_run_time(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature ran at run time")

    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(fundamental, "integrate", refuse)
    monkeypatch.setattr(simulate, "integrate", refuse)
    spec, params = preset("alg_ex1", d=1)
    psi_curve(spec, params, [600])
    psi_curve(*preset("sec5_example"), [300])
    mode_moments(1.0, -2.0, 50.0)
    for k in range(1, 41):
        transition(float(k * k), -0.5, 1.0 / 4096)
    run_replicates(spec, params, 5, TimeGrid(1.0, 256), seed=1, M=2)
    for lam in (0.0, -2.0):
        for mu in (-0.5, 0.5):
            transition(lam, mu, 1.0 / 4096)
            mode_moments(lam, mu, 1.0)
            covariance_u(lam, mu, 0.4, 0.9)
    covariance_u(4.0, -1.0, 0.4, 0.9)
    neg_spec, neg_params = negative_kappa_model()
    psi_curve(neg_spec, neg_params, [3])
    simulate_solution(neg_spec, neg_params, 3, TimeGrid(1.0, 64), seed=1)


class TestCovariance:
    def test_diagonal_is_variance(self):
        t = 1.7
        assert covariance_u(4.0, -1.0, t, t) == pytest.approx(
            mode_moments(4.0, -1.0, t).int_f2, rel=1e-8
        )

    def test_zero_time(self):
        assert covariance_u(4.0, -1.0, 0.0, 1.0) == 0.0

    def test_trig_oracle(self):
        # int_0^pi sin(pi-r) sin(2pi-r) dr = -pi/2
        val = covariance_u(1.0, 0.0, math.pi, 2 * math.pi)
        assert val == pytest.approx(-math.pi / 2.0, rel=1e-9)

    def test_vanishing_covariance(self):
        # int_0^pi sin(pi-r) sin(3pi/2-r) dr = -1/2 int_0^pi sin(2r) dr = 0:
        # a sign-changing kernel whose integral cancels exactly
        val = covariance_u(1.0, 0.0, math.pi, 1.5 * math.pi)
        assert abs(val) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(covariance_cases())
    @example((1.0, 0.0, 1.3, 2.9))
    @example((400.0, -3.0, 0.7, 1.0))
    @example((25.0, -10.0, 0.4, 0.9))
    @example((2.0, 0.5, 1.0, 1.0))
    @example((0.0, 0.0, 0.5, 1.5))
    @example((-2.0, -0.5, 1.9, 0.3))
    def test_shift_identity_matches_quadrature(self, case):
        # g(d) int_0^s f^2 + f(d) f(s)^2 / 2 against the defining integral
        lam, mu, s, t = case
        val, val_abs = covariance_oracle(lam, mu, s, t, 1e-12)
        assert abs(covariance_u(lam, mu, s, t) - val) <= 1e-10 * val_abs


class TestPredictedMoments:
    def test_spec_values(self):
        pm = predicted_moments(100.0, 0.0, 1.0)
        assert pm["EintU2_asym"] == pytest.approx(0.0025, rel=1e-12)
        assert pm["VarIntV2_asym"] == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_mu_continuity_at_zero(self):
        lo = predicted_moments(50.0, -1e-9, 1.0)
        hi = predicted_moments(50.0, 1e-9, 1.0)
        for key in lo:
            assert lo[key] == pytest.approx(hi[key], rel=1e-6)

    def test_variance_oracle_against_covariance(self):
        # Var int u^2 = 4 int_0^T int_0^t cov(s,t)^2 ds dt (Gaussian process identity)
        lam, mu, T = 2.0e4, -2.0, 1.0

        def inner(t_arr):
            out = np.empty_like(t_arr)
            for i, t in enumerate(t_arr):
                val, _ = integrate(
                    lambda s: np.array([covariance_u(lam, mu, si, t) ** 2 for si in s]),
                    0.0, t, rtol=1e-6, atol=1e-300, initial_panels=64,
                )
                out[i] = val
            return out

        # modest grid: one covariance_u call per quadrature node
        ts = np.linspace(0.05, T, 12)
        vals = inner(ts)
        var_num = 4.0 * np.trapezoid(vals, ts)
        assert var_num == pytest.approx(predicted_moments(lam, mu, T)["VarIntU2_asym"], rel=0.1)


class TestPsi:
    def test_single_mode_oracle(self):
        spec = SpectrumSpec(Constant(0.0), Constant(1.0), Constant(0.0), Constant(1.0))
        params = ModelParams(1.0, 0.0, (0.5, 2.0), (-1.0, 1.0), 2 * math.pi)
        pv = psi(spec, params, 1)
        assert pv.psi1 == pytest.approx(math.pi ** 2, rel=1e-9)

    def test_psi12_sign_and_value(self):
        # psi12 = -1/2 sum tau nu int f^2
        spec = SpectrumSpec(Constant(0.0), Constant(1.0), Constant(0.0), Constant(1.0))
        params = ModelParams(1.0, 0.0, (0.5, 2.0), (-1.0, 1.0), 2 * math.pi)
        pv = psi(spec, params, 1)
        assert pv.psi12 == pytest.approx(-0.5 * math.pi, rel=1e-9)

    def test_nonpositive_lambda_mode_terms(self):
        # lambda_1 = -9 and lambda_2 = 0: tau^2 int (T-t) f^2, nu^2 int (T-t) f'^2 and
        # -tau nu int f^2 / 2 in closed form, repeated in the _asym columns
        spec, params = negative_kappa_model()
        ks = np.array([1, 2])
        terms = fundamental._psi_mode_terms(spec, params, ks)
        (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
        lam = fundamental._slog_lam(ks, s_lam, l_lam)
        taus, nus = spec.tau.value_array(ks), spec.nu.value_array(ks)
        for k, row in zip(ks.tolist(), terms):
            q = quadrature_oracle(lam[k - 1], mu[k - 1], params.T, 1e-12)
            tau, nu = taus[k - 1], nus[k - 1]
            exact = [tau * tau * q["iif2"], nu * nu * q["iifd2"], -0.5 * tau * nu * q["if2"]]
            assert row.tolist() == pytest.approx(exact + exact[:2], rel=1e-10, abs=0.0)

    def test_curve_matches_pointwise(self):
        spec = SpectrumSpec(Constant(0.0), PowerLaw(1.0, 2.0), Constant(0.0), Constant(1.0))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        rows = psi_curve(spec, params, [3, 7])
        assert rows[0].psi1 == pytest.approx(psi(spec, params, 3).psi1, rel=1e-12)
        assert rows[1].psi2 == pytest.approx(psi(spec, params, 7).psi2, rel=1e-12)

    def test_exact_vs_asymptotic_agree_for_stiff_modes(self):
        spec = SpectrumSpec(Constant(0.0), PowerLaw(1.0, 2.0), Constant(0.0), Constant(1.0))
        params = ModelParams(1.0, -0.5, (0.5, 2.0), (-1.0, 1.0), 1.0)
        pv = psi(spec, params, 200)
        assert pv.psi1 == pytest.approx(pv.psi1_asym, rel=0.01)
        assert pv.psi2 == pytest.approx(pv.psi2_asym, rel=0.01)


def _assert_each_mode_alone_matches(lam, mu, T, log_lam=None):
    """_scaled_integrals over a batch of modes equals its value for each mode alone, bit for bit.

    With log_lam given, it is the mode where lam > 0 (as psi_curve passes it).
    Beyond 2000 modes an even sample of 2000 goes alone; the whole batch
    also goes in another order, and every other mode goes as a strided view.
    """
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    if log_lam is None:
        log_lam = fundamental._log_lam(lam)
    rows, envelope = fundamental._scaled_integrals(lam, mu, T, log_lam)
    for i in range(0, len(lam), max(1, len(lam) // 2000)):
        one, one_envelope = fundamental._scaled_integrals(lam[i:i + 1], mu[i:i + 1], T, log_lam[i:i + 1])
        assert one.tobytes() == rows[:, i:i + 1].tobytes(), (lam[i], mu[i], log_lam[i])
        assert one_envelope[0] == envelope[i]
    order = np.random.default_rng(len(lam)).permutation(len(lam))
    shuffled, _ = fundamental._scaled_integrals(lam[order], mu[order], T, log_lam[order])
    assert shuffled.tobytes() == rows[:, order].tobytes()
    assert fundamental._log_lam(lam[::2]).tobytes() == fundamental._log_lam(lam)[::2].tobytes()
    strided, _ = fundamental._scaled_integrals(lam[::2], mu[::2], T, log_lam[::2])
    assert strided.tobytes() == rows[:, ::2].tobytes()


def _regimes(lam, mu, T):
    _, *tests = fundamental._regime(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float), T)
    return set(np.select(tests, ["series", "real", "complex"], "envelope").tolist())


def mixed_modes():
    """(lam, mu) float arrays of a batch that takes every evaluation of the integrals at T = 1.

    lam < 0, lam = 0, the series (phase below 0.5, or strong damping), real
    and complex roots and the envelope, with the ulp neighbours of each
    switch, and lam = e^700.
    """
    switches = [
        (0.5, -1.0),                  # phase 0.5 exactly
        (63.0, -16.0),                # real roots, 8*ell = -b
        (65.0, -16.0),                # complex roots, 8*ell = -b
        (1e14 + 0.25, -1.0),          # phase 1e7 exactly
        (1.0, 0.0),                   # b = 0 (test_psi12_sign_and_value's mode)
        (math.exp(700.0), -1.5),      # the largest lam a transition takes
    ]
    others = [
        (-1.0, 0.0), (-9.0, -0.5), (-1e6, -1e4), (-1e-3, 2.0),      # lam < 0
        (0.0, 0.0), (0.0, -3.0), (0.0, 1.5), (0.0, 40.0),           # lam = 0
        (0.09, 0.0), (2.5e7 + 1.0, -1e4),                           # series
        (3.0, -4.0), (3.99, -4.0), (2.5e7 - 1e6, -1e4),             # real roots
        (4.0, 0.0), (1e4, -1.0), (22501.0, 300.0),                  # complex roots
        (1e16, -1.3),                                               # envelope
    ]
    lam = [l * (1.0 + j * 2.0 ** -52) for l, _ in switches for j in range(-4, 5)] + [l for l, _ in others]
    mu = [m for _, m in switches for _ in range(9)] + [m for _, m in others]
    return np.array(lam), np.array(mu)


class TestArrayIntegrals:
    """A mode's integrals do not depend on the batch it is evaluated in."""

    @staticmethod
    def random_modes(rng, n=200):
        """(lam, mu, T) with lam > 0 across the series, real, complex and envelope regimes."""
        u = rng.uniform
        T = 10.0 ** u(-3.5, 0.3)
        mu = -(10.0 ** u(-3.0, 3.0, n)) * rng.choice([1.0, 1.0, 1.0, -1e-2], n)
        b = 0.5 * mu
        ell = 10.0 ** u(-1.0, 12.0, n) / T
        sign = rng.choice([1.0, -1.0], n)  # complex or real roots
        lam = b * b + sign * ell * ell
        keep = (lam > 0.0) & (mu * T < 600.0)
        return lam[keep], mu[keep], T

    def test_random_modes_in_every_regime(self):
        rng, seen = np.random.default_rng(20260), set()
        for _ in range(40):
            lam, mu, T = self.random_modes(rng)
            seen |= _regimes(lam, mu, T)
            _assert_each_mode_alone_matches(lam, mu, T)
        assert seen == {"series", "real", "complex", "envelope"}

    @pytest.mark.parametrize("T", [1.0, 1e-150])
    def test_mixed_batch(self, T):
        # at T = 1e-150 lam = e^700 has phase ~ 100: closed up to log lam = 700, the envelope beyond
        lam, mu = mixed_modes()
        if T == 1.0:
            assert _regimes(lam, mu, T) == {"series", "real", "complex", "envelope"}
        assert (lam < 0.0).any() and (lam == 0.0).any()
        log_700 = np.array([np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 800.0), 800.0])
        log_lam = np.concatenate([fundamental._log_lam(lam), log_700])
        lam = np.concatenate([lam, np.ones(4)])  # 1 stands for a lam > 0 read from log_lam
        mu = np.concatenate([mu, np.full(4, -1.5)])
        _, envelope = fundamental._scaled_integrals(lam, mu, T, log_lam)
        assert envelope[-4:].tolist() == [T == 1.0] * 2 + [True] * 2
        _assert_each_mode_alone_matches(lam, mu, T, log_lam)

    def test_real_roots_whose_square_is_not_a_product(self):
        # real-root modes, some of whose roots have r ** 2 != r * r in Python
        rng, n = np.random.default_rng(20261), 20000
        u = rng.uniform
        mu = -(10.0 ** u(-2.0, 3.0, n)) * rng.choice([1.0, -1e-2], n)
        b = 0.5 * mu
        lam = b * b * u(1e-3, 0.98, n)
        ell, series, real, _ = fundamental._regime(lam, mu, 1.0)
        r_plus, r_minus = fundamental._stable_real_roots(lam, b, ell)
        keep = ~series & real & (2.0 * r_plus < 600.0)
        squares = [r ** 2 for r in r_minus[keep].tolist()]
        assert (np.array(squares) != r_minus[keep] * r_minus[keep]).any()
        _assert_each_mode_alone_matches(lam[keep], mu[keep], 1.0)

    def test_envelope_near_its_damping_limit(self):
        # b^2/lam up to 0.45, where 1/(1 - b^2/lam) magnifies the last bits of log lam
        u = np.random.default_rng(20262).uniform
        lam = 10.0 ** u(15.0, 300.0, 2000)
        mu = -2.0 * np.sqrt(u(0.05, 0.45, 2000) * lam)
        assert _regimes(lam, mu, 1.0) == {"envelope"}
        _assert_each_mode_alone_matches(lam, mu, 1.0)

    def test_envelope_takes_the_log_of_the_rebuilt_lambda(self):
        # the envelope of a lam read from log_lam takes log(e^log_lam); the sample
        # keeps log_lam below 0.9 whose round trip through exp and log is not exact
        rng = np.random.default_rng(20263)
        log_lam = rng.uniform(-2.3, 0.9, 400000)
        log_lam = log_lam[[math.log(math.exp(x)) != x for x in log_lam.tolist()]]
        lam = np.exp(log_lam)
        mu = -2.0 * np.sqrt(rng.uniform(0.05, 0.45, len(lam)) * lam)
        assert _regimes(lam, mu, 1e8) == {"envelope"}
        _assert_each_mode_alone_matches(np.ones(len(lam)), mu, 1e8, log_lam)

    def test_overflow_names_the_first_mode(self):
        with pytest.raises(FundamentalOverflowError) as batch_exc:
            fundamental._scaled_integrals(np.ones(3), np.array([-1.0, 710.0, 720.0]), 1.0, np.zeros(3))
        with pytest.raises(FundamentalOverflowError) as one_exc:
            scaled_mode_integrals(710.0, 1.0, 0.0)
        assert str(batch_exc.value) == str(one_exc.value)

    def test_m_func_log_array_matches_scalar_formulas(self):
        # the array pass equals the three formulas in numpy, one element at a time
        spread = np.random.default_rng(20264).uniform(-40.0, 40.0, 50000)
        x = np.concatenate([[-1e6, -30.5, -30.0, -1.0, 0.0, 1e-4, 29.9, 30.0, 30.5, 700.0], spread])
        got = m_func_log(x)
        want = []
        for v in x:  # the scalar forms
            if abs(v) <= 30.0:
                want.append(float(np.log(m_func(v))))
            elif v > 30.0:
                want.append(float(v - np.log(2.0 * v * v) + np.log1p(-(v + 1.0) * np.exp(-v))))
            else:
                want.append(float(np.log(-v - 1.0 + np.exp(v)) - np.log(2.0 * v * v)))
        assert got.tolist() == want
        assert [m_func_log(x[i:i + 1])[0] for i in range(10)] == want[:10]


def _psi_table_spectra():
    demos = Path(__file__).resolve().parent.parent / "demos" / "configs"
    alg_ex1, sec5 = (load_config(demos / name) for name in ("alg_ex1.json", "sec5_exponential.json"))
    alg_ex3 = preset("alg_ex3")  # T = 1, theta = (1, 1/2), as the psi_table workload has it
    return [((alg_ex1["spec"], alg_ex1["params"]), 600), (alg_ex3, 3000),
            ((sec5["spec"], sec5["params"]), 3000), (negative_kappa_model(), 40)]


@pytest.mark.parametrize("case", range(4), ids=["alg_ex1", "alg_ex3", "sec5", "negative_kappa"])
def test_psi_mode_terms_are_those_of_each_mode_alone(case):
    (spec, params), N = _psi_table_spectra()[case]
    terms = fundamental._psi_mode_terms(spec, params, range(1, N + 1))
    rows = psi_curve(spec, params, range(1, N + 1))
    got = np.array([[r.psi1, r.psi2, r.psi12, r.psi1_asym, r.psi2_asym] for r in rows])
    assert got.tobytes() == np.cumsum(terms, axis=0).tobytes()
    ks = np.sort(np.random.default_rng(case).choice(np.arange(1, N + 1), min(N, 150), replace=False))
    for k in ks.tolist():
        assert fundamental._psi_mode_terms(spec, params, [k]).tobytes() == terms[k - 1].tobytes(), k
    assert fundamental._psi_mode_terms(spec, params, ks[::-1]).tobytes() == terms[ks[::-1] - 1].tobytes()


class TestUpsilon:
    def test_plain_values(self):
        assert upsilon(100, 0.0) == 100.0
        assert upsilon(100, -1.0) == pytest.approx(math.log(100.0))

    def test_rejects_below_boundary(self):
        with pytest.raises(ValueError):
            upsilon(100, -1.5)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 2.0])
    def test_brute_force_sum_comparison(self, gamma):
        N = 10 ** 4
        s = float(np.sum(np.arange(1.0, N + 1) ** gamma))
        ratio = s / upsilon(N, gamma)
        assert 0.1 < ratio < 10.0
