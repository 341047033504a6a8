"""Eigenvalue sequences, hyperbolicity verdicts, algebraic classification."""
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from hypermle import config
from hypermle.equations import PRESETS, preset
from hypermle.spectrum import (
    GENERATORS,
    AlgebraicClass,
    Constant,
    Explicit,
    ExpLaw,
    Generator,
    LogLaw,
    LogLogLaw,
    ModelParams,
    NonAlgebraicSpectrumError,
    PowerLaw,
    SignedAlternating,
    SpectrumSpec,
    check_hyperbolic,
    classify_algebraic,
    conditions_1_2,
    consistency_conditions,
    eigenvalues,
    lambda_mu,
    lambda_mu_slog,
    slowly_increasing_test,
    verify_lower_bound_props,
)


def box_params(theta1=1.0, theta2=1.0, box1=(0.5, 2.0), box2=(0.5, 2.0), T=1.0):
    return ModelParams(theta1, theta2, box1, box2, T)


class TestGenerators:
    def test_power_law_exact(self):
        spec = SpectrumSpec(PowerLaw(1.0, 2.0), Constant(0), Constant(0), Constant(0))
        assert eigenvalues(spec, 3)[0] == 9.0

    def test_explicit_lookup(self):
        spec = SpectrumSpec(Explicit([5.0, 7.0]), Constant(0), Constant(0), Constant(0))
        assert eigenvalues(spec, 2)[0] == 7.0
        assert spec.k_max == 2
        with pytest.raises(ValueError):
            eigenvalues(spec, 3)

    def test_exp_law(self):
        assert ExpLaw(1.0, 2.0).value_array([4])[0] == pytest.approx(math.exp(8.0), rel=1e-14)

    def test_log_laws(self):
        assert LogLaw(2.0, 3.0, 1.0).value_array([4])[0] == pytest.approx(2.0 * math.log(5.0) ** 3, rel=1e-12)
        assert LogLogLaw(1.0, 3.0).value_array([1])[0] == pytest.approx(math.log(math.log(4.0)), rel=1e-12)

    def test_signed_alternating(self):
        gen = SignedAlternating(PowerLaw(1.0, -1.0))
        assert gen.value_array([1, 2]).tolist() == pytest.approx([-1.0, 0.5])

    def test_sign_exact_beyond_float_range(self):
        gen = ExpLaw(-1.0, 2.0)
        s, logmag = gen.slog_array([500])
        assert s[0] == -1.0 and logmag[0] == pytest.approx(1000.0)
        assert gen.value_array([500])[0] == -math.inf  # saturates, sign preserved

    def test_zero_exp_law_stays_zero_past_the_float_range(self):
        # e^{2k} overflows from k = 355 on; zero times it is still zero
        gen = ExpLaw(0.0, 2.0)
        assert gen.value_array([1, 354, 355, 500]).tolist() == [0.0] * 4
        assert gen.slog_array([500])[0][0] == 0.0
        spec = SpectrumSpec(gen, PowerLaw(1, 2), Constant(0), Constant(1))
        assert eigenvalues(spec, 500)[0] == 0.0
        assert lambda_mu(spec, 1.0, 0.0, 500) == (250000.0, 0.0)

    def test_generator_determinism(self):
        gen = LogLaw(1.5, 2.0, 1.0)
        assert _bits(*gen.slog_array([17])) == _bits(*gen.slog_array([17]))


class TestLambdaMu:
    def test_arithmetic(self):
        spec = SpectrumSpec(PowerLaw(1, 2), PowerLaw(1, 2), Constant(0), Constant(1))
        assert lambda_mu(spec, 2.0, -0.5, 3) == (27.0, -0.5)

    def test_zero_thetas(self):
        spec = SpectrumSpec(PowerLaw(1, 2), PowerLaw(3, 1), Constant(5), Constant(1))
        lam, mu = lambda_mu(spec, 0.0, 0.0, 4)
        assert (lam, mu) == (16.0, 5.0)

    def test_exponential_spectrum_value(self):
        spec, params = preset("sec5_example")
        lam, mu = lambda_mu(spec, 1.0, 1.0, 1)
        assert lam == pytest.approx(math.e ** 2 + math.e, rel=1e-12)
        assert mu == pytest.approx(math.log(math.log(4.0)), rel=1e-12)


class TestCheckHyperbolic:
    def test_damped_wave_passes(self):
        spec, params = preset("wave_damped")
        assert check_hyperbolic(spec, params, (1, 500)).hyperbolic == "pass"

    def test_antidissipative_fails_with_witnesses(self):
        spec, params = preset("wave_antidissipative")
        rep = check_hyperbolic(spec, params, (1, 500))
        assert rep.hyperbolic == "fail"
        assert rep.witnesses
        # every witness re-evaluates as a violation of T mu <= ln lambda + C
        C = rep.constants_used["C"]
        for k, _, _ in rep.witnesses:
            lam, mu = lambda_mu(spec, params.theta1, params.theta2, k)
            assert params.T * mu > math.log(lam) + C

    def test_unbounded_amplification_admitted(self):
        spec = SpectrumSpec(Constant(0), ExpLaw(1, 1), Constant(0), LogLaw(1, 1, 0))
        rep = check_hyperbolic(spec, box_params(), (2, 500))
        assert rep.hyperbolic == "pass"

    def test_fail_is_monotone_in_range(self):
        # re-checking a longer range can only keep failing
        spec, params = preset("wave_antidissipative")
        rep = check_hyperbolic(spec, params, (1, 200))
        assert rep.hyperbolic == "fail"
        again = check_hyperbolic(spec, params, (1, 500))
        assert again.hyperbolic == "fail"

    def test_shift_beyond_two_to_the_twenty(self):
        # lambda_1 = -2e6 + theta1 dips far below zero; the smallest shift making
        # every lambda_k + C* positive is -lambda_1 at the lower corner theta1 = 0.5
        spec = SpectrumSpec(Constant(-2e6), PowerLaw(1.0, 2.0), Constant(0.0), Constant(1.0))
        rep = check_hyperbolic(spec, box_params(), (1, 5000))
        assert rep.hyperbolic == "pass", rep.to_dict()
        assert rep.constants_used["C_star"] == pytest.approx(1999999.5, rel=1e-12)

    def test_shift_is_the_smallest_float_that_works(self):
        spec = SpectrumSpec(Constant(-3.0), PowerLaw(1.0, 2.0), Constant(0.0), Constant(1.0))
        c_star = check_hyperbolic(spec, box_params(), (1, 200)).constants_used["C_star"]
        lowest = -3.0 + 0.5
        assert lowest + c_star > 0.0
        assert lowest + np.nextafter(c_star, 0.0) <= 0.0

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_verdicts(self, name, d):
        spec, params = preset(name, d=d)
        rep = check_hyperbolic(spec, params, (1, 1000))
        want = "fail" if name.endswith("antidissipative") else "pass"
        assert rep.hyperbolic == want
        assert rep.constants_used["C_star"] == 0.0

    def test_degenerate_box_rejected(self):
        spec, params = preset("wave_damped")
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, (2.0, 0.5), (1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            check_hyperbolic(spec, params, (5, 2))


class TestLowerBoundProps:
    def test_shifted_quadratic(self):
        spec = SpectrumSpec(PowerLaw(1, 2), Constant(1), Constant(0), Constant(1))
        rep = verify_lower_bound_props(spec, box_params(box1=(1.0, 2.0)), (1, 500))
        assert rep.hyperbolic == "pass"
        assert rep.constants_used["c0"] <= 1.0

    def test_pure_theta_scaling(self):
        spec = SpectrumSpec(Constant(0), PowerLaw(1, 2), Constant(0), Constant(1))
        rep = verify_lower_bound_props(spec, box_params(box1=(1.0, 2.0)), (1, 500))
        assert rep.hyperbolic == "pass"
        assert rep.constants_used["c0"] == pytest.approx(1.0, rel=1e-9)

    def test_exponential_ratio_vanishes(self):
        spec, params = preset("sec5_example")
        rep = verify_lower_bound_props(spec, params, (1, 200))
        assert rep.hyperbolic == "pass"
        assert rep.constants_used["c0"] < 0.5  # tau/lambda ~ e^{-k}


class TestClassifyAlgebraic:
    def test_alg_ex1(self):
        spec, params = preset("alg_ex1", d=1)
        cls = classify_algebraic(spec, params, (1, 1000))
        assert (cls.alpha, cls.alpha1, cls.beta, cls.beta1) == (2.0, 2.0, 0.0, 0.0)

    def test_alg_ex3(self):
        spec, params = preset("alg_ex3", d=1)
        cls = classify_algebraic(spec, params, (1, 1000))
        assert (cls.alpha, cls.alpha1, cls.beta, cls.beta1) == (2.0, 2.0, 4.0, 4.0)

    def test_constants_have_zero_exponent(self):
        spec = SpectrumSpec(Constant(0), Constant(2.0), Constant(0), Constant(3.0))
        cls = classify_algebraic(spec, box_params(), (1, 1000))
        assert cls.alpha == 0.0 and cls.alpha1 == 0.0 and cls.beta == 0.0 and cls.beta1 == 0.0

    def test_regression_path_recovers_exponent(self):
        ks = np.arange(1, 1001)
        spec = SpectrumSpec(
            Explicit(0.7 * ks ** 1.5), Explicit(2.0 * ks ** 1.5),
            Constant(0.0), Constant(1.0), k_max=1000,
        )
        cls = classify_algebraic(spec, box_params(), (1, 1000))
        assert cls.alpha == pytest.approx(1.5, abs=1e-2)
        assert cls.alpha1 == pytest.approx(1.5, abs=1e-2)

    def test_alpha_positive_under_hyperbolicity(self):
        for name in ("alg_ex1", "alg_ex2", "alg_ex3", "alg_ex4", "alg_ex5", "alg_ex6"):
            spec, params = preset(name, d=2)
            assert check_hyperbolic(spec, params, (1, 400)).hyperbolic == "pass"
            assert classify_algebraic(spec, params, (1, 400)).alpha > 0.0

    def test_oscillating_sign_refused(self):
        spec = SpectrumSpec(
            PowerLaw(1, 2), SignedAlternating(PowerLaw(1, -1)), Constant(0), Constant(1)
        )
        with pytest.raises(NonAlgebraicSpectrumError):
            classify_algebraic(spec, box_params(), (1, 1000))

    def test_exponential_refused(self):
        spec, params = preset("sec5_example")
        with pytest.raises(NonAlgebraicSpectrumError):
            classify_algebraic(spec, params, (1, 500))


class TestConsistencyConditions:
    def test_alg_ex1_values(self):
        cond = consistency_conditions(AlgebraicClass(2.0, 2.0, 0.0, 0.0, 0.0))
        assert cond["gamma1"] == 2.0 and cond["theta1_ok"]
        assert cond["gamma2"] == 0.0 and cond["theta2_ok"]

    def test_alg_ex5_values(self):
        cond = consistency_conditions(AlgebraicClass(4.0, 0.0, 4.0, 2.0, 0.0))
        assert cond["gamma1"] == -8.0 and not cond["theta1_ok"]
        assert cond["gamma2"] == 0.0 and cond["theta2_ok"]

    def test_boundary_case(self):
        # alpha1 = (alpha + beta - 1)/2 exactly: gamma1 = -1, still admissible
        cond = consistency_conditions(AlgebraicClass(2.0, 1.0, 1.0, 0.5, 0.0))
        assert cond["gamma1"] == -1.0 and cond["theta1_ok"]

    def test_defining_arithmetic_on_random_tuples(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, a1, b, b1 = rng.uniform(-3, 5, size=4)
            cond = consistency_conditions(AlgebraicClass(a, a1, b, b1, 0.0))
            assert cond["gamma1"] == pytest.approx(2 * a1 - a - b, rel=1e-12)
            assert cond["gamma2"] == pytest.approx(2 * b1 - b, rel=1e-12)
            assert cond["gamma12"] == pytest.approx(a1 - a + b1 - b, rel=1e-12)
            assert cond["theta1_ok"] == (2 * a1 - a - b >= -1)
            assert cond["theta2_ok"] == (2 * b1 - b >= -1)


class TestSlowlyIncreasing:
    N_MAX = 10 ** 5

    @pytest.mark.parametrize("gamma", [-2.0, -1.5, -1.0, -0.5, 0.0, 1.0])
    def test_power_boundary(self, gamma):
        ks = np.arange(1.0, self.N_MAX + 1)
        res = slowly_increasing_test(ks ** gamma)
        expected = "pass" if gamma >= -1.0 else "fail"
        assert res["verdict"] == expected, f"gamma={gamma}: {res['verdict']}"

    def test_exp_fails(self):
        ks = np.arange(1.0, 501.0)
        res = slowly_increasing_test(np.exp(ks))
        assert res["verdict"] == "fail"
        # ratio tends to the geometric-series constant, bounded away from 0
        assert res["ratio_curve"][-1, 1] == pytest.approx(
            (1 - math.exp(-1)) ** 2 / (1 - math.exp(-2)), rel=1e-6
        )

    def test_exp_sqrt_passes(self):
        res = slowly_increasing_test(lambda k: math.exp(math.sqrt(k)), n_max=self.N_MAX)
        assert res["verdict"] == "pass"

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            slowly_increasing_test(np.array([1.0] * 20 + [0.0]))

    @staticmethod
    def log_cumsum_exp_loop(log_terms):
        """Reference: the running log(sum exp), one rescaled addition per term."""
        out, running = [], -math.inf
        for lt in log_terms:
            hi = max(running, lt)
            running = hi if hi == -math.inf else hi + math.log(math.exp(running - hi) + math.exp(lt - hi))
            out.append(running)
        return np.array(out)

    @pytest.mark.parametrize("log_a", [
        -2.0 * np.log(np.arange(1.0, 2001.0)),
        -np.log(np.arange(1.0, 2001.0)),
        0.5 * np.log(np.arange(1.0, 2001.0)),
        np.sqrt(np.arange(1.0, 2001.0)),
        np.arange(1.0, 501.0),
    ], ids=["k^-2", "k^-1", "k^0.5", "e^sqrt(k)", "e^k"])
    def test_ratio_curve_matches_loop_reference(self, log_a):
        n = len(log_a)
        want = self.log_cumsum_exp_loop(2.0 * log_a) - 2.0 * self.log_cumsum_exp_loop(log_a)
        got = np.log(slowly_increasing_test(np.exp(log_a))["ratio_curve"][:, 1])
        # each running sum may round once per term, at the scale of its largest value
        tol = 3 * n * np.finfo(float).eps * (np.max(np.abs(2.0 * log_a)) + math.log(n) + 1.0)
        assert np.max(np.abs(got - want)) <= tol


class TestConditions12:
    def test_sec5_example_both_pass(self):
        spec, params = preset("sec5_example")
        res = conditions_1_2(spec, params, n_max=1000)
        assert res["cond1"] == "pass" and res["cond2"] == "pass"

    def test_alg_ex1_both_pass(self):
        spec, params = preset("alg_ex1", d=1)
        res = conditions_1_2(spec, params, n_max=2000)
        assert res["cond1"] == "pass" and res["cond2"] == "pass"

    def test_exponential_weights_fail_condition1(self):
        # tau = e^k with lambda ~ e^k and bounded mu: weights ~ e^k
        spec = SpectrumSpec(Constant(0), ExpLaw(1, 1), Constant(0), Constant(1))
        params = box_params(theta2=-0.5, box2=(-1.0, 1.0))
        res = conditions_1_2(spec, params, n_max=500)
        assert res["cond1"] == "fail"
        assert res["cond2"] == "pass"


EVERY_KIND = [
    PowerLaw(2.0, -1.5), PowerLaw(0.0, 2.0), ExpLaw(-0.5, 1.0), ExpLaw(0.0, 3.0),
    LogLaw(3.0), LogLaw(-1.0, 2.0, 1.5), LogLaw(0.0, 0.5, 2.0), LogLogLaw(2.0),
    LogLogLaw(-0.25, 3.0), LogLogLaw(0.0, 3.0), Constant(-3.0), Constant(0.0),
    Explicit([1.5, -2.0, 0.0, 4.0, 1e300]), SignedAlternating(PowerLaw(2.0, -1.0)),
    SignedAlternating(Explicit([3.0, 0.0, -1.0, 2.0, -5.0])),
]

# at the float range's edges: k^300 overflows from k = 11 though 1e-200 k^300 does not, e^{3k}
# from k = 237, 1e305 k^2 from k = 14
EXTREME_KIND = [
    PowerLaw(1e-200, 300.0), PowerLaw(-1e-200, 300.0), PowerLaw(0.0, 300.0), PowerLaw(1e305, 2.0),
    ExpLaw(1e-300, 3.0), ExpLaw(-2.0, 1.0), ExpLaw(0.0, 2.0), Constant(1e308),
    Explicit([0.0, 1e308, -1e308, 0.0, 1e-308, -0.0]), SignedAlternating(ExpLaw(1.0, 1.5)),
    SignedAlternating(LogLaw(2.0, 3.0, 1.0)),
]


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()  # bit for bit, signed zeros included


def _defined_ks(gen, n=50):
    """k = 1..n, capped at the kind's k_max, from the first k at which its law is defined."""
    floor = {LogLaw: 1.0, LogLogLaw: math.e}.get(type(gen))  # k + shift must exceed it
    first = 1 if floor is None else max(1, math.floor(floor - gen.shift) + 1)
    return np.arange(first, min(n, gen.k_max() or n) + 1)


class TestOneImplementation:
    """Each kind's sequence is its slog_array and value_array; an array of k is each k alone."""

    @pytest.mark.parametrize("gen", EVERY_KIND + EXTREME_KIND, ids=repr)
    def test_arrays_are_each_k_alone(self, gen):
        ks = _defined_ks(gen, 700)
        signs, logs = gen.slog_array(ks)
        values = gen.value_array(ks)
        for k, s, l, v in zip(ks.tolist(), signs.tolist(), logs.tolist(), values.tolist()):
            one = gen.slog_array([k])
            assert _bits(one[0][0], one[1][0], gen.value_array([k])[0]) == _bits(s, l, v), k
        back = ks[::-3]  # any subset, in any order
        assert _bits(*gen.value_array(back)) == _bits(*values[back - ks[0]])

    @pytest.mark.parametrize("gen, k, want", [
        (PowerLaw(1e-200, 300.0), 10, 1e-200 * 10.0 ** 300),
        (PowerLaw(1e305, 2.0), 1000, math.inf),
        (ExpLaw(-2.0, 1.0), 710, -math.inf),
        (Constant(-3.0), 7, -3.0),
        (Explicit([0.0, -0.0, 1e308]), 2, -0.0),
    ], ids=repr)
    def test_direct_arithmetic(self, gen, k, want):
        # the kinds with a closed form evaluate it directly in floats, saturating on overflow
        assert _bits(gen.value_array([k])[0]) == _bits(want)

    def test_power_law_past_the_power_range(self):
        # 11^300 overflows on its own; the product with 1e-200 is finite, from the log form
        got = PowerLaw(1e-200, 300.0).value_array([11, 12])
        assert got.tolist() == pytest.approx([1e-200 * 11.0 ** 100 * 11.0 ** 200,
                                              1e-200 * 12.0 ** 100 * 12.0 ** 200], rel=1e-12)

    def test_exp_law_past_the_exp_range(self):
        # e^{3k} overflows from k = 237 on; the product with 1e-300 is finite, from the log form
        gen = ExpLaw(1e-300, 3.0)
        assert gen.value_array([236]).tobytes() == np.array([1e-300 * math.exp(708.0)]).tobytes()
        got = gen.value_array([237, 300])
        assert got.tolist() == pytest.approx([math.exp(math.log(1e-300) + 711.0),
                                              math.exp(math.log(1e-300) + 900.0)], rel=1e-12)
        spec = SpectrumSpec(gen, Constant(0.0), Constant(0.0), Constant(0.0))
        assert eigenvalues(spec, 237)[0] == pytest.approx(6.0726e8, rel=1e-4)

    @pytest.mark.parametrize("name", ["alg_ex1", "alg_ex5", "sec5_example"])
    def test_lambda_mu_slog_over_ks_matches_one_k_calls(self, name):
        spec, params = preset(name)
        ks = np.arange(1, 501)
        (s, l), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
        for k in ks.tolist():
            (s_k, l_k), mu_k = lambda_mu_slog(spec, params.theta1, params.theta2, k)
            assert _bits(s_k, l_k, mu_k) == _bits(s[k - 1], l[k - 1], mu[k - 1]), k

    @pytest.mark.parametrize("gen, ks, bad", [
        (LogLaw(1.0, 1.0, -1.0), [7, 5, 2, 1], 2),
        (LogLaw(0.0, 1.0, -1.0), [7, 5, 2, 1], 2),
        (LogLogLaw(1.0), [9, 3, 2, 1], 2),
        (Explicit([1.0, 2.0, 3.0]), [1, 5, 4], 5),
    ], ids=repr)
    def test_domain_error_names_first_bad_k(self, gen, ks, bad):
        with pytest.raises(ValueError, match=rf"k={bad}\b"):
            gen.slog_array(np.array(ks))
        with pytest.raises(ValueError, match=rf"k={bad}\b"):
            gen.value_array(np.array(ks))

    @pytest.mark.parametrize("k", [0, 2.5])
    @pytest.mark.parametrize("gen", EVERY_KIND, ids=repr)
    def test_index_not_a_positive_integer(self, gen, k):
        with pytest.raises(ValueError, match=f"positive integer, got {k}$"):
            gen.value_array([k, 3])
        with pytest.raises(ValueError, match=f"positive integer, got {k}$"):
            gen.slog_array([3, k])


class TestSerialization:
    def test_round_trip(self):
        from hypermle.config import generator_from_config, spectrum_from_config

        spec, _ = preset("sec5_example")
        cfg = spec.to_config()
        assert cfg["tau"] == {"kind": "exp_law", "coefficient": 1.0, "rate": 1.0}
        back = spectrum_from_config(cfg)
        assert back.nu.value_array([5]) == spec.nu.value_array([5])
        capped = SpectrumSpec(*spec.generators().values(), k_max=500)
        assert spectrum_from_config(capped.to_config()).k_max == 500

    def test_signed_alternating_round_trip(self):
        from hypermle.config import generator_from_config

        gen = SignedAlternating(PowerLaw(2.0, -1.0))
        back = generator_from_config(gen.to_config())
        assert back.value_array([3]) == gen.value_array([3])

    @pytest.mark.parametrize("gen", EVERY_KIND, ids=repr)
    def test_every_kind_round_trips(self, gen):
        back = config.generator_from_config(gen.to_config())
        assert back == gen
        ks = np.array([3, 4, 5])
        assert _bits(*back.slog_array(ks), back.value_array(ks)) == _bits(*gen.slog_array(ks),
                                                                          gen.value_array(ks))

    def test_omitted_defaults(self):
        parse = config.generator_from_config
        assert parse({"kind": "log_law", "coefficient": 2.0}) == LogLaw(2.0, 1.0, 0.0)
        assert parse({"kind": "loglog_law", "coefficient": 1.0}) == LogLogLaw(1.0, 0.0)

    def test_registry_holds_every_kind(self):
        def concrete(cls):
            for sub in cls.__subclasses__():
                if is_dataclass(sub):
                    yield sub
                yield from concrete(sub)

        assert {cls.kind: cls for cls in concrete(Generator)} == GENERATORS
        assert {gen.kind for gen in EVERY_KIND} == set(GENERATORS)

    def test_documented_kinds_match_registry(self):
        """The kind lists in README and in the config module docstring name every kind and its fields."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        declared = {kind: [f.name for f in fields(cls)] for kind, cls in GENERATORS.items()}
        for where, text in (("README.md", readme), ("config.py", config.__doc__)):
            listing = re.search(r"Generator kinds:(.*?)\.\s", text, re.DOTALL).group(1)
            documented = {kind: re.findall(r"\w+", names)
                          for kind, names in re.findall(r"`?(\w+)`?\s+\(([^;)]*)", listing)}
            assert documented == declared, where
