"""Operator eigenvalue sequences and the conditions the estimation theory puts on them.

Four sequences (kappa_k, tau_k, rho_k, nu_k) define the equation; the evolution
and dissipation eigenvalues are the affine combinations

    lambda_k(theta) = kappa_k + theta * tau_k,
    mu_k(theta)     = rho_k   + theta * nu_k.

All condition checks here are finite-range empirical verifications: each
report carries the k-range it looked at, the constants it fitted, and a
pass/fail/inconclusive verdict.  Sequences are evaluated internally in
sign + log-magnitude form so that e.g. kappa_k = e^{2k} stays exact in sign
and usable far beyond the float range.  Each generator kind implements its
sequence once, in numpy over an array of k (`slog_array`, with `value_array`
the same k as floats); a single k is an array of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fundamental import _EXP_MAX, _each, m_func_log

__all__ = [
    "GENERATORS",
    "Generator",
    "PowerLaw",
    "ExpLaw",
    "LogLaw",
    "LogLogLaw",
    "Constant",
    "Explicit",
    "SignedAlternating",
    "SpectrumSpec",
    "ModelParams",
    "ConditionReport",
    "AlgebraicClass",
    "NonAlgebraicSpectrumError",
    "eigenvalues",
    "lambda_mu",
    "lambda_mu_slog",
    "check_hyperbolic",
    "verify_lower_bound_props",
    "classify_algebraic",
    "consistency_conditions",
    "slowly_increasing_test",
    "conditions_1_2",
]

_NEG_INF = -np.inf


GENERATORS = {}  # kind tag -> generator class, filled as each kind is declared


class Generator:
    """One eigenvalue sequence k -> value, exact in sign and log magnitude.

    Each concrete kind is a frozen dataclass with a class attribute `kind`:
    the tag names it in configs, and its fields are the config fields.  A kind
    implements its sequence once, as `slog_array` in numpy over an array of k;
    `value_array` gives the same k as floats, from that log form unless the
    kind has exact direct arithmetic.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            GENERATORS[cls.kind] = cls

    def slog_array(self, ks):
        """(signs, log|values|) at an array of integers k >= 1; ValueError names the first bad k."""
        raise NotImplementedError

    def value_array(self, ks):
        """Values at an array of integers k >= 1 as floats; overflow saturates to +-inf."""
        s, l = self.slog_array(ks)
        with np.errstate(over="ignore"):
            return np.where(s == 0.0, 0.0, s * np.exp(l))

    def k_max(self):
        return None  # unbounded unless the generator says otherwise

    def power_law(self):
        """(coefficient, exponent) when the sequence is exactly coefficient * k^exponent, else None."""
        return None

    def to_config(self):
        cfg = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            cfg[f.name] = v.to_config() if isinstance(v, Generator) else list(v) if isinstance(v, tuple) else v
        return cfg


def _check_ks(ks):
    """One k or an array of k as floats, each a positive integer; ValueError names the first bad one."""
    ks = np.asarray(ks, dtype=float)
    bad = ks[~(np.isfinite(ks) & (ks >= 1.0) & (ks == np.floor(ks)))]
    if bad.size:
        raise ValueError(f"mode index must be a positive integer, got {bad[0]:g}")
    return ks


def _or_inf(fn):
    """fn, but +inf where it overflows (Python's float functions raise there)."""
    def safe(*args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf
    return safe


def _first_outside(gen, ks, inside):
    """Raise naming the first k of ks where `inside` is False."""
    bad = ks[~inside]
    if bad.size:
        raise ValueError(f"{gen.kind} undefined at k={int(bad[0])} with shift={gen.shift}")


class _CoefficientLaw(Generator):
    """coefficient * e^{shape(k)}; a law supplies only its log-shape, in numpy over an array of k."""

    def _log_shape(self, ks):
        raise NotImplementedError

    def slog_array(self, ks):
        ks = _check_ks(ks)
        shape = self._log_shape(ks)  # first, so a domain error is raised even for c = 0
        if self.coefficient == 0.0:
            return np.zeros_like(ks), np.full_like(ks, _NEG_INF)
        s = np.full_like(ks, math.copysign(1.0, self.coefficient))
        return s, math.log(abs(self.coefficient)) + shape

    def _product(self, ks, factors):
        """coefficient * factors where the factors are finite floats, the log form where they overflowed."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(np.isinf(factors), super().value_array(ks), self.coefficient * factors)


@dataclass(frozen=True)
class PowerLaw(_CoefficientLaw):
    """coefficient * k^exponent"""

    coefficient: float
    exponent: float
    kind = "power_law"

    def _log_shape(self, ks):
        return self.exponent * np.log(ks)

    def value_array(self, ks):
        ks = _check_ks(ks)
        return self._product(ks, _each(_or_inf(pow), ks, self.exponent))  # k^exponent alone may overflow

    def power_law(self):
        return self.coefficient, self.exponent


@dataclass(frozen=True)
class ExpLaw(_CoefficientLaw):
    """coefficient * e^{rate * k}"""

    coefficient: float
    rate: float
    kind = "exp_law"

    def _log_shape(self, ks):
        return self.rate * ks

    def value_array(self, ks):
        ks = _check_ks(ks)
        return self._product(ks, _each(_or_inf(math.exp), self.rate * ks))  # e^{rate k} alone may overflow


@dataclass(frozen=True)
class LogLaw(_CoefficientLaw):
    """coefficient * (ln(k + shift))^exponent; requires k + shift > 1."""

    coefficient: float
    exponent: float = 1.0
    shift: float = 0.0
    kind = "log_law"

    def _log_shape(self, ks):
        with np.errstate(divide="ignore", invalid="ignore"):
            base = np.log(ks + self.shift)
        _first_outside(self, ks, base > 0.0)
        return self.exponent * np.log(base)


@dataclass(frozen=True)
class LogLogLaw(_CoefficientLaw):
    """coefficient * ln(ln(k + shift)); requires ln(k + shift) > 1."""

    coefficient: float
    shift: float = 0.0
    kind = "loglog_law"

    def _log_shape(self, ks):
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.log(ks + self.shift)
        _first_outside(self, ks, inner > 1.0)
        return np.log(np.log(inner))


@dataclass(frozen=True)
class Constant(_CoefficientLaw):
    coefficient: float
    kind = "constant"

    def _log_shape(self, ks):
        return np.zeros_like(ks)

    def value_array(self, ks):
        return np.full_like(_check_ks(ks), self.coefficient)

    def power_law(self):
        return self.coefficient, 0.0


@dataclass(frozen=True)
class Explicit(Generator):
    values: tuple
    kind = "explicit"

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def _index(self, ks):
        ks = _check_ks(ks)
        past = ks[ks > len(self.values)]
        if past.size:
            raise ValueError(
                f"explicit sequence has {len(self.values)} entries; k={int(past[0])} out of range")
        return ks.astype(int) - 1

    def slog_array(self, ks):
        v = np.asarray(self.values)[self._index(ks)]
        with np.errstate(divide="ignore"):
            return np.where(v == 0.0, 0.0, np.copysign(1.0, v)), np.log(np.abs(v))

    def value_array(self, ks):
        return np.asarray(self.values)[self._index(ks)]

    def k_max(self):
        return len(self.values)


@dataclass(frozen=True)
class SignedAlternating(Generator):
    """(-1)^k times an inner generator."""

    inner: Generator
    kind = "signed_alternating"

    def slog_array(self, ks):
        s, l = self.inner.slog_array(ks)  # the inner kind checks ks
        return np.where(np.asarray(ks) % 2 == 0, s, -s), l

    def k_max(self):
        return self.inner.k_max()


@dataclass(frozen=True)
class SpectrumSpec:
    """The four sequences plus the spatial dimension used by order-based specs."""

    kappa: Generator
    tau: Generator
    rho: Generator
    nu: Generator
    dimension: int = 1
    k_max: int = 10 ** 6

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        declared = [g.k_max() for g in (self.kappa, self.tau, self.rho, self.nu)]
        bound = min([self.k_max] + [d for d in declared if d is not None])
        object.__setattr__(self, "k_max", int(bound))

    def generators(self):
        return {"kappa": self.kappa, "tau": self.tau, "rho": self.rho, "nu": self.nu}

    def to_config(self):
        cfg = {name: g.to_config() for name, g in self.generators().items()}
        cfg["dimension"] = self.dimension
        cfg["k_max"] = self.k_max
        return cfg


@dataclass(frozen=True)
class ModelParams:
    theta1: float
    theta2: float
    theta1_box: tuple
    theta2_box: tuple
    T: float

    def __post_init__(self):
        for name, th, box in (
            ("theta1", self.theta1, self.theta1_box),
            ("theta2", self.theta2, self.theta2_box),
        ):
            lo, hi = box
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"{name}_box must be a finite interval [lo, hi]")
            if not (lo <= th <= hi):
                raise ValueError(f"{name}={th} lies outside its box {box}")
        if not self.T > 0.0:
            raise ValueError("T must be positive")


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def eigenvalues(spec, k):
    """(kappa_k, tau_k, rho_k, nu_k) as floats; overflow saturates to +-inf."""
    if k > spec.k_max:
        raise ValueError(f"k={k} exceeds the declared k_max={spec.k_max}")
    return tuple(float(g.value_array([k])[0]) for g in spec.generators().values())


def lambda_mu_slog(spec, theta1, theta2, ks):
    """((signs, log|lambda_k|), mu_k) over an array of k: lambda in log form, mu as floats."""
    return _lambda_slog_arrays(spec, theta1, ks), _mu_arrays(spec, theta2, ks)


def lambda_mu(spec, theta1, theta2, k):
    """(lambda_k, mu_k) as floats; exact direct arithmetic within the float range."""
    kap, tau, rho, nu = (float(g.value_array([k])[0]) for g in spec.generators().values())
    if math.isfinite(kap) and math.isfinite(tau):
        lam = kap + theta1 * tau
        if math.isfinite(lam):
            return lam, rho + theta2 * nu
    (s, l), mu = lambda_mu_slog(spec, theta1, theta2, k)
    with np.errstate(over="ignore"):
        lam = s * np.exp(l) if l > _NEG_INF else 0.0
    return float(lam), float(mu)


def _slog_scale(sign, log_abs, c):
    """Multiply the values that (sign, log|value|) arrays represent by the float c."""
    with np.errstate(divide="ignore"):
        return sign * np.sign(c), log_abs + np.log(np.abs(c))


def _slog_add(sign_a, log_a, sign_b, log_b):
    """Signed addition a + b of (sign, log|value|) arrays without leaving log space.

    Factors out the larger magnitude (log|x + y| = log|x| + log|1 +- |y|/|x||
    with |x| >= |y|), so the sign of a cancellation is exact up to float
    rounding of the log magnitudes.
    """
    swap = log_b > log_a
    big_s = np.where(swap, sign_b, sign_a)
    big_l = np.where(swap, log_b, log_a)
    small_s = np.where(swap, sign_a, sign_b)
    small_l = np.where(swap, log_a, log_b)

    # ratio = small/big in (0, 1]; same sign -> 1+r, opposite -> 1-r
    with np.errstate(invalid="ignore"):
        r = np.exp(small_l - big_l)
    r = np.where(np.isnan(r), 0.0, r)  # both -inf: 0 + 0
    same = big_s * small_s
    mag = 1.0 + same * r * (small_s != 0.0)

    out_sign = np.where(mag > 0.0, big_s, -big_s)
    with np.errstate(divide="ignore"):
        out_log = big_l + np.log(np.abs(np.where(mag == 0.0, 1.0, mag)))
    out_log = np.where(mag == 0.0, _NEG_INF, out_log)
    out_sign = np.where(mag == 0.0, 0.0, out_sign)
    out_sign = np.where(small_s == 0.0, big_s, out_sign)
    out_log = np.where(small_s == 0.0, big_l, out_log)
    return out_sign, out_log


def _lambda_slog_arrays(spec, theta, ks):
    sk, lk = spec.kappa.slog_array(ks)
    st, lt = spec.tau.slog_array(ks)
    return _slog_add(sk, lk, *_slog_scale(st, lt, theta))


def _mu_arrays(spec, theta, ks):
    sr, lr = spec.rho.slog_array(ks)
    sn, ln_ = spec.nu.slog_array(ks)
    with np.errstate(over="ignore"):
        rho = np.where(sr == 0.0, 0.0, sr * np.exp(lr))
        nu = np.where(sn == 0.0, 0.0, sn * np.exp(ln_))
    return rho + theta * nu


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass
class ConditionReport:
    hyperbolic: str
    witnesses: list = field(default_factory=list)
    checked_range: tuple = (1, 0)
    constants_used: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "hyperbolic": self.hyperbolic,
            "witnesses": [list(w) for w in self.witnesses],
            "checked_range": list(self.checked_range),
            "constants_used": dict(self.constants_used),
            "notes": list(self.notes),
        }


def check_hyperbolic(spec, params, k_range=(1, 1000)):
    """Empirical verification of the hyperbolicity conditions on a k-range.

    lambda_k(theta1) = kappa_k + theta1 * tau_k is affine in theta1, and so is
    each part-1 test: positivity, the step lambda_{k+1} - lambda_k with its
    relative slack, and the growth over the range.  Each is therefore decided
    at the two corners of theta1_box, and only those are evaluated.  C* is the
    smallest float shift making every lambda_k + C* positive: 0 when every
    corner value is positive already, else nextafter(-min, inf).  On a finite
    range such a shift always exists, so there is no search and no cap on it.
    The check then asks for monotone growth and the theta-uniform ratio bounds,
    and fits C, J for the damping-domination inequality
    T*mu_k <= ln(lambda_k) + C beyond J.
    """
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_lo < 1 or k_hi < k_lo:
        raise ValueError("k_range must satisfy 1 <= k_lo <= k_hi")
    k_hi = min(k_hi, spec.k_max)
    ks = np.arange(k_lo, k_hi + 1)
    corners = params.theta1_box

    report = ConditionReport(PASS, checked_range=(k_lo, k_hi))
    witnesses = report.witnesses

    # lambda_k at each corner of the theta1 box (one entry when lo == hi)
    slogs = {th: _lambda_slog_arrays(spec, th, ks) for th in corners}

    # --- part 1a: the smallest float shift C* making every lambda_k + C* positive
    values = {th: _values(s, l) for th, (s, l) in slogs.items()}
    lowest = min(float(v.min()) for v in values.values())
    c_star = 0.0 if lowest > 0.0 else float(np.nextafter(-lowest, math.inf))
    lam = {th: v + c_star for th, v in values.items()}

    # --- part 1b: non-decreasing and unbounded (shift-independent) ------------
    decile = max(1, (k_hi - k_lo + 1) // 10)
    for th, vals in lam.items():
        drops = np.nonzero(vals[1:] < vals[:-1] * (1.0 - 1e-12))[0]
        if drops.size:
            only_tail = drops.min() >= len(vals) - 1 - decile
            verdict = INCONCLUSIVE if only_tail else FAIL
            if report.hyperbolic == PASS:
                report.hyperbolic = verdict
            elif verdict == FAIL:
                report.hyperbolic = FAIL
            k_bad = int(ks[drops[0] + 1])
            witnesses.append((k_bad, float(th), "lambda_k(theta) + C* not non-decreasing"))
        if vals[-1] <= vals[0] * (1.0 + 1e-9) + 1e-9:
            report.hyperbolic = FAIL
            witnesses.append((int(ks[-1]), float(th), "lambda_k(theta) shows no growth on the range (bounded?)"))

    # --- part 1c: theta-uniform comparability (corner ratios) -----------------
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lam[corners[0]] / lam[corners[1]]
    finite = np.isfinite(ratio) & (ratio > 0.0)
    if not np.all(finite):
        k_bad = int(ks[np.argmin(finite)])
        report.hyperbolic = FAIL
        witnesses.append((k_bad, tuple(corners), "ratio lambda(theta)/lambda(theta') not positive-finite"))
        c1 = c2 = math.nan
    else:
        c1, c2 = float(ratio.min()), float(ratio.max())
        tail = ratio[-decile:]
        head = ratio[:-decile] if len(ratio) > decile else ratio
        if tail.max() > head.max() * 4.0 or tail.min() < head.min() / 4.0:
            if report.hyperbolic == PASS:
                report.hyperbolic = INCONCLUSIVE
            report.notes.append("theta-ratio still drifting in the last decile")

    # --- part 2: T mu_k <= ln lambda_k + C beyond some J -----------------------
    mu_hi = np.maximum(_mu_arrays(spec, params.theta2_box[0], ks), _mu_arrays(spec, params.theta2_box[1], ks))
    log_lam_min = np.minimum.reduce([slogs[th][1] for th in corners])  # lambda > 0 needed
    sign_min = np.minimum.reduce([slogs[th][0] for th in corners])
    g = params.T * mu_hi - np.where(sign_min > 0.0, log_lam_min, -np.inf)

    pos = np.nonzero(~((sign_min > 0.0) & (log_lam_min > 0.0)))[0]  # lambda <= 1 region
    j_idx = int(pos.max() + 1) if pos.size else 0
    if j_idx >= len(ks):
        report.hyperbolic = FAIL
        witnesses.append((int(ks[-1]), None, "lambda_k <= 1 through the whole range"))
        report.constants_used = {"C_star": c_star, "C": math.nan, "J": int(ks[-1])}
        return report
    J = int(ks[j_idx])
    g_tail = g[j_idx:]
    ks_tail = ks[j_idx:]

    head_len = max(1, int(0.9 * len(g_tail)))
    c_head = float(np.max(g_tail[:head_len]))
    C = max(0.0, float(np.max(g_tail)))
    rise = float(np.max(g_tail[head_len:])) - c_head if head_len < len(g_tail) else 0.0
    if rise > 0.1:
        half = g_tail[len(g_tail) // 2 :]
        upticks = np.count_nonzero(np.diff(half) > 0.0)
        trending_up = upticks >= 0.6 * max(len(half) - 1, 1)
        bad = np.nonzero(g_tail > c_head + 1e-9)[0]
        if trending_up:
            report.hyperbolic = FAIL
            for i in bad[:5]:
                witnesses.append(
                    (int(ks_tail[i]), None, f"T*mu_k > ln(lambda_k) + C with fitted C={c_head:g}")
                )
            C = c_head
        else:
            if report.hyperbolic == PASS:
                report.hyperbolic = INCONCLUSIVE
            report.notes.append("damping-domination bound still rising in the last decile")

    report.constants_used = {"C_star": c_star, "C": float(C), "J": J, "c1": c1, "c2": c2}
    return report


def _values(signs, logs):
    # saturating at e^700 keeps order comparisons meaningful past the float range
    return np.where(signs == 0.0, 0.0, signs * np.exp(np.minimum(logs, _EXP_MAX)))


def verify_lower_bound_props(spec, params, k_range=(1, 1000)):
    """Fitted J with lambda_k > 1 and the ratio bound |tau_k|/lambda_k <= c0 beyond it."""
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    ks = np.arange(k_lo, min(k_hi, spec.k_max) + 1)
    corners = [params.theta1_box[0], params.theta1_box[1]]
    report = ConditionReport(PASS, checked_range=(k_lo, int(ks[-1])))

    log_lam = {}
    for th in corners:
        s, l = _lambda_slog_arrays(spec, th, ks)
        if not np.all(s > 0.0):
            bad = int(ks[np.argmin(s)])
            report.hyperbolic = FAIL
            report.witnesses.append((bad, float(th), "lambda_k <= 0"))
            return report
        log_lam[th] = l
    log_lam_min = np.minimum(log_lam[corners[0]], log_lam[corners[1]])

    above_one = log_lam_min > 0.0
    if not above_one.any():
        report.hyperbolic = FAIL
        report.witnesses.append((int(ks[-1]), None, "lambda_k <= 1 on the whole range"))
        return report
    first_ok = int(np.argmax(above_one))
    if not np.all(above_one[first_ok:]):
        bad = int(ks[first_ok + int(np.argmin(above_one[first_ok:]))])
        report.hyperbolic = FAIL
        report.witnesses.append((bad, None, "lambda_k dips back below 1"))
        return report
    J = int(ks[first_ok])

    _, log_tau = spec.tau.slog_array(ks)
    log_ratio = log_tau - log_lam_min  # log(|tau|/lambda) at the worst corner
    tail = ks >= J
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio[tail])
    c0 = float(np.max(ratios))
    decile = max(1, int(0.1 * np.count_nonzero(tail)))
    head_max = float(np.max(ratios[:-decile])) if np.count_nonzero(tail) > decile else c0
    if c0 > head_max * (1.0 + 1e-6) and c0 > 2.0 * head_max:
        report.hyperbolic = INCONCLUSIVE
        report.notes.append("|tau|/lambda still growing at the range end")
    report.constants_used = {"J": J, "c0": c0}
    return report


# ---------------------------------------------------------------------------
# Algebraic classification
# ---------------------------------------------------------------------------


class NonAlgebraicSpectrumError(ValueError):
    """Raised when a sequence has no eventual sign or no power-law structure."""


@dataclass(frozen=True)
class AlgebraicClass:
    alpha: float
    alpha1: float
    beta: float
    beta1: float
    fit_quality: float


def _line_fit(x, y):
    """Least-squares (slope, intercept) of y against x, and the fitted values; y may hold
    one column per fit."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return coef, A @ coef


def _fit_log_slope(ks, logs):
    """Least squares slope of log|value| against log k; returns (slope, max residual)."""
    coef, fitted = _line_fit(np.log(ks), logs)
    return float(coef[0]), float(np.max(np.abs(logs - fitted)))


def _magnitude_exponent(gen, ks, what):
    """(exponent of |gen|, fit residual): exact for a nonzero power law, -inf when gen vanishes."""
    power = gen.power_law()
    if power is not None and power[0] != 0.0:
        return power[1], 0.0
    s, l = gen.slog_array(ks)
    if np.all(s == 0.0):
        return -math.inf, 0.0  # identically zero: no information on its theta at all
    return _sequence_exponent(s, l, ks, what)


def _sequence_exponent(signs, logs, ks, what):
    if np.any(signs == 0.0):
        return None, 0.0  # identically-zero entries: caller decides
    if np.any(signs[:-1] * signs[1:] < 0.0):
        raise NonAlgebraicSpectrumError(f"{what} oscillates in sign; classification refused")
    slope, resid = _fit_log_slope(ks, logs)
    if resid > 0.5:
        raise NonAlgebraicSpectrumError(
            f"{what} is far from a power law (log-log fit residual {resid:.2f})"
        )
    return slope, resid


def classify_algebraic(spec, params, k_range=(1, 1000)):
    """(alpha, alpha1, beta, beta1) exponents, exact for power-law generators.

    lambda and mu are examined at the corners of the theta boxes; beta = 0
    encodes a bounded dissipation sequence.
    """
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    k_hi = min(k_hi, spec.k_max)
    upper = np.arange(max(k_lo, (k_lo + k_hi) // 2), k_hi + 1)
    a1, fit_quality = _magnitude_exponent(spec.tau, upper, "tau")

    # lambda exponents per corner must agree
    alphas = []
    for th in params.theta1_box:
        exact = _affine_power_lead(spec.kappa.power_law(), spec.tau.power_law(), th)
        if exact is not None:
            alphas.append(exact[0])
            continue
        s, l = _lambda_slog_arrays(spec, th, upper)
        val, q = _sequence_exponent(s, l, upper, "lambda")
        if val is None:
            raise NonAlgebraicSpectrumError("lambda vanishes on the fit range")
        alphas.append(val)
        fit_quality = max(fit_quality, q)
    if max(alphas) - min(alphas) > 0.05:
        raise NonAlgebraicSpectrumError(
            f"lambda exponent is not theta-uniform over the box: {alphas}"
        )
    alpha = float(np.mean(alphas))

    b1, q = _magnitude_exponent(spec.nu, upper, "nu")
    fit_quality = max(fit_quality, q)

    # mu: bounded (beta = 0) or -mu ~ k^beta; exact when rho, nu are power laws
    powers = (spec.rho.power_law(), spec.nu.power_law())
    exact_mu = [_affine_power_lead(*powers, th) for th in params.theta2_box]
    if all(r is not None for r in exact_mu) or all(p is not None and p[0] == 0.0 for p in powers):
        if any(r is None for r in exact_mu):  # rho = nu = 0: mu identically zero
            beta = 0.0
        else:
            exps = {r[0] for r in exact_mu}
            if len(exps) > 1:
                raise NonAlgebraicSpectrumError(f"mu exponent not theta-uniform: {exact_mu}")
            exp = exps.pop()
            if exp <= 0.0:
                beta = 0.0  # bounded dissipation/amplification
            elif all(r[1] < 0.0 for r in exact_mu):
                beta = exp
            else:
                raise NonAlgebraicSpectrumError(
                    "unbounded mu must be eventually negative for an algebraic class"
                )
    else:
        mus = {th: _mu_arrays(spec, th, upper) for th in params.theta2_box}
        max_abs = max(float(np.max(np.abs(m))) for m in mus.values())
        half = max(1, len(upper) // 2)
        max_abs_head = max(float(np.max(np.abs(m[:half]))) for m in mus.values())
        if max_abs <= max(1e-12, max_abs_head) * 1.02:
            beta = 0.0
        else:
            betas = []
            for th, m in mus.items():
                if np.any(m >= 0.0):
                    raise NonAlgebraicSpectrumError(
                        "unbounded mu must be eventually negative for an algebraic class"
                    )
                slope, q = _fit_log_slope(upper, np.log(-m))
                betas.append(slope)
                fit_quality = max(fit_quality, q)
            if max(betas) - min(betas) > 0.05:
                raise NonAlgebraicSpectrumError(f"mu exponent not theta-uniform: {betas}")
            beta = float(np.mean(betas))
            if beta <= 0.0:
                beta = 0.0
    return AlgebraicClass(alpha, a1, beta, b1, fit_quality)


def _affine_power_lead(a, b, theta):
    """(exponent, leading coefficient) of a + theta*b for two `Generator.power_law` results.

    Returns None when either generator is not a power law / constant, when the
    combination vanishes, or when the leading term cancels exactly.
    """
    if a is None or b is None:
        return None
    terms = [(e, c) for e, c in [(a[1], a[0]), (b[1], b[0] * theta)] if c != 0.0]
    if not terms:
        return None
    top = max(e for e, _ in terms)
    lead = sum(c for e, c in terms if e == top)
    if lead == 0.0:
        return None  # exact cancellation of the leading term: fall back to fitting
    return top, lead


def consistency_conditions(cls):
    """Summand growth exponents and the two order conditions.

    gamma1 = 2*alpha1 - alpha - beta   (theta1 estimable iff gamma1 >= -1)
    gamma2 = 2*beta1 - beta            (theta2 estimable iff gamma2 >= -1)
    gamma12 = alpha1 - alpha + beta1 - beta
    """
    g1 = 2.0 * cls.alpha1 - cls.alpha - cls.beta
    g2 = 2.0 * cls.beta1 - cls.beta
    g12 = cls.alpha1 - cls.alpha + cls.beta1 - cls.beta
    return {
        "gamma1": g1,
        "gamma2": g2,
        "gamma12": g12,
        "theta1_ok": bool(g1 >= -1.0),
        "theta2_ok": bool(g2 >= -1.0),
    }


# ---------------------------------------------------------------------------
# Slowly increasing sequences (general, non-algebraic case)
# ---------------------------------------------------------------------------

_SLOW_PASS_THRESHOLD = 0.05  # slowly_increasing_test: bound on r_n
_SLOW_SLOPE_TOL = 0.01       # and on the tail slope of log r_k in log k


def slowly_increasing_test(seq, n_max=None):
    """r_n = sum a_k^2 / (sum a_k)^2 with a trilean verdict on its tail behavior.

    "pass" when r_n < 0.05 and the slope of log r_k in log k over the last tenth
    of the k (at least 4) is at most 0.01, "fail" when r_n >= 0.05 and it is at
    least -0.01, else "inconclusive".  seq may be positive values or a callable
    k -> a_k; the curve is computed in log space, so values like e^sqrt(k) are
    fine far past the float overflow point of a_k^2.
    """
    if callable(seq):
        if n_max is None:
            raise ValueError("n_max is required when seq is a callable")
        vals = np.array([seq(k) for k in range(1, n_max + 1)], dtype=float)
    else:
        vals = np.asarray(seq, dtype=float)
        if n_max is not None:
            vals = vals[:n_max]
    if vals.size < 10:
        raise ValueError("need at least 10 terms")
    if np.any(~(vals > 0.0)):
        raise ValueError("sequence must be strictly positive")
    return _slowly_increasing_log(np.log(vals))


def _slowly_increasing_log(log_vals):
    ks = np.arange(1, len(log_vals) + 1)
    log_a = np.asarray(log_vals, dtype=float)
    r = np.exp(np.logaddexp.accumulate(2.0 * log_a) - 2.0 * np.logaddexp.accumulate(log_a))
    decile = max(4, len(ks) // 10)
    slope = float(_line_fit(np.log(ks[-decile:].astype(float)), np.log(r[-decile:]))[0][0])
    verdict = INCONCLUSIVE
    if r[-1] < _SLOW_PASS_THRESHOLD and slope <= _SLOW_SLOPE_TOL:
        verdict = PASS
    elif r[-1] >= _SLOW_PASS_THRESHOLD and slope >= -_SLOW_SLOPE_TOL:
        verdict = FAIL
    return {"ratio_curve": np.column_stack([ks, r]), "verdict": verdict, "tail_slope": slope}


def conditions_1_2(spec, params, n_max=1000):
    """Weak-law conditions for estimability when the eigenvalues are not power laws.

    Condition 1: tau_k^2 M(T mu_k) / lambda_k slowly increasing (theta1).
    Condition 2: nu_k^2 M(T mu_k) slowly increasing (theta2).
    Both sequences are evaluated at the true theta, in log space.
    """
    ks = np.arange(1, min(n_max, spec.k_max) + 1)
    (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
    if np.any(s_lam <= 0.0):
        raise ValueError(f"conditions require lambda_k > 0; mode {ks[np.argmax(s_lam <= 0.0)]} fails")
    m_log = m_func_log(params.T * mu)
    _, l_tau = spec.tau.slog_array(ks)
    _, l_nu = spec.nu.slog_array(ks)
    with np.errstate(invalid="ignore"):
        log_c1 = np.where(l_tau > _NEG_INF, 2.0 * l_tau - l_lam + m_log, _NEG_INF)
        log_c2 = np.where(l_nu > _NEG_INF, 2.0 * l_nu + m_log, _NEG_INF)

    fail = {"verdict": "fail", "ratio_curve": None, "tail_slope": math.nan}
    res1, res2 = (_slowly_increasing_log(c) if np.all(np.isfinite(c)) else fail for c in (log_c1, log_c2))
    return {"cond1": res1["verdict"], "cond2": res2["verdict"], "curve1": res1["ratio_curve"], "curve2": res2["ratio_curve"]}
