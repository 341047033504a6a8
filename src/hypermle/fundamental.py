"""Closed-form fundamental solution of u'' - mu u' + lam u = w' and its energy integrals.

The mode response kernel f solves f'' - mu f' + lam f = 0 with f(0)=0,
f'(0)=1.  Everything the estimator theory needs reduces to f, f', the
functions M and V, and a handful of integrals of f^2 and f'^2 over [0, T].

The energy integrals are sums of exponential moments and are evaluated in
closed form for every lam: by a series in (mu^2/4 - lam) T^2 when the total
phase l*T is below 0.5 (or strong damping, l <= -mu/16 with mu < 0,
confines the kernel to where it is), by exact antiderivatives up to phase
1e7, and for lam > 0 by their phase-averaged envelope (relative error
O(1/(l*T))) beyond, or when lam itself leaves the float range.  lam <= 0 has
real roots, one of them >= 0, so it never needs the envelope.  covariance_u
follows from int f^2 by the shift identity of f.  No integral is computed by
quadrature at run time; the tests keep adaptive quadrature as an independent
oracle.  The antiderivative and envelope formulas take one mode or arrays of
modes alike, so psi_curve evaluates all its modes in one array pass.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate  # perfbench/tracing.py wraps this name; nothing here calls it

__all__ = [
    "RootKind",
    "characteristic_roots",
    "fund_solution",
    "m_func",
    "v_func",
    "m_func_log",
    "ModeMoments",
    "mode_moments",
    "covariance_u",
    "predicted_moments",
    "psi",
    "psi_curve",
    "upsilon",
    "FundamentalOverflowError",
]

ROOT_COMPLEX = "complex_pair"
ROOT_DOUBLE = "double_root"
ROOT_REAL = "real_pair"

# relative width of the discriminant band that is tagged as a double root
DOUBLE_ROOT_BAND = 1e-8
# below this value of (l*t)^2 the sin/sinh branches are evaluated by one series
_SERIES_X = 0.25
# largest exponent taken through exp(); e^700 is within the float range
_EXP_MAX = 700.0

# regime thresholds of the energy integrals, in units of total phase l*T
_SERIES_PHASE_MAX = math.sqrt(_SERIES_X)  # below: series in (l*T)^2
_ENVELOPE_PHASE_MIN = 1e7          # beyond: drop O(1/(l*T)) oscillatory terms


class FundamentalOverflowError(OverflowError):
    """exp(b*t) exceeds the float range; only possible off the hyperbolic regime."""

    def __init__(self, exponent):
        super().__init__(
            f"fundamental solution overflows: exponent {exponent:.3g} "
            f"(log-magnitude fallback value)"
        )
        self.log_magnitude = exponent


def _slog_lam(k, s_lam, l_lam):
    """lam of mode k from its (sign, log |lam|) form; the one place that rebuilds it."""
    if l_lam > _EXP_MAX:
        raise ValueError(f"mode {k}: lambda exceeds the float range; simulation unsupported")
    return s_lam * math.exp(l_lam) if s_lam != 0.0 else 0.0


@dataclass(frozen=True)
class RootKind:
    tag: str
    ell: float       # sqrt(|mu^2/4 - lam|)
    half_mu: float   # b = mu/2


def characteristic_roots(lam, mu):
    """Classify r^2 - mu r + lam = 0 by its discriminant."""
    b = 0.5 * mu
    disc = b * b - lam
    scale = max(abs(b * b), abs(lam))
    ell = math.sqrt(abs(disc))
    if scale == 0.0 or abs(disc) <= DOUBLE_ROOT_BAND * scale:
        return RootKind(ROOT_DOUBLE, ell, b)
    if disc < 0.0:
        return RootKind(ROOT_COMPLEX, ell, b)
    return RootKind(ROOT_REAL, ell, b)


def _sc_series(x):
    """S(x) = sum x^j/(2j+1)!, C(x) = sum x^j/(2j)! for |x| small.

    S and C interpolate sin/ sinh (x = -(l t)^2 resp. (l t)^2): t*S = sin(lt)/l
    or sinh(lt)/l, C = cos(lt) or cosh(lt).
    """
    s = np.ones_like(x)
    c = np.ones_like(x)
    term_s = np.ones_like(x)
    term_c = np.ones_like(x)
    for j in range(1, 11):
        term_s = term_s * x / ((2 * j) * (2 * j + 1))
        term_c = term_c * x / ((2 * j - 1) * (2 * j))
        s += term_s
        c += term_c
    return s, c


def _stable_real_roots(lam, b, ell):
    """Roots b +- ell (ell > 0): the one of larger modulus directly, the other from r+ r- = lam."""
    damped = b <= 0.0
    far = b + _where(damped, -ell, ell)
    near = lam / far
    return _where(damped, (near, far), (far, near))


def fund_solution(lam, mu, t):
    """(f(t), f'(t)) for scalar lam, mu; t may be an array.

    Branches follow the sign of mu^2/4 - lam; near the double root the
    sin/sinh factor is evaluated by a single series in (l t)^2 so that the
    value is continuous across the switch.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(t < 0.0):
        raise ValueError("fund_solution requires t >= 0")
    b = 0.5 * mu
    disc = b * b - lam
    ell = math.sqrt(abs(disc))

    tmax = float(t.max()) if t.size else 0.0
    grow = b + (ell if disc > 0.0 else 0.0)  # largest root's real part
    if grow * tmax > _EXP_MAX:
        raise FundamentalOverflowError(grow * tmax)

    x = disc * t * t  # signed (l t)^2
    f = np.empty_like(t)
    fdot = np.empty_like(t)

    near = np.abs(x) < _SERIES_X
    if np.any(near):
        tn = t[near]
        s, c = _sc_series(x[near])
        ebt = np.exp(b * tn)
        f[near] = tn * s * ebt
        fdot[near] = ebt * (b * tn * s + c)

    far = ~near
    if np.any(far):
        tf = t[far]
        if disc < 0.0:
            ebt = np.exp(b * tf)
            sn = np.sin(ell * tf)
            cs = np.cos(ell * tf)
            f[far] = ebt * sn / ell
            fdot[far] = ebt * (cs + b * sn / ell)
        else:
            r_plus, r_minus = _stable_real_roots(lam, b, ell)
            ep = np.exp(np.minimum(r_plus * tf, _EXP_MAX))
            em = np.exp(np.minimum(r_minus * tf, _EXP_MAX))
            f[far] = (ep - em) / (2.0 * ell)
            fdot[far] = (r_plus * ep - r_minus * em) / (2.0 * ell)

    if scalar:
        return float(f[0]), float(fdot[0])
    return f, fdot


# ---------------------------------------------------------------------------
# The auxiliary functions M and V
# ---------------------------------------------------------------------------

_M_SWITCH = 1e-3
# V's numerator is O(x^4) against O(x)-sized terms, so its direct form only
# reaches 1e-10 accuracy beyond |x| ~ 0.1; the degree-8 series is exact to
# machine precision on that whole window.
_V_SWITCH = 0.1
_M_COEF = np.array([1.0 / (2.0 * math.factorial(m + 2)) for m in range(9)])
_V_COEF = np.array(
    [(2.0 ** (m + 4) + 4.0 - 4.0 * (m + 4)) / (4.0 * math.factorial(m + 4)) for m in range(9)]
)


def m_func(x):
    """M(x) = (e^x - x - 1)/(2 x^2), continuous with M(0) = 1/4."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < _M_SWITCH
    out[small] = np.polynomial.polynomial.polyval(x[small], _M_COEF)
    xs = x[~small]
    with np.errstate(over="ignore"):
        out[~small] = (np.expm1(xs) - xs) / (2.0 * xs * xs)
    return float(out[0]) if scalar else out


def v_func(x):
    """V(x) = (e^{2x} + 4e^x - 4x e^x - 2x - 5)/(4 x^4), V(0) = 1/24."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < _V_SWITCH
    out[small] = np.polynomial.polynomial.polyval(x[small], _V_COEF)
    xs = x[~small]
    with np.errstate(over="ignore"):
        em1 = np.expm1(xs)
        # e^{2x} + 4e^x - 4x e^x - 2x - 5 rearranged through expm1 terms
        num = np.expm1(2.0 * xs) + 4.0 * em1 - 4.0 * xs * em1 - 6.0 * xs
        out[~small] = num / (4.0 * xs ** 4)
    return float(out[0]) if scalar else out


def m_func_log(x):
    """log M(x), stable for arguments far outside the float range of e^x; x a float or an array."""
    if not isinstance(x, np.ndarray):
        return float(m_func_log(np.array([x], dtype=float))[0])
    out = np.empty(x.shape)
    mid, high = np.abs(x) <= 30.0, x > 30.0
    low = ~(mid | high)
    out[mid] = _each(math.log, m_func(x[mid]))
    xh, xl = x[high], x[low]
    out[high] = xh - _each(math.log, 2.0 * xh * xh) + _each(math.log1p, -(xh + 1.0) * _each(math.exp, -xh))
    out[low] = _each(math.log, -xl - 1.0 + _each(math.exp, xl)) - _each(math.log, 2.0 * xl * xl)
    return out


# ---------------------------------------------------------------------------
# One formula for a mode or for an array of modes
# ---------------------------------------------------------------------------
# The antiderivative and envelope formulas below take numbers (one mode, from
# scaled_mode_integrals and _closed_integrals) or float arrays (many modes,
# from _scaled_integrals) and round alike either way.  These helpers are where
# the two differ: a branch becomes a mask, and the math module's exp, log and
# pow, whose last bit numpy's do not always share, go element by element.


def _where(cond, a, b):
    """a where cond holds, b elsewhere."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _each(fn, x, *more):
    """fn(x, *more), applied element by element when x is an array (more: arrays like it, or numbers)."""
    if not isinstance(x, np.ndarray):
        return fn(x, *more)
    more = (m.tolist() if isinstance(m, np.ndarray) else itertools.repeat(m) for m in more)
    return np.fromiter(map(fn, x.tolist(), *more), dtype=float, count=x.size)


def _complex(re, im):
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _square(z):
    """z*z; a complex array's rounded as Python rounds a complex product (numpy's may fuse a multiply-add)."""
    if isinstance(z, np.ndarray) and z.dtype.kind == "c":
        return _complex(z.real * z.real - z.imag * z.imag, 2.0 * (z.real * z.imag))
    return z * z


def _check_exponent(x):
    """Raise FundamentalOverflowError for an exponent beyond _EXP_MAX (an array's first such)."""
    if isinstance(x, np.ndarray):
        beyond = x[x > _EXP_MAX]
        if beyond.size:
            raise FundamentalOverflowError(float(beyond[0]))
    elif x > _EXP_MAX:
        raise FundamentalOverflowError(x)


# ---------------------------------------------------------------------------
# Exact antiderivative building blocks
# ---------------------------------------------------------------------------

# terms of the series of _p0 (t_0 = 1, t_j = t_{j-1} * zT / d_j) and _w0 (t_0 = 1/2, t_j = t_{j-1} * zT * a_j / d_j)
_P0_STEPS = tuple(j + 1.0 for j in range(1, 22))
_W0_STEPS = tuple((j + 1.0, (j + 2.0) * (j + 1.0)) for j in range(1, 22))


def _p0_series(zT):
    term = acc = 1.0
    for d in _P0_STEPS:
        term = term * zT / d
        acc += term
    return acc


def _w0_series(zT):
    term = acc = 0.5
    for a, d in _W0_STEPS:
        term = term * zT * a / d
        acc += term
    return acc


def _p0_quotient(z, zT):
    return (np.exp(zT) - 1.0) / z


def _w0_quotient(z, zT):
    return (np.exp(zT) - zT - 1.0) / _square(z)


def _split(near, z, zT, scale, series, quotient):
    """scale * series(zT) where near holds, quotient(z, zT) elsewhere, over arrays."""
    if not near.any():
        return quotient(z, zT)
    out = np.empty_like(zT)
    out[near] = scale * series(zT[near])
    out[~near] = quotient(z[~near], zT[~near])
    return out


# _p0 and _w0 take their series for |zT| < 0.5.  Only a real z gets there: a
# complex z comes from a mode of phase ell*T >= 0.5, so |zT| >= 0.5.


def _p0(z, T):
    """int_0^T e^{zt} dt = (e^{zT} - 1)/z for real or complex z, series-stable near z = 0."""
    zT = z * T
    near = abs(zT) < 0.5
    if isinstance(near, np.ndarray):
        return _split(near, z, zT, T, _p0_series, _p0_quotient)
    return T * _p0_series(zT) if near else _p0_quotient(z, zT)


def _w0(z, T):
    """int_0^T (T - t) e^{zt} dt = (e^{zT} - zT - 1)/z^2."""
    zT = z * T
    near = abs(zT) < 0.5
    if isinstance(near, np.ndarray):
        return _split(near, z, zT, T * T, _w0_series, _w0_quotient)
    return T * T * _w0_series(zT) if near else _w0_quotient(z, zT)


@dataclass(frozen=True)
class ScaledIntegrals:
    """Mode energy integrals over [0, T] in lam-scaled form.

    lam_if2   = lam * int f^2
    ifd2      =       int f'^2
    lam_iif2  = lam * int (T-t) f^2      (= lam * double integral of f^2)
    iifd2     =       int (T-t) f'^2
    sqlam_if  = sqrt(lam) * int f
    regime    = "closed" | "envelope"
    """

    lam_if2: float
    ifd2: float
    lam_iif2: float
    iifd2: float
    sqlam_if: float
    regime: str


# Coefficients of S^2, S*C and C^2 as power series in y = (l t)^2 (see
# _sc_series), and of S itself; 14 terms reach machine precision for |y| < 1/4.
_SERIES_J = np.arange(14)
_FACT = np.array([math.factorial(n) for n in range(2 * len(_SERIES_J) + 1)], dtype=float)
_S2_COEF = 2.0 ** (2 * _SERIES_J + 1) / _FACT[2 * _SERIES_J + 2]
_SC_COEF = 4.0 ** _SERIES_J / _FACT[2 * _SERIES_J + 1]
_C2_COEF = np.where(_SERIES_J == 0, 1.0, 2.0 ** (2 * _SERIES_J - 1) / _FACT[2 * _SERIES_J])
_S_COEF = 1.0 / _FACT[2 * _SERIES_J + 1]


def _phi(z, n_max):
    """phi_n(z) = int_0^1 s^n e^{zs} ds for n = 0..n_max, free of cancellation.

    Positive series where they converge fast (z >= 0: sum z^i/(i! (n+i+1));
    z < 0: e^z sum |z|^i n!/(n+i+1)!), and elsewhere the forward recursion
    phi_n = (e^z - n phi_{n-1})/z, which is stable there (|z| > n).
    """
    a = abs(z)
    # the series serve n >= z - 30 (z >= 0) and n >= |z| - 1 (z < 0); the recursion the rest
    n_rec = min(max(math.ceil(z - 30.0 if z >= 0.0 else a - 1.0), 0), n_max + 1)
    out = np.empty(n_max + 1)
    if n_rec > 0:
        ez = math.exp(z)
        out[0] = math.expm1(z) / z
        for n in range(1, n_rec):
            out[n] = (ez - n * out[n - 1]) / z
    if n_rec <= n_max:
        n = np.arange(n_rec, n_max + 1)[None, :]
        i = np.arange(int(a + 10.0 * math.sqrt(a) + 40.0))[:, None]
        if z >= 0.0:
            zi = np.cumprod(np.concatenate(([1.0], z / i[1:, 0])))
            out[n_rec:] = (zi[:, None] / (n + i + 1)).sum(axis=0)
        else:
            terms = np.cumprod(np.vstack([1.0 / (n + 1), a / (n + i[1:] + 1)]), axis=0)
            out[n_rec:] = math.exp(z) * terms.sum(axis=0)
    return out


def _integrals_series(lam, mu, T):
    """Integrals for (l*T)^2 < 1/4 or l <= -mu/16, any sign of lam and of the discriminant.

    With y = (mu^2/4 - lam) T^2, f = t e^{bt} S and f' = e^{bt} (b t S + C) at
    argument y (t/T)^2, so every integral is a series in y whose terms are the
    moments int_0^T t^n e^{mu t} dt = T^{n+1} phi_n(mu T) (e^{bt} for int f);
    the (T - t) weights take T^{n+2} (phi_n - phi_{n+1}).
    """
    b = 0.5 * mu
    beta = b * T
    y_pow = ((b * b - lam) * T * T) ** _SERIES_J
    n_terms = len(_SERIES_J)

    def energies(p):
        """(int t^2 S^2, int (b t S + C)^2) weights contracted with moments p."""
        even, odd, even2 = p[0:2 * n_terms:2], p[1:2 * n_terms:2], p[2:2 * n_terms + 1:2]
        f2 = y_pow @ (_S2_COEF * even2)
        fd2 = y_pow @ (beta * beta * _S2_COEF * even2 + 2.0 * beta * _SC_COEF * odd
                       + _C2_COEF * even)
        return f2, fd2

    phi = _phi(mu * T, 2 * n_terms + 1)
    if2, ifd2 = energies(phi)
    iif2, iifd2 = energies(phi[:-1] - phi[1:])
    intf = y_pow @ (_S_COEF * _phi(beta, 2 * n_terms - 1)[1::2])
    return T ** 3 * if2, T * ifd2, T ** 4 * iif2, T * T * iifd2, T * T * intf


def _integrals_closed_complex(lam, mu, T, ell):
    b = 0.5 * mu
    c = 2.0 * b
    z = _complex(2.0 * b, 2.0 * ell)
    p0c = _p0(c, T)
    p0z = _p0(z, T)
    w0c = _w0(c, T)
    w0z = _w0(z, T)
    ell2 = ell * ell

    if2 = (p0c - p0z.real) / (2.0 * ell2)
    iif2 = (w0c - w0z.real) / (2.0 * ell2)
    ifd2 = 0.5 * (p0c + p0z.real) + (b / ell) * p0z.imag + (b * b / (2.0 * ell2)) * (p0c - p0z.real)
    iifd2 = 0.5 * (w0c + w0z.real) + (b / ell) * w0z.imag + (b * b / (2.0 * ell2)) * (w0c - w0z.real)
    intf = _p0(_complex(b, ell), T).imag / ell
    return if2, ifd2, iif2, iifd2, intf


def _integrals_closed_real(lam, mu, T, ell):
    b = 0.5 * mu
    r_plus, r_minus = _stable_real_roots(lam, b, ell)
    _check_exponent(2.0 * r_plus * T)
    four_ell2 = 4.0 * ell * ell
    p0p, p0m, p0c = _p0(2.0 * r_plus, T), _p0(2.0 * r_minus, T), _p0(mu, T)
    w0p, w0m, w0c = _w0(2.0 * r_plus, T), _w0(2.0 * r_minus, T), _w0(mu, T)
    # r ** 2 by the C library's pow, as Python takes it: numpy's r ** 2 is r * r, not always the same
    r2_plus, r2_minus = _each(pow, r_plus, 2), _each(pow, r_minus, 2)

    if2 = (p0p - 2.0 * p0c + p0m) / four_ell2
    iif2 = (w0p - 2.0 * w0c + w0m) / four_ell2
    # r+^2 e^{2 r+ T} alone can leave the float range where int f'^2 does not
    ifd2 = (r2_plus / four_ell2) * p0p + (r2_minus * p0m - 2.0 * lam * p0c) / four_ell2
    iifd2 = (r2_plus * w0p - 2.0 * lam * w0c + r2_minus * w0m) / four_ell2
    intf = (_p0(r_plus, T) - _p0(r_minus, T)) / (2.0 * ell)
    return if2, ifd2, iif2, iifd2, intf


def _b2_over_lam(b, log_lam):
    """b^2/lam from log lam, at most 1."""
    if isinstance(b, np.ndarray):
        return _each(_b2_over_lam, b, log_lam)
    return 0.0 if b == 0.0 else math.exp(min(2.0 * math.log(abs(b)) - log_lam, 0.0))


def _integrals_envelope(log_lam, mu, T):
    """Phase-averaged integrals; valid for l*T >> 1, error O(1/(l*T)).

    Works from log(lam) directly, so it covers eigenvalues beyond the float
    range (the only regime that has to).
    """
    b = 0.5 * mu
    b2_over_lam = _b2_over_lam(b, log_lam)
    if _any(b2_over_lam >= 0.5):
        raise ValueError("envelope integrals require mu^2 << 4 lam")
    lam_over_ell2 = 1.0 / (1.0 - b2_over_lam)
    b2_over_ell2 = b2_over_lam * lam_over_ell2

    p0c = _p0(2.0 * b, T)
    w0c = _w0(2.0 * b, T)
    lam_if2 = 0.5 * lam_over_ell2 * p0c
    ifd2 = 0.5 * (1.0 + b2_over_ell2) * p0c
    lam_iif2 = 0.5 * lam_over_ell2 * w0c
    iifd2 = 0.5 * (1.0 + b2_over_ell2) * w0c
    return ScaledIntegrals(lam_if2, ifd2, lam_iif2, iifd2, 0.0, "envelope")


# regime of a mode's energy integrals
_SERIES, _REAL, _COMPLEX, _ENVELOPE = range(4)


def _regime(lam, mu, T):
    """(ell, series, real, closed) of modes (lam, mu) over [0, T], numbers or arrays.

    The first of series, real and closed that holds names the evaluation:
    the series, the real-root or the complex-root antiderivatives; the
    envelope serves where none does.  The series covers total phase ell*T
    below 0.5, and strong damping (8*ell <= -b, b = mu/2): there e^{bt}
    confines the integrands to t ~ 1/|b|, where the antiderivatives cancel by
    (b/ell)^2 while the series terms shrink by (ell/b)^2 <= 1/64 each,
    whatever the phase.
    """
    b = 0.5 * mu
    disc = b * b - lam
    ell = _sqrt(abs(disc))
    phase = ell * T
    return ell, (phase < _SERIES_PHASE_MAX) | (8.0 * ell <= -b), disc > 0.0, phase <= _ENVELOPE_PHASE_MIN


def scaled_mode_integrals(mu, T, log_lam):
    """Dispatch between series, antiderivative, and envelope evaluation (lam = e^log_lam > 0).

    Every integral carries the factor e^{mu T}; beyond e^_EXP_MAX it raises
    FundamentalOverflowError, as the real-root antiderivatives do.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    _check_exponent(mu * T)
    if log_lam > _EXP_MAX:
        return _integrals_envelope(log_lam, mu, T)
    lam = math.exp(log_lam)
    closed = _closed_integrals(lam, mu, T)
    if closed is None:
        return _integrals_envelope(math.log(lam), mu, T)
    if2, ifd2, iif2, iifd2, intf = closed
    return ScaledIntegrals(lam * if2, ifd2, lam * iif2, iifd2, math.sqrt(lam) * intf, "closed")


def _closed_integrals(lam, mu, T):
    """(int f^2, int f'^2, int (T-t) f^2, int (T-t) f'^2, int f) over [0, T], lam of either sign.

    lam <= 0 has real roots, one of them >= 0, so it takes the series or the
    real-root antiderivatives.  None for complex roots beyond phase
    _ENVELOPE_PHASE_MIN, where only the (lam-scaled) envelope serves.
    """
    ell, series, real, closed = _regime(lam, mu, T)
    if series:
        return _integrals_series(lam, mu, T)
    if real:
        return _integrals_closed_real(lam, mu, T, ell)
    if closed:
        return _integrals_closed_complex(lam, mu, T, ell)
    return None


def _scaled_integrals(mu, T, log_lam):
    """scaled_mode_integrals of float arrays of modes in one pass: the rows lam_if2, ifd2,
    lam_iif2, iifd2 and sqlam_if of a (5, n) array.

    A mask picks each mode's regime.  The few series modes go one at a time,
    as _phi works per argument.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    _check_exponent(mu * T)
    in_range = log_lam <= _EXP_MAX  # beyond, lam leaves the float range and the envelope serves
    lam = _each(math.exp, np.where(in_range, log_lam, 0.0))
    ell, *tests = _regime(lam, mu, T)
    regime = np.where(in_range, np.select(tests, [_SERIES, _REAL, _COMPLEX], _ENVELOPE), _ENVELOPE)

    out = np.empty((5, len(lam)))
    for code, formula in ((_REAL, _integrals_closed_real), (_COMPLEX, _integrals_closed_complex)):
        sel = regime == code
        out[:, sel] = formula(lam[sel], mu[sel], T, ell[sel])
    for i in np.flatnonzero(regime == _SERIES).tolist():
        out[:, i] = _integrals_series(float(lam[i]), float(mu[i]), T)
    closed = regime != _ENVELOPE
    out[0, closed] *= lam[closed]
    out[2, closed] *= lam[closed]
    out[4, closed] *= np.sqrt(lam[closed])

    env = ~closed
    log_env = log_lam[env]
    rebuilt = in_range[env]  # as scaled_mode_integrals does: the envelope of a float lam takes log(lam)
    log_env[rebuilt] = _each(math.log, lam[env][rebuilt])
    e = _integrals_envelope(log_env, mu[env], T)
    out[:4, env] = (e.lam_if2, e.ifd2, e.lam_iif2, e.iifd2)
    out[4, env] = 0.0
    return out


# ---------------------------------------------------------------------------
# Public moment operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeMoments:
    int_f2: float
    int_fdot2: float
    double_int_f2: float
    double_int_fdot2: float
    Eu2T: float


def mode_moments(lam, mu, T):
    """Energy integrals of one mode; Eu2T equals int_f2 by construction."""
    if lam > 0.0:
        si = scaled_mode_integrals(mu, T, math.log(lam))
        int_f2 = si.lam_if2 / lam
        dbl_f2 = si.lam_iif2 / lam
        return ModeMoments(int_f2, si.ifd2, dbl_f2, si.iifd2, int_f2)
    if T <= 0.0:
        raise ValueError("T must be positive")
    int_f2, int_fd2, dbl_f2, dbl_fd2, _ = _closed_integrals(lam, mu, T)
    return ModeMoments(int_f2, int_fd2, dbl_f2, dbl_fd2, int_f2)


def covariance_u(lam, mu, s, t):
    """E u(s)u(t) = int_0^{min(s,t)} f(s-r) f(t-r) dr, in closed form.

    With s <= t, d = t - s and g = f' - mu f, f(a + d) = f(a) g(d) + f'(a) f(d)
    (both sides solve the mode equation in d with the same value and slope at
    d = 0), so the integral is g(d) int_0^s f^2 + f(d) f(s)^2 / 2.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("covariance_u requires s, t >= 0")
    s, t = min(s, t), max(s, t)
    if s == 0.0:
        return 0.0
    f_s, _ = fund_solution(lam, mu, s)
    f_d, fd_d = fund_solution(lam, mu, t - s)
    return (fd_d - mu * f_d) * mode_moments(lam, mu, s).int_f2 + f_d * f_s * f_s / 2.0


def _em1_over(x):
    """(e^x - 1)/x, continuous at 0."""
    if abs(x) < 1e-8:
        return 1.0 + 0.5 * x
    return math.expm1(x) / x


def predicted_moments(lam, mu, T):
    """Leading-order moments of u(T), int u^2 and int v^2 (valid for large lam)."""
    if lam <= 0.0:
        raise ValueError("predicted_moments requires lam > 0")
    x = mu * T
    eu2t = T * _em1_over(x) / (2.0 * lam)
    mb = m_func(x)
    vb = v_func(x)
    return {
        "Eu2T_asym": eu2t,
        "VarU2T_asym": 3.0 * eu2t * eu2t,
        "EintU2_asym": T * T * mb / lam,
        "VarIntU2_asym": T ** 4 * vb / (lam * lam),
        "EintV2_asym": T * T * mb,
        "VarIntV2_asym": T ** 4 * vb,
    }


# ---------------------------------------------------------------------------
# Normalizing sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiValues:
    N: int
    psi1: float
    psi2: float
    psi12: float
    psi1_asym: float
    psi2_asym: float


def _from_slog(s, l):
    """s * e^l elementwise, by math.exp; 0 where l = -inf."""
    return np.where(l > -math.inf, s * _each(math.exp, l), 0.0)


def _psi_mode_terms(spec, params, ks):
    """Per-mode contributions to (psi1, psi2, psi12, psi1_asym, psi2_asym), one row per mode."""
    from .spectrum import lambda_mu_slog  # late import: avoid a module cycle

    ks = np.asarray(ks)
    (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
    s_tau, l_tau = spec.tau.slog_array(ks)
    s_nu, l_nu = spec.nu.slog_array(ks)
    T = params.T
    nu = _from_slog(s_nu, l_nu)
    out = np.empty((len(ks), 5))

    # no large-lam form exists for a mode with lam <= 0: its exact terms fill the _asym columns
    neg = np.flatnonzero(s_lam <= 0.0)
    tau = _from_slog(s_tau[neg], l_tau[neg])
    for i, t, n in zip(neg.tolist(), tau.tolist(), nu[neg].tolist()):
        lam = _slog_lam(int(ks[i]), float(s_lam[i]), float(l_lam[i]))
        if2, _, iif2, iifd2, _ = _closed_integrals(lam, float(mu[i]), T)
        exact = [t * t * iif2, n * n * iifd2, -0.5 * t * n * if2]
        out[i] = exact + exact[:2]

    pos = s_lam > 0.0
    lam_if2, _, lam_iif2, iifd2, _ = _scaled_integrals(mu[pos], T, l_lam[pos])
    s_tau, l_tau, s_nu, l_nu, nu, l_lam = (a[pos] for a in (s_tau, l_tau, s_nu, l_nu, nu, l_lam))
    has_tau, has_nu = l_tau > -math.inf, l_nu > -math.inf
    c1 = np.where(has_tau, _each(math.exp, 2.0 * l_tau - l_lam), 0.0)
    c12 = np.where(has_tau & has_nu, s_tau * s_nu * _each(math.exp, l_tau + l_nu - l_lam), 0.0)
    m_log = m_func_log(T * mu[pos])
    asym1 = np.where(has_tau, _each(math.exp, np.minimum(2.0 * l_tau - l_lam + m_log, _EXP_MAX)) * T ** 2, 0.0)
    asym2 = nu * nu * T ** 2 * _each(math.exp, np.minimum(m_log, _EXP_MAX))
    out[pos] = np.column_stack([c1 * lam_iif2, nu * nu * iifd2, -0.5 * c12 * lam_if2, asym1, asym2])
    return out


def psi(spec, params, N):
    """Exact and asymptotic normalizers at the true parameters."""
    return psi_curve(spec, params, [N])[0]


def psi_curve(spec, params, N_list):
    """PsiValues at every N in an increasing list, sharing per-mode work."""
    N_list = [int(n) for n in N_list]
    if not N_list or sorted(N_list) != N_list or N_list[0] < 1 or N_list[-1] > spec.k_max:
        raise ValueError(f"N_list must be increasing integers in [1, {spec.k_max}]")
    terms = _psi_mode_terms(spec, params, range(1, max(N_list) + 1))
    csums = np.cumsum(terms, axis=0)
    return [
        PsiValues(n, csums[n - 1, 0], csums[n - 1, 1], csums[n - 1, 2], csums[n - 1, 3], csums[n - 1, 4])
        for n in N_list
    ]


def upsilon(N, gamma):
    """Growth scale of sum_{k<=N} k^gamma: N^{gamma+1} above the -1 boundary, log N at it."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if gamma < -1.0 - 1e-12:
        raise ValueError("upsilon is defined for gamma >= -1")
    if abs(gamma + 1.0) <= 1e-12:
        return math.log(N)
    return float(N) ** (gamma + 1.0)
