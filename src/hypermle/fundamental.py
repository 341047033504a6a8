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
oracle.  f, f' and the integrals are numpy over arrays of modes: one pass
serves all of psi_curve's modes, or all the transitions of a run, and a
single mode is an array of one.
"""
from __future__ import annotations

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
# largest x whose e^x is a float
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

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


def _slog_lam(ks, s_lam, l_lam):
    """lam of the modes ks from their (sign, log |lam|) form; the one place that rebuilds it."""
    beyond = ks[l_lam > _EXP_MAX]
    if beyond.size:
        raise ValueError(f"mode {beyond[0]}: lambda exceeds the float range; simulation unsupported")
    return _from_slog(s_lam, l_lam)


def _check_exponent(x):
    """Raise FundamentalOverflowError for the first exponent of the array x beyond _EXP_MAX."""
    beyond = x[x > _EXP_MAX]
    if beyond.size:
        raise FundamentalOverflowError(float(beyond[0]))


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
    far = b + np.where(damped, -ell, ell)
    near = lam / far
    return np.where(damped, near, far), np.where(damped, far, near)


def fund_solution(lam, mu, t):
    """(f(t), f'(t)), with lam, mu and t broadcast together; floats when all three are numbers.

    One mode at many times, or many modes at one time.  Branches follow the
    sign of mu^2/4 - lam; near the double root the sin/sinh factor is
    evaluated by a single series in (l t)^2 so that the value is continuous
    across the switch.
    """
    lam, mu, t = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lam, mu, t)))
    scalar = t.ndim == 0
    lam, mu, t = (np.atleast_1d(a) for a in (lam, mu, t))
    if np.any(t < 0.0):
        raise ValueError("fund_solution requires t >= 0")
    b = 0.5 * mu
    disc = b * b - lam
    ell = np.sqrt(np.abs(disc))
    _check_exponent((b + np.where(disc > 0.0, ell, 0.0)) * t)  # the largest root's real part

    x = disc * t * t  # signed (l t)^2
    f = np.empty_like(t)
    fdot = np.empty_like(t)

    near = np.abs(x) < _SERIES_X
    if np.any(near):
        tn, bn = t[near], b[near]
        s, c = _sc_series(x[near])
        ebt = np.exp(bn * tn)
        f[near] = tn * s * ebt
        fdot[near] = ebt * (bn * tn * s + c)

    cplx = ~near & (disc < 0.0)
    if np.any(cplx):
        tf, bf, lf = t[cplx], b[cplx], ell[cplx]
        ebt = np.exp(bf * tf)
        sn = np.sin(lf * tf)
        cs = np.cos(lf * tf)
        f[cplx] = ebt * sn / lf
        fdot[cplx] = ebt * (cs + bf * sn / lf)

    real = ~(near | cplx)
    if np.any(real):
        tf, lf = t[real], ell[real]
        r_plus, r_minus = _stable_real_roots(lam[real], b[real], lf)
        ep = np.exp(np.minimum(r_plus * tf, _EXP_MAX))
        em = np.exp(np.minimum(r_minus * tf, _EXP_MAX))
        f[real] = (ep - em) / (2.0 * lf)
        fdot[real] = (r_plus * ep - r_minus * em) / (2.0 * lf)

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
    out[small] = np.polyval(_M_COEF[::-1], x[small])
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
    out[small] = np.polyval(_V_COEF[::-1], x[small])
    xs = x[~small]
    with np.errstate(over="ignore"):
        em1 = np.expm1(xs)
        # e^{2x} + 4e^x - 4x e^x - 2x - 5 rearranged through expm1 terms
        num = np.expm1(2.0 * xs) + 4.0 * em1 - 4.0 * xs * em1 - 6.0 * xs
        out[~small] = num / (4.0 * xs ** 4)
    return float(out[0]) if scalar else out


def m_func_log(x):
    """log M(x) over a float array x, stable far outside the float range of e^x."""
    out = np.empty(x.shape)
    mid, high = np.abs(x) <= 30.0, x > 30.0
    low = ~(mid | high)
    out[mid] = np.log(m_func(x[mid]))
    xh, xl = x[high], x[low]
    out[high] = xh - np.log(2.0 * xh * xh) + np.log1p(-(xh + 1.0) * np.exp(-xh))
    out[low] = np.log(-xl - 1.0 + np.exp(xl)) - np.log(2.0 * xl * xl)
    return out


# ---------------------------------------------------------------------------
# Exact antiderivative building blocks
# ---------------------------------------------------------------------------


def _complex(re, im):
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


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
    return (np.exp(zT) - zT - 1.0) / (z * z)


def _split(z, T, scale, series, quotient):
    """scale * series(zT) where |zT| < 0.5, quotient(z, zT) elsewhere, over an array z."""
    zT = z * T
    near = abs(zT) < 0.5
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
    return _split(z, T, T, _p0_series, _p0_quotient)


def _w0(z, T):
    """int_0^T (T - t) e^{zt} dt = (e^{zT} - zT - 1)/z^2."""
    return _split(z, T, T * T, _w0_series, _w0_quotient)


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
    r2_plus, r2_minus = r_plus * r_plus, r_minus * r_minus

    if2 = (p0p - 2.0 * p0c + p0m) / four_ell2
    iif2 = (w0p - 2.0 * w0c + w0m) / four_ell2
    # r+^2 e^{2 r+ T} alone can leave the float range where int f'^2 does not
    ifd2 = (r2_plus / four_ell2) * p0p + (r2_minus * p0m - 2.0 * lam * p0c) / four_ell2
    iifd2 = (r2_plus * w0p - 2.0 * lam * w0c + r2_minus * w0m) / four_ell2
    intf = (_p0(r_plus, T) - _p0(r_minus, T)) / (2.0 * ell)
    return if2, ifd2, iif2, iifd2, intf


def _integrals_envelope(log_lam, mu, T):
    """Phase-averaged (lam_if2, ifd2, lam_iif2, iifd2); valid for l*T >> 1, error O(1/(l*T)).

    Works from log(lam) directly, so it covers eigenvalues beyond the float
    range (the only regime that has to).
    """
    b = 0.5 * mu
    with np.errstate(divide="ignore"):  # b = 0: log 0 = -inf, so b^2/lam = 0
        b2_over_lam = np.exp(np.minimum(2.0 * np.log(np.abs(b)) - log_lam, 0.0))  # at most 1
    if (b2_over_lam >= 0.5).any():
        raise ValueError("envelope integrals require mu^2 << 4 lam")
    lam_over_ell2 = 1.0 / (1.0 - b2_over_lam)
    b2_over_ell2 = b2_over_lam * lam_over_ell2

    p0c = _p0(2.0 * b, T)
    w0c = _w0(2.0 * b, T)
    lam_if2 = 0.5 * lam_over_ell2 * p0c
    ifd2 = 0.5 * (1.0 + b2_over_ell2) * p0c
    lam_iif2 = 0.5 * lam_over_ell2 * w0c
    iifd2 = 0.5 * (1.0 + b2_over_ell2) * w0c
    return lam_if2, ifd2, lam_iif2, iifd2


# regime of a mode's energy integrals
_SERIES, _REAL, _COMPLEX, _ENVELOPE = range(4)


def _regime(lam, mu, T):
    """(ell, series, real, closed) of float arrays of modes (lam, mu) over [0, T].

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
    ell = np.sqrt(abs(disc))
    phase = ell * T
    return ell, (phase < _SERIES_PHASE_MAX) | (8.0 * ell <= -b), disc > 0.0, phase <= _ENVELOPE_PHASE_MIN


def _log_lam(lam):
    """log lam where lam > 0, and 0 elsewhere, over a float array."""
    return np.log(np.where(lam > 0.0, lam, 1.0))


def scaled_mode_integrals(mu, T, log_lam):
    """The integrals of one mode with lam = e^log_lam > 0: _scaled_integrals of an array of one."""
    rows, envelope = _scaled_integrals(np.ones(1), np.array([mu], dtype=float), T,
                                       np.array([log_lam], dtype=float))
    return ScaledIntegrals(*rows[:, 0].tolist(), "envelope" if envelope[0] else "closed")


def _scaled_integrals(lam, mu, T, log_lam):
    """Energy integrals over [0, T] of float arrays of modes, in one pass: (rows, envelope).

    rows is (5, n): lam int f^2, int f'^2, lam int (T-t) f^2, int (T-t) f'^2
    and sqrt(lam) int f.  A mode with lam > 0 is read from log_lam, its lam
    giving only the sign, so it may lie beyond the float range; a mode with
    lam <= 0 is read from lam and its rows carry no lam factors.  envelope
    marks the modes the envelope served.  A mask picks each mode's regime;
    the few series modes go one at a time, as _phi works per argument.

    Every integral of a mode with lam > 0 carries the factor e^{mu T}; beyond
    e^_EXP_MAX it raises FundamentalOverflowError, as the real-root
    antiderivatives do.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    pos = lam > 0.0
    _check_exponent(mu[pos] * T)
    in_range = ~pos | (log_lam <= _EXP_MAX)  # beyond, lam leaves the float range and the envelope serves
    lam = np.where(pos, np.exp(np.where(pos & in_range, log_lam, 0.0)), lam)
    ell, *tests = _regime(lam, mu, T)
    regime = np.where(in_range, np.select(tests, [_SERIES, _REAL, _COMPLEX], _ENVELOPE), _ENVELOPE)

    out = np.empty((5, len(lam)))
    for code, formula in ((_REAL, _integrals_closed_real), (_COMPLEX, _integrals_closed_complex)):
        sel = regime == code
        out[:, sel] = formula(lam[sel], mu[sel], T, ell[sel])
    for i in np.flatnonzero(regime == _SERIES).tolist():
        out[:, i] = _integrals_series(float(lam[i]), float(mu[i]), T)
    envelope = regime == _ENVELOPE
    scaled = pos & ~envelope
    out[0, scaled] *= lam[scaled]
    out[2, scaled] *= lam[scaled]
    out[4, scaled] *= np.sqrt(lam[scaled])

    log_env = log_lam[envelope]
    rebuilt = in_range[envelope]  # the envelope of a float lam takes log(lam), as the closed forms take lam
    log_env[rebuilt] = np.log(lam[envelope][rebuilt])
    out[:4, envelope] = _integrals_envelope(log_env, mu[envelope], T)
    out[4, envelope] = 0.0
    return out, envelope


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
    """Energy integrals of one mode, _scaled_integrals of an array of one; Eu2T equals int_f2."""
    lam_a = np.array([lam], dtype=float)
    rows, _ = _scaled_integrals(lam_a, np.array([mu], dtype=float), T, _log_lam(lam_a))
    int_f2, int_fd2, dbl_f2, dbl_fd2, _ = rows[:, 0].tolist()
    if lam > 0.0:  # the rows carry a factor lam
        int_f2, dbl_f2 = int_f2 / lam, dbl_f2 / lam
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
    """s * e^l elementwise; 0 where l = -inf.

    Raises FundamentalOverflowError for the first e^l beyond the float range.
    """
    beyond = l[l > _LOG_FLOAT_MAX]
    if beyond.size:
        raise FundamentalOverflowError(float(beyond[0]))
    return np.where(l > -math.inf, s * np.exp(l), 0.0)


def _psi_mode_terms(spec, params, ks):
    """Per-mode contributions to (psi1, psi2, psi12, psi1_asym, psi2_asym), one row per mode."""
    from .spectrum import lambda_mu_slog  # late import: avoid a module cycle

    ks = np.asarray(ks)
    (s_lam, l_lam), mu = lambda_mu_slog(spec, params.theta1, params.theta2, ks)
    s_tau, l_tau = spec.tau.slog_array(ks)
    s_nu, l_nu = spec.nu.slog_array(ks)
    T = params.T
    nu = _from_slog(s_nu, l_nu)
    pos = s_lam > 0.0
    neg = ~pos
    tau = _from_slog(s_tau[neg], l_tau[neg])
    lam = np.ones(len(ks))  # stands for a lam > 0, which _scaled_integrals reads from l_lam
    lam[neg] = _slog_lam(ks[neg], s_lam[neg], l_lam[neg])
    (f2, _, iif2, iifd2, _), _ = _scaled_integrals(lam, mu, T, l_lam)  # lam-scaled where lam > 0
    out = np.empty((len(ks), 5))

    # no large-lam form exists for a mode with lam <= 0: its exact terms fill the _asym columns
    nu_neg = nu[neg]
    exact = [tau * tau * iif2[neg], nu_neg * nu_neg * iifd2[neg], -0.5 * tau * nu_neg * f2[neg]]
    out[neg] = np.column_stack(exact + exact[:2])

    s_tau, l_tau, s_nu, l_nu, nu, l_lam = (a[pos] for a in (s_tau, l_tau, s_nu, l_nu, nu, l_lam))
    c1 = _from_slog(1.0, 2.0 * l_tau - l_lam)
    c12 = _from_slog(s_tau * s_nu, l_tau + l_nu - l_lam)
    m_log = m_func_log(T * mu[pos])
    asym1 = np.where(l_tau > -math.inf, np.exp(np.minimum(2.0 * l_tau - l_lam + m_log, _EXP_MAX)) * T ** 2, 0.0)
    asym2 = nu * nu * T ** 2 * np.exp(np.minimum(m_log, _EXP_MAX))
    out[pos] = np.column_stack([c1 * iif2[pos], nu * nu * iifd2[pos], -0.5 * c12 * f2[pos], asym1, asym2])
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
    bad = (~np.isfinite(terms[:, :2]) | np.signbit(terms[:, :2])).any(axis=1)  # NaN, inf, -0 or below
    if bad.any():
        k = int(np.argmax(bad)) + 1
        raise ValueError(f"mode {k}: psi1, psi2 terms {terms[k - 1, :2].tolist()} must be finite and >= +0")
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
