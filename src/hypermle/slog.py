"""Signed log-magnitude arithmetic for eigenvalue sequences that overflow floats.

A value x is represented by the pair (sign, log|x|) with sign in {-1, 0, +1}
and log|x| = -inf when x == 0.  All helpers are vectorized over numpy arrays.
"""
from __future__ import annotations

import numpy as np

NEG_INF = -np.inf


def slog_from_float(x):
    """(sign, log|x|) of an ordinary float array."""
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    with np.errstate(divide="ignore"):
        log_abs = np.where(sign == 0.0, NEG_INF, np.log(np.abs(np.where(x == 0.0, 1.0, x))))
    return sign, log_abs


def slog_scale(sign, log_abs, c):
    """Multiply the represented value by the float scalar c."""
    cs, cl = slog_from_float(c)
    return np.asarray(sign) * cs, np.asarray(log_abs) + cl


def slog_add(sign_a, log_a, sign_b, log_b):
    """Signed addition a + b without leaving log space.

    Uses |a| >= |b| ordering and log1p, so the sign of a cancellation is exact
    up to float rounding of the log magnitudes.
    """
    sign_a = np.asarray(sign_a, dtype=float)
    sign_b = np.asarray(sign_b, dtype=float)
    log_a = np.asarray(log_a, dtype=float)
    log_b = np.asarray(log_b, dtype=float)

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
    out_log = np.where(mag == 0.0, NEG_INF, out_log)
    out_sign = np.where(mag == 0.0, 0.0, out_sign)
    out_sign = np.where(small_s == 0.0, big_s, out_sign)
    out_log = np.where(small_s == 0.0, big_l, out_log)
    return out_sign, out_log

