"""Adaptive panel quadrature, vectorized over panels: the tests' independent oracle.

No run-time path integrates numerically: every integral the program needs
has a closed form (see fundamental), and the tests check those forms
against this module.

Each panel carries a high/low order Gauss-Legendre pair; panels whose
local error exceeds its share of the global budget are bisected.  The
integrand must accept and return numpy arrays, which keeps the per-round
cost a handful of array operations regardless of the panel count.

rtol is relative to the integrand's magnitude, the integral of |f|
(QUADPACK's `resabs`, Piessens et al. 1983), not to |integral of f|, so an
integral that cancels to zero still converges.  For an integrand of one sign
the two measures coincide bit for bit.
"""
from __future__ import annotations

import numpy as np

_LOW_ORDER = 10
_HIGH_ORDER = 21

_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(n):
    if n not in _rule_cache:
        _rule_cache[n] = np.polynomial.legendre.leggauss(n)
    return _rule_cache[n]


class QuadratureError(RuntimeError):
    """Raised when the error estimate cannot be pushed below the tolerance."""

    def __init__(self, message, achieved_rtol=None):
        super().__init__(message)
        self.achieved_rtol = achieved_rtol


def _panel_values(f, lo, hi, order):
    nodes, weights = _rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    y = f(x.ravel()).reshape(x.shape)
    return half * (y @ weights), half * (np.abs(y) @ weights)


def integrate(f, a, b, rtol=1e-9, atol=0.0, initial_panels=8, max_panels=2 ** 20, max_rounds=64, edges=None):
    """Integral of f over [a, b] with an error estimate.

    `edges` may pre-seed a non-uniform initial subdivision (e.g. geometric
    panels toward a boundary layer that uniform panels would step over).
    Returns (value, error_estimate).  The error estimate must meet
    max(rtol * int|f|, atol): rtol is relative to the integrand's magnitude,
    so an integral that may vanish still converges.  Raises QuadratureError
    when the panel budget is exhausted first.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0, 0.0
    if edges is None:
        n0 = int(max(1, initial_panels))
        edges = np.linspace(a, b, n0 + 1)
    else:
        edges = np.asarray(edges, dtype=float)
        if edges[0] != a or edges[-1] != b or np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must increase strictly from a to b")
    lo = edges[:-1]
    hi = edges[1:]

    for _ in range(max_rounds):
        coarse, _ = _panel_values(f, lo, hi, _LOW_ORDER)
        fine, fine_abs = _panel_values(f, lo, hi, _HIGH_ORDER)
        err = np.abs(fine - coarse)
        total = float(np.sum(fine))
        total_abs = float(np.sum(fine_abs))
        total_err = float(np.sum(err))
        budget = max(rtol * total_abs, atol)
        if total_err <= budget or budget == 0.0 and total_err == 0.0:
            return total, total_err
        # split every panel holding more than its equal share of the budget
        bad = err > budget / max(len(lo), 1)
        if not np.any(bad):
            return total, total_err
        if len(lo) + np.count_nonzero(bad) > max_panels:
            raise QuadratureError(
                f"quadrature did not converge: {len(lo)} panels, "
                f"achieved rtol {total_err / max(total_abs, 1e-300):.3e}",
                achieved_rtol=total_err / max(total_abs, 1e-300),
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        lo = np.concatenate([lo[~bad], lo[bad], mid])
        hi = np.concatenate([hi[~bad], mid, hi[bad]])
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        hi = hi[order]

    raise QuadratureError(
        f"quadrature did not converge within {max_rounds} refinement rounds",
        achieved_rtol=total_err / max(total_abs, 1e-300),
    )
