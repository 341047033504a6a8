"""Ready-made spectra for the standard example equations.

All presets place the Laplacian-type eigenvalues as k^{2/d} (order 2 over
dimension d); bilaplacian terms get k^{4/d}.  Signs follow the convention
that the equation reads  u_tt + A u = B u_t + noise  with A the evolution
and B the dissipation operator, so e.g. "u_tt = theta1*Lap(u) + theta2*u_t"
has tau_k = k^{2/d} (from A1 = -Lap) and nu_k = 1.
"""
from __future__ import annotations

from .spectrum import Constant, PowerLaw, ExpLaw, LogLogLaw, ModelParams, SpectrumSpec

__all__ = ["PRESETS", "preset"]


def alg_ex1(d=1, T=1.0, theta1=1.0, theta2=-0.5):
    """u_tt = theta1 * Lap u + theta2 * u_t + noise."""
    spec = SpectrumSpec(Constant(0.0), PowerLaw(1.0, 2.0 / d), Constant(0.0), Constant(1.0), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 2.0), (-1.0, 1.0), T)


def alg_ex2(d=1, T=1.0, theta1=1.0, theta2=0.5):
    """u_tt = Lap(theta1 u + theta2 u_t) + noise; both parameters positive."""
    spec = SpectrumSpec(Constant(0.0), PowerLaw(1.0, 2.0 / d), Constant(0.0),
                        PowerLaw(-1.0, 2.0 / d), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 2.0), (0.25, 1.0), T)


def alg_ex3(d=1, T=1.0, theta1=1.0, theta2=0.5):
    """u_tt = theta1 * Lap u - theta2 * Lap^2 u_t + noise."""
    spec = SpectrumSpec(Constant(0.0), PowerLaw(1.0, 2.0 / d), Constant(0.0),
                        PowerLaw(-1.0, 4.0 / d), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 2.0), (0.25, 1.0), T)


def alg_ex4(d=1, T=1.0, theta1=0.8, theta2=0.8):
    """u_tt = (Lap u + theta1 u) + (Lap u_t + theta2 u_t) + noise; lower-order unknowns."""
    spec = SpectrumSpec(PowerLaw(1.0, 2.0 / d), Constant(-1.0), PowerLaw(-1.0, 2.0 / d),
                        Constant(1.0), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 0.9), (0.5, 0.9), T)


def alg_ex5(d=1, T=1.0, theta1=1.0, theta2=1.0):
    """u_tt + (Lap^2 u + theta1 u) = (theta2 Lap u_t - Lap^2 u_t) + noise."""
    spec = SpectrumSpec(PowerLaw(1.0, 4.0 / d), Constant(1.0), PowerLaw(-1.0, 4.0 / d),
                        PowerLaw(-1.0, 2.0 / d), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 2.0), (0.5, 2.0), T)


def alg_ex6(d=1, T=1.0, theta1=0.8, theta2=0.8):
    """u_tt + (Lap^2 u + theta1 Lap u) = (theta2 u_t - Lap^2 u_t) + noise."""
    spec = SpectrumSpec(PowerLaw(1.0, 4.0 / d), PowerLaw(-1.0, 2.0 / d), PowerLaw(-1.0, 4.0 / d),
                        Constant(1.0), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 0.9), (0.5, 0.9), T)


def sec5_example(d=1, T=1.0, theta1=1.0, theta2=1.0):
    """Exponential evolution spectrum with iterated-log amplification."""
    spec = SpectrumSpec(ExpLaw(1.0, 2.0), ExpLaw(1.0, 1.0), Constant(0.0), LogLogLaw(1.0, 3.0), dimension=d)
    return spec, ModelParams(theta1, theta2, (0.5, 2.0), (0.5, 2.0), T)


def _fixed_equation(kappa, rho, d, T):
    spec = SpectrumSpec(kappa, Constant(0.0), rho, Constant(0.0), dimension=d)
    return spec, ModelParams(1.0, 1.0, (1.0, 1.0), (1.0, 1.0), T)


def wave_damped(d=1, T=1.0, **_):
    """u_tt = Lap u + u_t + noise (hyperbolic: bounded amplification)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), Constant(1.0), d, T)


def wave_antidamped(d=1, T=1.0, **_):
    """u_tt = Lap u - u_t + noise (hyperbolic: damping)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), Constant(-1.0), d, T)


def wave_viscoelastic(d=1, T=1.0, **_):
    """u_tt = Lap(u + u_t) + noise (hyperbolic: strong damping)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), PowerLaw(-1.0, 2.0 / d), d, T)


def wave_strong_damping(d=1, T=1.0, **_):
    """u_tt = Lap u - Lap^2 u_t + noise (hyperbolic)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), PowerLaw(-1.0, 4.0 / d), d, T)


def wave_antidissipative(d=1, T=1.0, **_):
    """u_tt = Lap(u - u_t) + noise (NOT hyperbolic: amplification grows like lambda)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), PowerLaw(1.0, 2.0 / d), d, T)


def wave_strong_antidissipative(d=1, T=1.0, **_):
    """u_tt = Lap u + Lap^2 u_t + noise (NOT hyperbolic)."""
    return _fixed_equation(PowerLaw(1.0, 2.0 / d), PowerLaw(1.0, 4.0 / d), d, T)


PRESETS = {
    "alg_ex1": alg_ex1,
    "alg_ex2": alg_ex2,
    "alg_ex3": alg_ex3,
    "alg_ex4": alg_ex4,
    "alg_ex5": alg_ex5,
    "alg_ex6": alg_ex6,
    "sec5_example": sec5_example,
    "wave_damped": wave_damped,
    "wave_antidamped": wave_antidamped,
    "wave_viscoelastic": wave_viscoelastic,
    "wave_strong_damping": wave_strong_damping,
    "wave_antidissipative": wave_antidissipative,
    "wave_strong_antidissipative": wave_strong_antidissipative,
}


def preset(name, **kwargs):
    """Look up a named example; kwargs forward to the preset constructor."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
