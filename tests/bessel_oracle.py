"""Exact modes of the weakly hyperbolic model problem u_tt - t^(2l) u_xx = 0.

Mode k solves y'' + k^2 t^(2l) y = 0, whose solutions are
sqrt(t) J_{+-a}(z) with a = 1/(2l+2) and z = k t^(l+1)/(l+1) (DLMF 10.13;
Watson, "A Treatise on the Theory of Bessel Functions", 1922).  With zero
initial velocity only J_{-a} enters: its series
sqrt(t) J_{-a}(z) = sum_j (-1)^j (z/2)^(2j-a) sqrt(t) / (j! Gamma(j+1-a))
is (k/(2l+2))^(-a) / Gamma(1-a) times a power series in t^(2l+2), so

    y_k(t) = y_k(0) Gamma(1-a) (k/(2l+2))^a sqrt(t) J_{-a}(k t^(l+1)/(l+1)),

and y_k(t) = y_k(0) at t = 0 and at k = 0.  These are the coefficients
["0", "-t^(2l)"] of the config, with initial ["f(x)", "0"].  scipy is a
test extra, so this oracle lives under tests/ only.
"""

import numpy as np
from scipy.special import gamma, jv, jvp


def exact_modes(l: int, times, modes, y0) -> np.ndarray:
    """y_k(t) of every mode at every time, shape (times, modes), from y_k(0) = ``y0``."""
    return _exact(l, times, modes, y0, derivative=False)


def exact_mode_derivatives(l: int, times, modes, y0) -> np.ndarray:
    """y_k'(t) of every mode at every time, shape (times, modes), from y_k(0) = ``y0``.

    d/dt sqrt(t) J_{-a}(z) = J_{-a}(z) / (2 sqrt(t)) + sqrt(t) k t^l J_{-a}'(z),
    with J' from scipy's ``jvp``; y_k' = 0 at t = 0 (data at rest) and at k = 0.
    """
    return _exact(l, times, modes, y0, derivative=True)


def _exact(l: int, times, modes, y0, derivative: bool) -> np.ndarray:
    a = 1.0 / (2 * l + 2)
    t, k = np.meshgrid(np.asarray(times, float), np.asarray(modes, float), indexing="ij")
    shape = np.zeros_like(t) if derivative else np.ones_like(t)
    live = (t > 0.0) & (k > 0.0)
    t, k = t[live], k[live]
    z = k * t ** (l + 1) / (l + 1)
    scale = gamma(1.0 - a) * (k / (2 * l + 2)) ** a
    if derivative:
        shape[live] = scale * (jv(-a, z) / (2.0 * np.sqrt(t)) + np.sqrt(t) * k * t**l * jvp(-a, z))
    else:
        shape[live] = scale * np.sqrt(t) * jv(-a, z)
    return np.asarray(y0)[None, :] * shape
