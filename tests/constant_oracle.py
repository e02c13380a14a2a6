"""Exact nonlinear runs: spatially constant data of u_tt + a_1(t) u_tx + a_2(t) u_xx = u^nu.

Constant data have only the mode k = 0, where every a_h (ik)^h vanishes, so
the run is the ODE y'' = y^nu whatever the coefficients are.  From
y(0) = a > 0 and y'(0) = 0, energy conservation gives
y'^2 = 2 (y^p - a^p) / p with p = nu + 1, and the substitution
w = (a/y)^p turns t(U) = int_a^U dy / y' into an incomplete beta integral:

    t(U) = c (1 - I_x(1/2 - 1/p, 1/2)),   x = (a/U)^p,
    c = sqrt(p/2) a^((1 - nu)/2) B(1/2 - 1/p, 1/2) / p,

with I the regularised incomplete beta function and c = T* the blow-up
time.  At k = 0 the blow-up monitor reads |V_0| = |y'|, since the
(ik)^(m-1-c) scaling removes the y column.  scipy is a test extra, so this
oracle lives under tests/ only.
"""

import math

from scipy.special import beta, betainc


def blowup_time(a: float, nu: int) -> float:
    """T* = c, the time at which y runs off to infinity."""
    p = nu + 1
    return math.sqrt(p / 2.0) * a ** ((1.0 - nu) / 2.0) * beta(0.5 - 1.0 / p, 0.5) / p


def time_to_reach(U: float, a: float, nu: int) -> float:
    """t(U), the time at which y = U >= a."""
    p = nu + 1
    return blowup_time(a, nu) * (1.0 - betainc(0.5 - 1.0 / p, 0.5, (a / U) ** p))


def slope_at(y: float, a: float, nu: int) -> float:
    """y' where the solution is at y, from the energy."""
    p = nu + 1
    return math.sqrt(2.0 * (y**p - a**p) / p)


def time_to_slope(ceiling: float, a: float, nu: int) -> float:
    """The time at which y' = |V_0| reaches ``ceiling``."""
    p = nu + 1
    return time_to_reach((a**p + p * ceiling**2 / 2.0) ** (1.0 / p), a, nu)
