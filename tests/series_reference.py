"""The truncated majorant series of the energy ledger: the reference for its closed form.

The ledger once truncated the super-energies at j = J_max:

    F(t) = sum_{j <= J} E_j r^j / j!,
    G(t) = sum_{j <= J} alpha_j r^j / j!,
    alpha_j(t) = A_j + j! int_0^t c_j(s) ds,

with c the nu-fold convolution of the sequence (E_j / j!)_j (empty for
nu = 0, the identity for nu = 1), the integral a trapezoid on the recorded
times, E_j = sum_k e^rho |k|^j |V_k| and A_j = sum_k |k|^j <k>^N |V_k(0)|.
Summed in k first, every series is an exponential, which is what the
library now computes; these are the truncated sums, term by term in j.
"""

import math

import numpy as np


def factorials(j_max: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(j_max + 1)], dtype=float)


def series_with_tail(coeffs: np.ndarray, r: float, fact: np.ndarray) -> tuple[float, float]:
    """sum_j coeffs[j] r^j / j! and the last-term/total truncation ratio."""
    terms = coeffs * np.power(r, np.arange(coeffs.size, dtype=float)) / fact
    total = float(terms.sum())
    return total, float(abs(terms[-1]) / total) if total > 0.0 else 0.0


def sequence_power_rows(b: np.ndarray, nu: int) -> np.ndarray:
    """Row-wise nu-fold sequence convolution truncated to the input length."""
    length = b.shape[-1]
    out = b.copy()
    for i in range(b.shape[0]):
        for _ in range(nu - 1):
            out[i] = np.convolve(out[i], b[i])[:length]
    return out


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    out = np.zeros_like(y)
    if y.shape[0] > 1:
        panels = 0.5 * (y[1:] + y[:-1]) * np.diff(x)[:, None]
        out[1:] = np.cumsum(panels, axis=0)
    return out


def truncated_super_energies(times, e_series, initial_moments, r_schedule, nu):
    """(F, G) at every time from the tables E_j (S, J+1) and A_j (J+1,), truncated at J."""
    fact = factorials(e_series.shape[1] - 1)
    c = np.zeros_like(e_series) if nu == 0 else sequence_power_rows(e_series / fact, nu)
    alpha = initial_moments[None, :] + fact[None, :] * cumtrapz(c, times)
    f_values = np.array([series_with_tail(e, r, fact)[0] for e, r in zip(e_series, r_schedule)])
    g_values = np.array([series_with_tail(a, r, fact)[0] for a, r in zip(alpha, r_schedule)])
    return f_values, g_values
