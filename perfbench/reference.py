"""References that do not depend on the code under test.

* ``mode_system_reference``: scipy DOP853 solve of the truncated Fourier mode
  system d_t^m u_k + sum_h a_h(t) (ik)^h d_t^(m-h) u_k = (u^nu)_k, |k| <= K,
  written here from the equation, not from weakhyp's integrator.
* ``wave_reference``: the closed form u = A cos x cos t of u_tt = u_xx.
* ``spectrum_rel_err``: the deviation measure both are compared with.

Companion vectors follow the output convention of ``spectrum.csv``:
component l of mode k is (ik)^(m-1-l) times the l-th time derivative.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# The DOP853 solve's own error at this tolerance is about 1e-14 at K <= 512,
# under 1% of the RK4 error the benchmark measures against it.
REFERENCE_RTOL = 1e-13


def snapshot_times(horizon: float, dt: float, snapshot_interval: float) -> np.ndarray:
    """Times at which a fixed-step run with these settings records snapshots."""
    n_steps = int(round(horizon / dt))
    every = max(1, int(round(snapshot_interval / (horizon / n_steps))))
    idx = list(range(0, n_steps + 1, every))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return horizon * np.array(idx, dtype=float) / n_steps


def companion_vectors(chains: np.ndarray, K: int) -> np.ndarray:
    """(S, 2K+1, m) derivative chains -> companion vectors."""
    m = chains.shape[-1]
    ik = 1j * np.arange(-K, K + 1)
    out = np.empty_like(chains)
    for col in range(m):
        out[..., col] = ik ** (m - 1 - col) * chains[..., col]
    return out


def mode_system_reference(
    coefficients: Callable[[float], Sequence[float]],
    initial_chain: np.ndarray,
    nu: int,
    times: np.ndarray,
) -> np.ndarray:
    """Companion vectors (S, 2K+1, m) of the truncated mode system at ``times``."""
    from scipy.integrate import solve_ivp

    n_modes, m = initial_chain.shape
    K = (n_modes - 1) // 2
    ik_pow = (1j * np.arange(-K, K + 1))[:, None] ** np.arange(m + 1)[None, :]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        chain = y.reshape(n_modes, m)
        a = coefficients(t)
        out = np.empty_like(chain)
        out[:, : m - 1] = chain[:, 1:]
        top = np.zeros(n_modes, dtype=complex)
        for h in range(1, m + 1):
            top -= a[h - 1] * ik_pow[:, h] * chain[:, m - h]
        if nu >= 1:
            power = chain[:, 0]
            for _ in range(nu - 1):
                power = np.convolve(power, chain[:, 0])
            top += power[(nu - 1) * K : (nu - 1) * K + n_modes]
        out[:, m - 1] = top
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (float(times[0]), float(times[-1])),
        initial_chain.astype(complex).ravel(),
        method="DOP853",
        t_eval=times,
        rtol=REFERENCE_RTOL,
        atol=REFERENCE_RTOL * float(np.abs(initial_chain).max()) * 1e-3,
    )
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    chains = sol.y.T.reshape(times.size, n_modes, m)
    return companion_vectors(chains, K)


def wave_reference(amplitude: float, K: int, times: np.ndarray) -> np.ndarray:
    """Companion vectors of u = A cos x cos t: only modes k = +-1 are nonzero."""
    v = np.zeros((times.size, 2 * K + 1, 2), dtype=complex)
    for k in (-1, 1):
        v[:, K + k, 0] = 1j * k * 0.5 * amplitude * np.cos(times)
        v[:, K + k, 1] = -0.5 * amplitude * np.sin(times)
    return v


def spectrum_rel_err(measured: np.ndarray, reference: np.ndarray) -> float:
    """Largest per-snapshot relative 2-norm deviation of companion vectors."""
    diff = np.linalg.norm((measured - reference).reshape(len(reference), -1), axis=1)
    scale = np.linalg.norm(reference.reshape(len(reference), -1), axis=1)
    return float((diff / scale).max())
