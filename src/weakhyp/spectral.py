"""Fourier-side integration of the mode-coupled companion system.

Each mode k of the periodic problem obeys a scalar ODE of order m; the state
stored per mode is the time-derivative chain (u_k, u_k', ..., u_k^(m-1)).
The companion vector V_k = ((ik)^(m-1) u_k, (ik)^(m-2) u_k', ..., u_k^(m-1))
is a derived view: for k != 0 the chain evolution is exactly similar to
V' = -ik A(t) V + F, and at k = 0, where the leading components of V vanish
identically, the chain still carries u_0 and its derivatives, which the
convolution nonlinearity needs.

The solution is real, so u_{-k} = conj(u_k).  The integrator stores only
the half spectrum k = 0..K, shape (K+1, m), and every recorded snapshot is
expanded to the full -K..K layout by the conjugate mirror (row -k is the
conjugate of row k).  Reality therefore holds by construction: the k = 0 row
stays real and ``reality_defect`` of every snapshot is exactly zero.

The forcing u^nu is evaluated as irfft -> pointwise product -> rfft on a ring
of N points, N the smallest power of two >= (nu+1)K + 1.  The product holds
modes up to nu*K and mode j lands on j mod N; for |k| <= K no other j with
|j| <= nu*K shares that residue once N - K > nu*K.  This is the 3/2 padding
rule (Orszag 1971) generalised to degree nu, so the result equals the direct
truncated convolution ``convolution_power``, kept as the test oracle, up to
rounding.

Time stepping is fixed-step classical RK4.  The linear part per mode has
purely imaginary eigenvalues ik * (characteristic roots), so the stability
guard bounds dt * (1 + max spectral radius of A(t)) * K by STABILITY_LIMIT,
comfortably inside RK4's imaginary-axis interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .equation import CoefficientSpec
from .exprdsl import Expression, evaluate_on_grid

__all__ = [
    "STABILITY_LIMIT",
    "StabilityError",
    "BlowUpError",
    "SpectralState",
    "Trajectory",
    "companion_matrix",
    "assemble_state",
    "convolution_power",
    "nonlinear_rhs",
    "step",
    "simulate",
]

# dt * (1 + max_t rho(A(t))) * K must stay below this; the RK4 imaginary-axis
# stability interval extends to |z| = 2*sqrt(2), so 2.5 leaves margin.
STABILITY_LIMIT = 2.5


class StabilityError(RuntimeError):
    """Fixed-step guard violated: the mode spectrum leaves the RK4 region."""

    def __init__(self, dt: float, radius: float, modes: int):
        self.dt = dt
        self.radius = radius
        self.modes = modes
        super().__init__(
            f"stability guard failed: dt*(1+rho)*K = {dt * (1.0 + radius) * modes:.6g} "
            f"> {STABILITY_LIMIT} (dt={dt:.6g}, spectral radius {radius:.6g}, K={modes})"
        )


class BlowUpError(RuntimeError):
    """State exceeded the blow-up ceiling (or became non-finite)."""

    def __init__(self, message: str, last_valid_time: float, trajectory: "Trajectory"):
        self.last_valid_time = last_valid_time
        self.trajectory = trajectory
        super().__init__(message)


def companion_matrix(coeffs: Sequence[float]) -> np.ndarray:
    """Companion matrix A with superdiagonal -1 and last row (a_m, ..., a_1).

    With this sign convention V' + ik A V = F is exactly equivalent to the
    scalar equation; the eigenvalues of A are the negatives of the
    characteristic roots.
    """
    a = np.asarray(coeffs, dtype=float)
    m = a.size
    if m < 2:
        raise ValueError("order must be at least 2")
    mat = np.zeros((m, m))
    for i in range(m - 1):
        mat[i, i + 1] = -1.0
    mat[m - 1, :] = a[::-1]
    return mat


@dataclass
class SpectralState:
    """Truncated Fourier state: derivative chains for modes -K..K at time t."""

    K: int
    t: float
    chain: np.ndarray  # (2K+1, m) complex; row k+K holds mode k
    real_symmetric: bool = True

    @property
    def order(self) -> int:
        return self.chain.shape[1]

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    @property
    def u_hat(self) -> np.ndarray:
        return self.chain[:, 0]

    @property
    def V(self) -> np.ndarray:
        """Companion vectors, component l = (ik)^(m-1-l) * chain[:, l]."""
        m = self.order
        ik = 1j * self.modes
        out = np.empty_like(self.chain)
        for col in range(m):
            out[:, col] = ik ** (m - 1 - col) * self.chain[:, col]
        return out

    def v_norms(self) -> np.ndarray:
        """Euclidean norm of V_k per mode."""
        return np.linalg.norm(self.V, axis=1)

    def reality_defect(self) -> float:
        """max_k |V_{-k} - conj(V_k)| relative to the largest component."""
        v = self.V
        scale = float(np.abs(v).max())
        if scale == 0.0:
            return 0.0
        return float(np.abs(v[::-1] - v.conj()).max() / scale)


def _next_power_of_two(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def default_grid_size(K: int) -> int:
    """Smallest power of two >= 4K."""
    return _next_power_of_two(4 * K)


def assemble_state(
    initial: Sequence[Expression],
    K: int,
    G: int | None = None,
) -> SpectralState:
    """Sample initial data on the uniform grid over [0, 2pi) and transform.

    ``initial`` lists the expressions (in x) for u(0,.), d_t u(0,.), ...;
    entry h fills chain column h.  The data are real, so the rows -K..-1 are
    the conjugate mirror of the rows 1..K.  Requires G >= 4K and G a power
    of two.
    """
    if K < 1:
        raise ValueError("mode cutoff K must be >= 1")
    if G is None:
        G = default_grid_size(K)
    if G < 4 * K or G != _next_power_of_two(G):
        raise ValueError(f"grid size G={G} must be a power of two with G >= 4K={4 * K}")
    x = 2.0 * np.pi * np.arange(G) / G
    half = np.stack(
        [np.fft.fft(evaluate_on_grid(expr, "x", x))[: K + 1] / G for expr in initial], axis=1
    )
    return SpectralState(K=K, t=0.0, chain=_mirror(half), real_symmetric=True)


def convolution_power(u: np.ndarray, nu: int) -> np.ndarray:
    """nu-fold discrete convolution of the truncated spectrum u, re-truncated.

    ``u`` holds modes -K..K.  Intermediates extend to nu*K before the final
    center slice, so no contribution inside |k| <= K is lost.  This direct
    form is the reference the integrator's ring evaluation is tested against.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    u = np.asarray(u)
    K = (u.size - 1) // 2
    if u.size != 2 * K + 1:
        raise ValueError("spectrum length must be odd (modes -K..K)")
    acc = u
    for _ in range(nu - 1):
        acc = np.convolve(acc, u)
    center = (nu - 1) * K
    return acc[center : center + 2 * K + 1].copy()


def _mirror(half: np.ndarray) -> np.ndarray:
    """Full -K..K layout of a half spectrum k = 0..K: row -k is conj(row k)."""
    return np.concatenate([half[:0:-1].conj(), half])


def _ring_size(K: int, nu: int) -> int:
    """Smallest power of two >= (nu+1)K + 1: u^nu is alias-free on |k| <= K."""
    return _next_power_of_two((nu + 1) * K + 1)


def _half_power(u: np.ndarray, nu: int, ring: int) -> np.ndarray:
    """Modes 0..K of u^nu from the half spectrum u, evaluated on ``ring`` points."""
    grid = np.fft.irfft(u, ring, norm="forward")
    prod = grid
    for _ in range(nu - 1):
        prod = prod * grid
    return np.fft.rfft(prod, norm="forward")[: u.size]


def nonlinear_rhs(state: SpectralState, nu: int) -> np.ndarray:
    """Forcing vectors F_k = (0, ..., 0, f_k), f = nu-fold self-convolution of u_hat."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not state.real_symmetric:
        raise ValueError("the forcing is evaluated on the half spectrum of a real state")
    out = np.zeros_like(state.chain)
    out[:, -1] = _mirror(_half_power(state.chain[state.K :, 0], nu, _ring_size(state.K, nu)))
    return out


class _HalfSpectrumRK4:
    """Classical RK4 on the half-spectrum chain (K+1, m), with per-run tables."""

    def __init__(self, K: int, m: int, nu: int):
        self.nu = nu
        self.ring = _ring_size(K, nu)
        k = np.arange(K + 1)
        ik_pow = np.empty((K + 1, m + 1), dtype=complex)
        ik_pow[:, 0] = 1.0
        for h in range(1, m + 1):
            ik_pow[:, h] = ik_pow[:, h - 1] * (1j * k)
        # column c carries -(ik)^(m-c), the weight of a_(m-c) on chain[:, c]
        self.neg_ik_pow = -ik_pow[:, m:0:-1]
        self.kmag_pow = k[:, None].astype(float) ** np.arange(m - 1, -1, -1)

    def forcing(self, y: np.ndarray) -> np.ndarray:
        """Modes 0..K of u^nu for the chain y; zero when nu = 0."""
        if self.nu < 1:
            return np.zeros(y.shape[0], dtype=complex)
        return _half_power(y[:, 0], self.nu, self.ring)

    def rhs(self, y: np.ndarray, coeff_row: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        out[:, :-1] = y[:, 1:]
        out[:, -1] = (self.neg_ik_pow * y) @ coeff_row[::-1] + self.forcing(y)
        return out

    def step(self, y: np.ndarray, dt: float, stage_coeffs: np.ndarray) -> np.ndarray:
        k1 = self.rhs(y, stage_coeffs[0])
        k2 = self.rhs(y + 0.5 * dt * k1, stage_coeffs[1])
        k3 = self.rhs(y + 0.5 * dt * k2, stage_coeffs[1])
        k4 = self.rhs(y + dt * k3, stage_coeffs[2])
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def sup_v(self, y: np.ndarray) -> float:
        """sup_k |V_k|; the mirrored modes -k have the same norms."""
        return float(np.linalg.norm(np.abs(y) * self.kmag_pow, axis=1).max())


def _spectral_radius(coeff_rows: np.ndarray) -> float:
    """Largest |eigenvalue| of the companion matrices of all coefficient rows."""
    n, m = coeff_rows.shape
    mats = np.zeros((n, m, m))
    for i in range(m - 1):
        mats[:, i, i + 1] = -1.0
    mats[:, m - 1, :] = coeff_rows[:, ::-1]
    return float(np.abs(np.linalg.eigvals(mats)).max())


def step(
    state: SpectralState,
    dt: float,
    stage_coeffs: np.ndarray,
    nu: int,
    guard: bool = True,
) -> SpectralState:
    """One classical RK4 step of the full mode-coupled system.

    ``stage_coeffs`` holds the coefficient rows (a_1..a_m) at the three stage
    times t, t + dt/2, t + dt.  With ``guard`` on, the step refuses to run
    outside the imaginary-axis stability region for these rows.  The state
    must be the spectrum of a real solution: the step advances the rows
    k = 0..K and returns the rows -K..-1 as their conjugate mirror.
    """
    if not state.real_symmetric:
        raise ValueError("step integrates the half spectrum of a real state; real_symmetric is False")
    if dt <= 0:
        raise ValueError("dt must be positive")
    stage_coeffs = np.asarray(stage_coeffs, dtype=float)
    if stage_coeffs.shape != (3, state.order):
        raise ValueError(f"stage_coeffs must have shape (3, {state.order})")
    if guard:
        radius = _spectral_radius(stage_coeffs)
        if dt * (1.0 + radius) * state.K > STABILITY_LIMIT:
            raise StabilityError(dt, radius, state.K)
    kernel = _HalfSpectrumRK4(state.K, state.order, nu)
    half = kernel.step(state.chain[state.K :], dt, stage_coeffs)
    return replace(state, t=state.t + dt, chain=_mirror(half))


@dataclass
class Trajectory:
    """Snapshots of a run: chains and forcing spectra at recorded times."""

    order: int
    K: int
    dt: float
    nu: int
    times: np.ndarray  # (S,)
    chains: np.ndarray  # (S, 2K+1, m)
    forcings: np.ndarray  # (S, 2K+1); zeros when nu = 0
    completed: bool
    abort_reason: str | None = None
    abort_time: float | None = None

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def __len__(self) -> int:
        return self.times.size

    def state_at(self, i: int) -> SpectralState:
        return SpectralState(K=self.K, t=float(self.times[i]), chain=self.chains[i])

    def v_series(self) -> np.ndarray:
        """(S, 2K+1, m) array of companion vectors at every snapshot."""
        m = self.order
        ik = 1j * self.modes
        out = np.empty_like(self.chains)
        for col in range(m):
            out[:, :, col] = ik ** (m - 1 - col) * self.chains[:, :, col]
        return out

    def u_hat_series(self) -> np.ndarray:
        return self.chains[:, :, 0]


def simulate(
    problem: CoefficientSpec,
    K: int,
    dt: float,
    G: int | None = None,
    snapshot_interval: float | None = None,
    blowup_ceiling: float = 1e9,
) -> Trajectory:
    """Integrate the problem from t = 0 to T with fixed steps.

    The step count is round(T/dt), so the effective dt divides T exactly.
    Snapshots are recorded at t = 0, every ``snapshot_interval`` (every step
    when None), and at T.  Aborts with BlowUpError when sup_k |V_k| exceeds
    ``blowup_ceiling`` or turns non-finite (the partial trajectory rides on
    the exception), and with StabilityError before the loop if the fixed-step
    guard fails anywhere on [0, T].
    """
    T = problem.horizon
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("dt too large: fewer than one step over the horizon")
    state = assemble_state(problem.initial, K, G)
    m = state.order
    nu = problem.nonlinearity

    stage_times = np.linspace(0.0, T, 2 * n_steps + 1)
    dt_eff = T / n_steps
    table = problem.coefficient_table(stage_times)
    radius = _spectral_radius(table)
    if dt_eff * (1.0 + radius) * K > STABILITY_LIMIT:
        raise StabilityError(dt_eff, radius, K)

    if snapshot_interval is None:
        snap_every = 1
    else:
        snap_every = max(1, int(round(snapshot_interval / dt_eff)))

    kernel = _HalfSpectrumRK4(K, m, nu)
    times: list[float] = []
    chains: list[np.ndarray] = []
    forcings: list[np.ndarray] = []

    def record(t: float, y: np.ndarray) -> None:
        times.append(t)
        chains.append(_mirror(y))
        forcings.append(_mirror(kernel.forcing(y)))

    def bundle(completed: bool, reason: str | None, when: float | None) -> Trajectory:
        return Trajectory(
            order=m,
            K=K,
            dt=dt_eff,
            nu=nu,
            times=np.array(times),
            chains=np.array(chains),
            forcings=np.array(forcings),
            completed=completed,
            abort_reason=reason,
            abort_time=when,
        )

    y = state.chain[K:].copy()
    record(0.0, y)
    for i in range(n_steps):
        y = kernel.step(y, dt_eff, table[2 * i : 2 * i + 3])
        t = float(stage_times[2 * i + 2])
        sup_v = kernel.sup_v(y)
        if not np.isfinite(sup_v):
            raise BlowUpError(
                f"non-finite state at t = {t:.6g}",
                float(stage_times[2 * i]),
                bundle(False, "non-finite", t),
            )
        if sup_v > blowup_ceiling:
            raise BlowUpError(
                f"blow-up: sup|V| = {sup_v:.6g} exceeds ceiling {blowup_ceiling:.6g} "
                f"at t = {t:.6g}",
                float(stage_times[2 * i]),
                bundle(False, "blow-up", t),
            )
        if (i + 1) % snap_every == 0 or i + 1 == n_steps:
            record(t, y)
    return bundle(True, None, None)
