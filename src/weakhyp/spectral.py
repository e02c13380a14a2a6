"""Fourier-side integration of the mode-coupled companion system.

Each mode k of the periodic problem obeys a scalar ODE of order m; the state
stored per mode is the time-derivative chain (u_k, u_k', ..., u_k^(m-1)).
The companion vector V_k = ((ik)^(m-1) u_k, (ik)^(m-2) u_k', ..., u_k^(m-1))
is a derived view: for k != 0 the chain evolution is exactly similar to
V' = -ik A(t) V + F, and at k = 0, where the leading components of V vanish
identically, the chain still carries u_0 and its derivatives, which the
convolution nonlinearity needs.

The data and f(u) = u^nu are real, so u_{-k} = conj(u_k): every state,
snapshot and forcing holds only the half spectrum k = 0..K, row k for mode
k.  Reality holds by construction.  The k = 0 row starts real (the mean of
real data) and stays real: there every a_h (ik)^h vanishes, and the rfft of
the real forcing has a real mean.

The forcing u^nu is evaluated as irfft -> pointwise product -> rfft on a ring
of N points, N the smallest multiple of 4 of the form 2^a 3^b 5^c that is
>= (nu+1)K + 1.  The product holds modes up to nu*K and mode j lands on
j mod N; two modes |k| <= K and |j| <= nu*K share a residue only if N
divides j - k, and |j - k| <= (nu+1)K < N, so any N > (nu+1)K is
alias-free.  This is the 3/2 padding rule (Orszag 1971) generalised to
degree nu, so the result equals the direct truncated convolution
``convolution_power`` (the test oracle, on -K..K) up to rounding.
pocketfft has radix-4, -2, -3 and -5 passes, so such a ring costs about
what its length suggests, and at K = 512, nu = 2 it is 1600 points instead
of the power of two 2048.  Lengths with a single factor 2 (6250 = 2 * 5^5)
or none (3125) measured slower than the next multiple of 4 (6400).

Time stepping is fixed-step classical RK4.  The linear part per mode has
purely imaginary eigenvalues ik * (characteristic roots), so the stability
guard bounds dt * (1 + max spectral radius of A(t)) * K by STABILITY_LIMIT,
comfortably inside RK4's imaginary-axis interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .equation import CoefficientSpec
from .exprdsl import Expression, evaluate

__all__ = [
    "STABILITY_LIMIT",
    "StabilityError",
    "BlowUpError",
    "Trajectory",
    "companion_stack",
    "companion_vectors",
    "assemble_state",
    "convolution_power",
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

    def __init__(
        self,
        message: str,
        last_valid_time: float | None,
        trajectory: "Trajectory",
        member: int = 0,
    ):
        self.last_valid_time = last_valid_time  # None when the initial state failed
        self.trajectory = trajectory
        self.member = member  # 0 the problem, 1 its linear calibration (``simulate``)
        super().__init__(message)


def companion_stack(table: np.ndarray) -> np.ndarray:
    """Companion matrices of the coefficient rows of ``table``, shape (n, m, m).

    Row i of ``table`` holds (a_1, ..., a_m) at one time; its matrix has
    superdiagonal -1 and last row (a_m, ..., a_1).  With this sign
    convention V' + ik A V = F is exactly equivalent to the scalar equation,
    and the eigenvalues of A are the negatives of the characteristic roots.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError("coefficient table must be two-dimensional (times, m)")
    n, m = table.shape
    if m < 2:
        raise ValueError("order must be at least 2")
    mats = np.zeros((n, m, m))
    sup = np.arange(m - 1)
    mats[:, sup, sup + 1] = -1.0
    mats[:, m - 1, :] = table[:, ::-1]
    return mats


def _ik_powers(modes: np.ndarray, top: int) -> np.ndarray:
    """(ik)^p for p = 0..top, shape (len(modes), top+1): the one table behind V and the kernel."""
    return (1j * modes)[:, None] ** np.arange(top + 1)


def _v_weights(modes: np.ndarray, m: int) -> np.ndarray:
    """(ik)^(m-1-c) in column c, shape (len(modes), m): V_k is this row times the chain of mode k."""
    return _ik_powers(modes, m - 1)[:, ::-1].copy()


def companion_vectors(chains: np.ndarray) -> np.ndarray:
    """V_k of every chain row, for chains of shape (..., K+1, m) holding the modes k = 0..K.

    The one definition of V: column c is (ik)^(m-1-c) chain[..., c], and V_{-k} = conj(V_k).
    """
    return _v_weights(np.arange(chains.shape[-2]), chains.shape[-1]) * chains


def _v_norms(chains: np.ndarray, weights: np.ndarray, v: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """|V_k| of every chain row, shape ``chains.shape[:-1]``: the one norm of the companion vector.

    V is formed in ``v`` and conj(V) V in ``sq``, two buffers of the
    chains' shape that are overwritten.  The bits are those of
    ``np.linalg.norm(V, axis=-1)``, which sums (conj(V) V).real over the
    last axis: the product is the same complex multiply (numpy may fuse its
    real part, re * re + im^2 with one rounding, as on x86-64 with FMA, so
    re^2 + im^2 would not keep the bits), and ``_sum_last`` the same sum.
    Past about 1e154 a square overflows: only the norms that read inf are
    taken again by hypot, which does not overflow, so a finite state never
    reads as inf.
    """
    np.multiply(weights, chains, out=v)
    np.conjugate(v, out=sq)
    np.multiply(sq, v, out=sq)
    norms = np.sqrt(_sum_last(sq.real))
    over = np.isinf(norms)
    if over.any():
        norms[over] = np.hypot.reduce(np.abs(v[over]), axis=-1)
    return norms


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=-1)`` with its bits, faster for a short last axis.

    Below 8 terms numpy sums left to right, so the columns are added one by
    one in place; from 8 terms on it sums pairwise, so its own reduction is
    called.
    """
    if a.shape[-1] >= 8:
        return np.add.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for col in range(1, a.shape[-1]):
        out += a[..., col]
    return out


def assemble_state(initial: Sequence[Expression], K: int) -> np.ndarray:
    """Sample initial data on the uniform grid over [0, 2pi) and transform.

    ``initial`` lists the expressions (in x) for u(0,.), d_t u(0,.), ...;
    entry h fills chain column h of the returned (K+1, m) chain array, row k
    for mode k: the data are real, so the modes k = 0..K are the whole
    state.  The grid has G points, G the smallest power of two >= 4K, so a
    data mode aliases onto a kept mode only from |k| >= G - K >= 3K.
    """
    if K < 1:
        raise ValueError("mode cutoff K must be >= 1")
    G = 1 << (4 * K - 1).bit_length()
    x = 2.0 * np.pi * np.arange(G) / G
    return np.stack(
        [np.fft.fft(evaluate(expr, {"x": x}))[: K + 1] / G for expr in initial], axis=1
    )


def convolution_power(u: np.ndarray, nu: int) -> np.ndarray:
    """nu-fold discrete convolution of the truncated spectrum u, re-truncated.

    ``u`` holds modes -K..K, with no symmetry assumed.  Intermediates extend
    to nu*K before the final center slice, so no contribution inside |k| <= K
    is lost.  This direct form is the reference the integrator's ring
    evaluation is tested against.
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


def _ring_size(K: int, nu: int) -> int:
    """Smallest multiple of 4 >= (nu+1)K + 1 with no prime factor above 5: u^nu is alias-free."""
    n = (nu + 1) * K + 1
    n += -n % 4
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 4


class _HalfSpectrumRK4:
    """Classical RK4 on a batch of half-spectrum chains (B, K+1, m), with per-run tables.

    Every member shares the coefficient rows and stage times.  Member 0 is
    forced by u^nu; the others are integrated with zero forcing, so they are
    the linear (nu = 0) problem and cost no transform.

    The stages, their sums, the transforms and the blow-up monitor's V
    write into a workspace that lives as long as the kernel and is
    reallocated only when the batch shape changes.  ``step`` and ``forcing``
    return fresh arrays, so nothing a caller keeps aliases the workspace.
    """

    def __init__(self, K: int, m: int, nu: int):
        self.nu = nu
        self.ring = _ring_size(K, nu)
        modes = np.arange(K + 1)
        # column c carries -(ik)^(m-c), the weight of a_(m-c) on chain[:, c]
        self.neg_ik_pow = -_ik_powers(modes, m)[:, m:0:-1]
        self.v_weights = _v_weights(modes, m)
        self.grid = np.empty(self.ring)
        self.prod = np.empty(self.ring)
        self.spec = np.empty(self.ring // 2 + 1, dtype=complex)
        self.shape: tuple[int, ...] | None = None

    def _workspace(self, shape: tuple[int, ...]) -> None:
        if shape == self.shape:
            return
        self.shape = shape
        self.k = [np.empty(shape, dtype=complex) for _ in range(4)]
        self.stage = np.empty(shape, dtype=complex)
        self.term = np.empty(shape, dtype=complex)
        self.lin = np.empty(shape[:2], dtype=complex)
        self.stage_f = np.zeros(shape[:2], dtype=complex)  # rows >= 1 stay zero

    def _force(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write u^nu of member 0 into ``out[0]``; the other rows are left as they are."""
        if self.nu >= 1:
            grid = np.fft.irfft(y[0, :, 0], self.ring, norm="forward", out=self.grid)
            prod = grid
            if self.nu >= 2:
                prod = np.multiply(grid, grid, out=self.prod)
                for _ in range(self.nu - 2):
                    np.multiply(prod, grid, out=prod)
            out[0] = np.fft.rfft(prod, norm="forward", out=self.spec)[: y.shape[1]]
        return out

    def galerkin_residual(self, K: int) -> float:
        """Norm of the ring bins above K over that of modes 0..K, of member 0's last u^nu.

        The ring only keeps the modes 0..K clean: a bin above K folds two true
        modes together, so this estimates the part of u^nu the truncation drops.
        """
        low = float(np.linalg.norm(self.spec[: K + 1]))
        return float(np.linalg.norm(self.spec[K + 1 :])) / low if low > 0.0 else 0.0

    def forcing(self, y: np.ndarray) -> np.ndarray:
        """Modes 0..K of each member's forcing, shape (B, K+1): u^nu for member 0, else zero."""
        return self._force(y, np.zeros(y.shape[:2], dtype=complex))

    def _rhs(self, y: np.ndarray, coeff_row: np.ndarray, f: np.ndarray, out: np.ndarray) -> None:
        """Chain derivative of ``y`` under forcing ``f``, written into ``out``."""
        out[..., :-1] = y[..., 1:]
        np.multiply(self.neg_ik_pow, y, out=self.term)
        np.matmul(self.term, coeff_row[::-1], out=self.lin)
        np.add(self.lin, f, out=out[..., -1])

    def _stage(self, y: np.ndarray, h: float, k: np.ndarray) -> np.ndarray:
        """y + h*k, in the stage buffer."""
        np.multiply(h, k, out=self.term)
        return np.add(y, self.term, out=self.stage)

    def step(self, y: np.ndarray, dt: float, stage_coeffs: np.ndarray, f: np.ndarray) -> np.ndarray:
        """One RK4 step of the batch; ``f`` is ``forcing(y)``, the first stage's forcing."""
        self._workspace(y.shape)
        k1, k2, k3, k4 = self.k
        self._rhs(y, stage_coeffs[0], f, k1)
        half = 0.5 * dt
        stage = self._stage(y, half, k1)
        self._rhs(stage, stage_coeffs[1], self._force(stage, self.stage_f), k2)
        stage = self._stage(y, half, k2)
        self._rhs(stage, stage_coeffs[1], self._force(stage, self.stage_f), k3)
        stage = self._stage(y, dt, k3)
        self._rhs(stage, stage_coeffs[2], self._force(stage, self.stage_f), k4)
        # ((k1 + 2 k2) + 2 k3) + k4, as the expression associates left to right,
        # summed in the stage buffer, which k4 no longer needs
        acc = np.multiply(2.0, k2, out=self.stage)
        np.add(k1, acc, out=acc)
        np.add(acc, np.multiply(2.0, k3, out=self.term), out=acc)
        np.add(acc, k4, out=acc)
        return y + np.multiply(dt / 6.0, acc, out=self.term)

    def sup_v(self, y: np.ndarray) -> list[float]:
        """sup_k |V_k| per member, by ``_v_norms`` in the stage and term buffers.

        The modes -k have the same norms.  sqrt is monotone and correctly
        rounded, so the max of the norms has the bits of the norm of the
        largest sum of squares.
        """
        self._workspace(y.shape)
        return _v_norms(y, self.v_weights, self.term, self.stage).max(axis=-1).tolist()


def _spectral_radius(coeff_rows: np.ndarray) -> float:
    """Largest |eigenvalue| of the companion matrices of all coefficient rows."""
    return float(np.abs(np.linalg.eigvals(companion_stack(coeff_rows))).max())


def _guard(dt: float, coeff_rows: np.ndarray, K: int) -> float:
    """dt * (1 + rho) * K over the coefficient rows; StabilityError above STABILITY_LIMIT."""
    radius = _spectral_radius(coeff_rows)
    product = dt * (1.0 + radius) * K
    if product > STABILITY_LIMIT:
        raise StabilityError(dt, radius, K)
    return product


def step(chain: np.ndarray, dt: float, stage_coeffs: np.ndarray, nu: int) -> np.ndarray:
    """One classical RK4 step of the (K+1, m) chain array of modes k = 0..K; returns the next one.

    ``stage_coeffs`` holds the coefficient rows (a_1..a_m) at the three stage
    times t, t + dt/2, t + dt.  The step refuses to run outside the
    imaginary-axis stability region for these rows.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    K, m = chain.shape[0] - 1, chain.shape[1]
    stage_coeffs = np.asarray(stage_coeffs, dtype=float)
    if stage_coeffs.shape != (3, m):
        raise ValueError(f"stage_coeffs must have shape (3, {m})")
    _guard(dt, stage_coeffs, K)
    kernel = _HalfSpectrumRK4(K, m, nu)
    y = chain[None]
    return kernel.step(y, dt, stage_coeffs, kernel.forcing(y))[0]


@dataclass
class Trajectory:
    """Snapshots of a run: chains and forcing spectra of modes 0..K at recorded times.

    The run facts ``steps`` (RK4 steps taken), ``stability_ratio``
    (dt (1 + rho) K / STABILITY_LIMIT), ``peak_sup_v`` (largest sup_k |V_k|
    over the accepted states) and ``galerkin_residual`` (its largest kernel
    estimate over the snapshots, None when nu = 0) are filled in by
    ``simulate``.  ``calibration``
    holds the linear member when ``simulate`` was asked for it.
    """

    order: int
    K: int
    dt: float
    nu: int
    times: np.ndarray  # (S,)
    chains: np.ndarray  # (S, K+1, m)
    forcings: np.ndarray  # (S, K+1); zeros when nu = 0
    completed: bool
    abort_reason: str | None = None
    abort_time: float | None = None
    steps: int | None = None
    stability_ratio: float | None = None
    peak_sup_v: float | None = None
    galerkin_residual: float | None = None
    calibration: "Trajectory | None" = None

    @property
    def modes(self) -> np.ndarray:
        return np.arange(self.K + 1)

    def __len__(self) -> int:
        return self.times.size

    def v_series(self) -> np.ndarray:
        """(S, K+1, m) array of companion vectors at every snapshot."""
        return companion_vectors(self.chains)

    def v_norms(self) -> np.ndarray:
        """(S, K+1) array of the norms |V_k| at every snapshot, by the monitor's ``_v_norms``."""
        v = np.empty_like(self.chains)
        return _v_norms(self.chains, _v_weights(self.modes, self.order), v, np.empty_like(v))

    def u_hat_series(self) -> np.ndarray:
        return self.chains[:, :, 0]


def _cut(
    member: Trajectory, rows: int, steps: int, reason: str | None = None, when: float | None = None
) -> Trajectory:
    """The closed record of a batch member: its first ``rows`` snapshots and how the run ended."""
    return replace(
        member,
        times=member.times[:rows],
        chains=member.chains[:rows],
        forcings=member.forcings[:rows],
        completed=reason is None,
        abort_reason=reason,
        abort_time=when,
        steps=steps,
    )


def _monitor(sup_v: float, ceiling: float, t: float) -> tuple[str, str] | None:
    """The abort reason and message of a state at ``t`` with this sup|V|, or None."""
    if not math.isfinite(sup_v):
        return "non-finite", f"non-finite state at t = {t:.6g}"
    if sup_v > ceiling:
        return "blow-up", (
            f"blow-up: sup|V| = {sup_v:.6g} exceeds ceiling {ceiling:.6g} at t = {t:.6g}"
        )
    return None


def simulate(
    problem: CoefficientSpec,
    K: int,
    dt: float,
    snapshot_interval: float | None = None,
    blowup_ceiling: float = 1e9,
    calibrate: bool = False,
    *,
    on_snapshot: Callable[[float, np.ndarray], object] | None = None,
) -> Trajectory:
    """Integrate the problem from t = 0 to T with fixed steps.

    The step count is round(T/dt), so the effective dt divides T exactly.
    Snapshots are recorded at t = 0, every ``snapshot_interval`` (every step
    when None), and at T.  Aborts with BlowUpError when sup_k |V_k| exceeds
    ``blowup_ceiling`` or turns non-finite (the partial trajectory rides on
    the exception), and with StabilityError before the loop if the fixed-step
    guard fails anywhere on [0, T].  The initial state is monitored too: data
    already past the ceiling abort at t = 0 as the problem's (``member`` 0),
    with no snapshot and no last valid time.

    With ``calibrate`` the linear version of the problem (nu = 0) is
    integrated from the same data in the same loop, as a second batch member
    bit for bit equal to its own ``simulate`` run, and returned as the
    result's ``calibration``.  A blow-up of that member does not stop the
    run: its BlowUpError (``member`` 1) is raised once the problem itself has
    completed, and a blow-up of the problem takes precedence.

    ``on_snapshot(t, chain)`` is called each time a snapshot is recorded,
    with the problem's (member 0) recorded (K+1, m) chain, a row of the
    returned trajectory that no later step changes.
    """
    T = problem.horizon
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("dt too large: fewer than one step over the horizon")
    chain0 = assemble_state(problem.initial, K)
    m = chain0.shape[1]
    nu = problem.nonlinearity

    stage_times = np.linspace(0.0, T, 2 * n_steps + 1)
    dt_eff = T / n_steps
    table = problem.coefficient_table(stage_times)
    ratio = _guard(dt_eff, table, K) / STABILITY_LIMIT

    if snapshot_interval is None:
        snap_every = 1
    else:
        snap_every = max(1, int(round(snapshot_interval / dt_eff)))
    size = 1 + n_steps // snap_every + (n_steps % snap_every != 0)
    # batch rows: member 0 the problem, member 1 its linear calibration
    members = [
        Trajectory(
            order=m, K=K, dt=dt_eff, nu=member_nu, times=np.empty(size),
            chains=np.empty((size, K + 1, m), dtype=complex),
            forcings=np.empty((size, K + 1), dtype=complex),
            completed=False, stability_ratio=ratio, peak_sup_v=0.0,
        )
        for member_nu in ([nu, 0] if calibrate else [nu])
    ]
    live = list(members)

    kernel = _HalfSpectrumRK4(K, m, nu)
    y = np.repeat(chain0[None], len(live), axis=0)
    rows = 0  # snapshots each live member holds: all record on the same cadence
    residual = 0.0
    calibration_error = None
    for i in range(n_steps + 1):  # the state after i steps
        t = float(stage_times[2 * i])
        # the calibration member first, so that an abort of the problem at the same step wins;
        # every member starts from the same data, so a fault at t = 0 is the problem's
        for member, sup_v in reversed(list(enumerate(kernel.sup_v(y)))):
            fault = _monitor(sup_v, blowup_ceiling, t)
            if fault is None:
                live[member].peak_sup_v = max(live[member].peak_sup_v, sup_v)
                continue
            reason, message = fault
            error = BlowUpError(
                message,
                float(stage_times[2 * i - 2]) if i else None,
                _cut(live[member], rows, i, reason, t),
                member=member,
            )
            if member == 0:
                raise error
            calibration_error = error
            live, y = live[:member], y[:member]
        # the forcing of the current state serves its snapshot and the next step's first stage
        f = kernel.forcing(y)
        if i % snap_every == 0 or i == n_steps:
            for record, chain, forcing in zip(live, y, f):
                record.times[rows] = t
                record.chains[rows] = chain
                record.forcings[rows] = forcing
            if on_snapshot is not None:
                on_snapshot(t, live[0].chains[rows])
            rows += 1
            if nu >= 1:
                residual = max(residual, kernel.galerkin_residual(K))
        if i < n_steps:
            y = kernel.step(y, dt_eff, table[2 * i : 2 * i + 3], f)
    if calibration_error is not None:
        raise calibration_error
    traj = _cut(members[0], rows, n_steps)
    traj.galerkin_residual = residual if nu >= 1 else None
    if calibrate:
        traj.calibration = _cut(members[1], rows, n_steps)
    return traj
