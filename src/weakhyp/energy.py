"""Weights and energy functionals driving the analyticity diagnostics.

The two-regime weight multiplier is Phi(t, xi) = C0 * min{(T-t)^-1 + 1, <xi>}
with bracket <xi> = 1 + |xi|: hyperbolic-regime growth (T-t)^-1 + 1 while
(T-t)^-1 < |xi|, Kovalewskian cap <xi> afterwards; the regimes switch at
tau(xi) = T - 1/|xi|.  Its tail integral rho(t, xi) = int_t^T Phi(s, xi) ds
has the closed form implemented in rho_weight, continuous across the switch
and bounded by a constant times log<xi> + 1.

On top of rho sit the weighted spectral sums E_j and moments M_j of the
companion vectors, the super-energies F and G with the shrinking radius
schedule, and the run-time monitors: the master linear estimate (sup ratio
R, fitted loss exponent N), the continuation threshold G < L, and the
finite-difference audit of the per-mode energy inequality, whose quadratic
forms come from the quasi-symmetrizer.

Every sum over modes runs over -K..K, taken on k = 0..K with multiplicity 2
for k >= 1, and, outside the master estimate, only over each snapshot's
resolved band (``radius.resolved_band``): past it the modes sit on the
round-off plateau.  The majorant series are summed in k first, where
sum_j (r|k|)^j / j! = e^(r|k|) closes each of them, in one log-domain sum
(``_band_sum``); no series is truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equation import CoefficientSpec
from .quasisym import build_quasi_symmetrizer
from .radius import resolved_band
from .spectral import Trajectory
from .symbol import characteristic_roots

__all__ = [
    "WeightParams",
    "bracket",
    "phi_weight",
    "rho_weight",
    "derivative_energies",
    "initial_majorant",
    "super_energies",
    "SuperEnergyReport",
    "phi_growth",
    "radius_schedule",
    "ContinuationReport",
    "continuation_check",
    "MasterEstimateReport",
    "master_estimate_check",
    "EnergyInequalityReport",
    "energy_inequality_check",
    "EnergyLedger",
    "build_energy_ledger",
]


# times on [0, T] at which the default C0 takes the spectral norm of A(t)
C0_GRID_POINTS = 10_000

# the master-estimate scan fits the smallest N whose sup ratio is at most this target C
DEFAULT_C_TARGET = 10.0

# the most values one band sum over (rows, snapshots or orders, modes) holds at once:
# 64 KiB temporaries, so the ledger does not raise a run's peak memory
_CHUNK = 1 << 13


def bracket(xi) -> np.ndarray | float:
    """Mode bracket <xi> = 1 + |xi|."""
    return 1.0 + np.abs(xi)


@dataclass(frozen=True)
class WeightParams:
    """Constants entering the weights: C0, horizon T, loss exponent N."""

    c0: float
    horizon: float
    loss_exponent: int

    def __post_init__(self):
        if not self.c0 >= 1.0:
            raise ValueError("C0 must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.loss_exponent < 0:
            raise ValueError("loss exponent N must be nonnegative")


def phi_weight(t: float, xi, params: WeightParams):
    """Phi(t, xi) = C0 * min{(T-t)^-1 + 1, 1 + |xi|}."""
    ax = np.abs(np.asarray(xi, dtype=float))
    with np.errstate(divide="ignore"):
        hyper = 1.0 / (params.horizon - t) + 1.0
    out = params.c0 * np.minimum(hyper, 1.0 + ax)
    return float(out) if out.ndim == 0 else out


def rho_weight(t, xi, params: WeightParams):
    """Closed form of int_t^T Phi(s, xi) ds, valid for 0 <= t <= T.

    Where t >= tau(xi) (or |xi| <= 1/T, so tau <= 0) the integrand is the
    constant C0<xi> and the integral is C0<xi>(T-t); otherwise the hyperbolic
    stretch contributes C0[ln((T-t)|xi|) + (tau-t)] and the Kovalewskian tail
    contributes C0<xi>/|xi|.  ``t`` and ``xi`` broadcast against each other;
    each value takes the same operations whatever the shapes.
    """
    c0, T = params.c0, params.horizon
    ax = np.abs(np.asarray(xi, dtype=float))
    t = np.asarray(t, dtype=float)
    scalar = ax.ndim == 0 and t.ndim == 0
    t, ax = (np.atleast_1d(a) for a in np.broadcast_arrays(t, ax))
    out = np.empty(ax.shape)
    with np.errstate(divide="ignore"):
        tau = T - 1.0 / ax
    kov = (ax <= 1.0 / T) | (t >= tau)
    out[kov] = c0 * (1.0 + ax[kov]) * (T - t[kov])
    hyp = ~kov
    if hyp.any():
        axh, th = ax[hyp], t[hyp]
        out[hyp] = c0 * (np.log((T - th) * axh) + (tau[hyp] - th)) + c0 * (1.0 + axh) / axh
    return float(out[0]) if scalar else out


def _band_sum(log_terms: np.ndarray, band_hi) -> np.ndarray:
    """sum over k < band_hi of (1, 2, 2, ...)_k exp(log_terms[..., k]): the one sum over modes.

    The modes k = 0..B-1 lie on the last axis; ``band_hi`` broadcasts against
    the others.  Summed as max + log(sum exp(terms - max)), a value reads inf
    only where the true sum exceeds the float range; zero terms (log -inf)
    and an empty band sum to 0.
    """
    k = np.arange(log_terms.shape[-1])
    mult = np.where(k > 0, math.log(2.0), 0.0)  # mode k >= 1 stands for k and -k
    logs = np.where(k < np.asarray(band_hi)[..., None], log_terms + mult, -np.inf)
    peak = logs.max(axis=-1, keepdims=True, initial=-np.inf)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(shift[..., 0] + np.log(np.exp(logs - shift).sum(axis=-1)))


def _by_rows(fn, n: int, row_size: int) -> np.ndarray:
    """np.concatenate of fn(rows) over slices of range(n) that hold <= _CHUNK values each."""
    step = max(1, _CHUNK // max(row_size, 1))
    return np.concatenate([fn(slice(lo, lo + step)) for lo in range(0, n, step)])


def _rho_table(trajectory: Trajectory, params: WeightParams) -> np.ndarray:
    """rho(t, k) at every snapshot time and mode, shape (S, K+1); it does not depend on N."""
    return rho_weight(trajectory.times[:, None], trajectory.modes, params)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    out = np.zeros_like(y)
    if y.shape[0] > 1:
        dx = np.diff(x)
        panels = 0.5 * (y[1:] + y[:-1]) * dx.reshape(-1, *([1] * (y.ndim - 1)))
        out[1:] = np.cumsum(panels, axis=0)
    return out


def _ledger_tables(trajectory: Trajectory, params: WeightParams) -> tuple:
    """(|V|, rho, band_hi): the norms, weights and resolved band that every ledger sum reads."""
    return trajectory.v_norms(), _rho_table(trajectory, params), resolved_band(trajectory.chains)


def _band_tables(trajectory: Trajectory, params: WeightParams, tables) -> tuple:
    """(rho + ln|V|, ln|V|) below the widest band, and band_hi, from ``tables`` if given."""
    v_norms, rho, band_hi = tables or _ledger_tables(trajectory, params)
    width = int(band_hi.max())
    with np.errstate(divide="ignore"):
        log_v = np.log(v_norms[:, :width])
    return rho[:, :width] + log_v, log_v, band_hi


def derivative_energies(
    trajectory: Trajectory,
    params: WeightParams,
    j_max: int,
    *,
    _tables: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays ([E_j], [M_j]) for j = 0..j_max at every snapshot, shape (S, j_max+1) each.

    E_j = sum_k e^rho |k|^j |V_k| (the state of the j-th spatial derivative
    carries the extra (ik)^j) and M_j = sum_k |k|^j |V_k|, each a
    ``_band_sum`` over the snapshot's band, with |k|^j as j ln|k|.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    log_c, log_v, band_hi = _band_tables(trajectory, params, _tables)
    with np.errstate(divide="ignore"):
        log_k = np.log(np.arange(log_v.shape[1]))
    powers = np.vstack([np.zeros_like(log_k), np.multiply.outer(np.arange(1, j_max + 1), log_k)])
    return tuple(
        _by_rows(
            lambda rows, logs=logs: _band_sum(logs[rows, None, :] + powers, band_hi[rows, None]),
            len(trajectory),
            powers.size,
        )
        for logs in (log_c, log_v)
    )


def initial_majorant(trajectory: Trajectory, params: WeightParams, r, *, _tables=None):
    """A(r) = sum_k <k>^N e^(r|k|) |V_k(0)| at each radius r, on the first band: G(0) = A(r0)."""
    log_w = _initial_weights(params, *_band_tables(trajectory, params, _tables)[1:])
    return _band_sum(log_w + np.multiply.outer(r, np.arange(log_w.size)), log_w.size)


def _initial_weights(params: WeightParams, log_v: np.ndarray, band_hi: np.ndarray) -> np.ndarray:
    """ln(<k>^N |V_k(0)|) on the band of the first snapshot."""
    return params.loss_exponent * np.log(bracket(np.arange(band_hi[0]))) + log_v[0, : band_hi[0]]


@dataclass
class SuperEnergyReport:
    """Super-energies F(t) and G(t), and G(t) - G(0) formed without cancellation."""

    f_values: np.ndarray
    g_values: np.ndarray
    g_increments: np.ndarray


def super_energies(
    trajectory: Trajectory,
    params: WeightParams,
    r_schedule: np.ndarray,
    *,
    _tables: tuple | None = None,
) -> SuperEnergyReport:
    """F(t) = F(t; r(t)) and G(t) = A(r(t)) + int_0^t F(s; r(t))^nu ds, in closed form.

    F(s; r) = sum_k e^(rho(s,k) + r|k|) |V_k(s)| sums sum_j E_j r^j / j!, and
    F^nu has the coefficients of the nu-fold convolution of (E_j / j!)_j.
    r(t) enters every F(s; r(t)), so the integral is a trapezoid over the
    snapshots up to t (0 when nu = 0), each block of rows t reduced at once,
    so no temporary outgrows _CHUNK values or one row (s, k) for any S.
    G(t) - G(0) = sum_k w_k e^(r0|k|) expm1((r(t) - r0)|k|) + int_0^t F^nu,
    w_k = <k>^N |V_k(0)|, is formed without subtracting G(0).
    """
    S, nu = len(trajectory), trajectory.nu
    r = np.asarray(r_schedule, dtype=float)
    log_c, log_v, band_hi = _band_tables(trajectory, params, _tables)
    modes = np.arange(log_v.shape[1])
    dt = np.diff(trajectory.times)

    def rows_of(rows: slice) -> np.ndarray:
        i = np.arange(S)[rows]
        f = _band_sum(log_c + np.multiply.outer(r[rows], modes)[:, None, :], band_hi)  # F(t_s; r_i)
        panels = (nu >= 1) * 0.5 * (f[:, 1:] ** nu + f[:, :-1] ** nu) * dt  # 0 when nu = 0
        integral = np.where(np.arange(S - 1) < i[:, None], panels, 0.0).sum(axis=1)
        return np.column_stack([f[np.arange(i.size), i], integral])

    f_values, integral = _by_rows(rows_of, S, log_c.size).T
    log_w = _initial_weights(params, log_v, band_hi)
    k = modes[: log_w.size]
    step = np.expm1(np.multiply.outer(r - r[0], k))
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.where(k > 0, 2.0, 1.0) * np.exp(log_w + r[0] * k) * step
    # A(r(t)) - A(r0) term by term; a zero step drops its term, also where the weight overflowed
    a_drop = np.where(step == 0.0, 0.0, terms).sum(axis=1)
    a_values = initial_majorant(trajectory, params, r, _tables=_tables)
    return SuperEnergyReport(f_values, a_values + integral, a_drop + integral)


def phi_growth(c_const: float, m_const: float, l_const: float, nu: int) -> float:
    """Radius decay rate phi(L) = C^nu (M + L)^(nu - 1)."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    base = m_const + l_const
    if nu == 0 and base <= 0.0:
        raise ValueError("M + L must be positive when nu = 0")
    return c_const**nu * base ** (nu - 1)


def radius_schedule(r0: float, l_const: float, m_const: float, c_const: float, nu: int, t):
    """r(t) = r0 * exp(-phi(L) t), and r(0) = r0 exactly, also when phi(L) overflowed."""
    rate = phi_growth(c_const, m_const, l_const, nu)
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(t == 0.0, r0, r0 * np.exp(-rate * t))
    return float(out) if out.ndim == 0 else out


@dataclass
class ContinuationReport:
    """Verdict of the G < L continuation threshold plus the sharp bound."""

    passed: bool
    first_crossing: float | None
    degenerate_at_start: bool
    l_const: float
    g0: float
    g_max: float
    sharp_passed: bool
    sharp_excess: float
    cm_power: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "first_crossing": self.first_crossing,
            "degenerate_at_start": self.degenerate_at_start,
            "L": self.l_const,
            "G0": self.g0,
            "G_max": self.g_max,
            "sharp_passed": self.sharp_passed,
            "sharp_excess": self.sharp_excess,
            "CM_power": self.cm_power,
        }


def continuation_check(
    times: np.ndarray,
    g_values: np.ndarray,
    increments: np.ndarray,
    cm_power: float,
    horizon: float,
) -> ContinuationReport:
    """Locate the first time G(t) is not below L (pass iff none) and audit the sharp bound.

    L = G(0) + cm_power * horizon, with cm_power = (C M)^nu from the ledger.
    Both tests read ``increments`` = G(t) - G(0), so a large G(0) cannot
    round them away: G(t) < L is increments < cm_power * horizon, and the
    sharp bound G(t) <= G(0) + cm_power * t is increments <= cm_power * t,
    within 1e-9 max(1, |increments|).  A NaN is not below, so it counts as
    a crossing.  At t = 0 the sharp bound is 0, also when cm_power overflowed,
    and an inf increment under an inf bound has no excess.  The sharp audit
    fails whenever cm_power, G(0) or an increment is not finite, where the
    bound holds vacuously.  A start already at or above L is degenerate.
    """
    times = np.asarray(times, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    increments = np.asarray(increments, dtype=float)
    g0 = float(g_values[0])
    crossing = ~(increments < cm_power * horizon)
    first = float(times[int(np.argmax(crossing))]) if crossing.any() else None
    with np.errstate(invalid="ignore"):
        sharp_bound = np.where(times == 0.0, 0.0, cm_power * times)
        gap = np.where(increments == sharp_bound, 0.0, increments - sharp_bound)
    excess = float(gap.max())
    scale = max(1.0, float(np.abs(increments).max()))
    return ContinuationReport(
        passed=not crossing.any(),
        first_crossing=first,
        degenerate_at_start=bool(crossing[0]),
        l_const=g0 + cm_power * horizon,
        g0=g0,
        g_max=float(g_values.max()),
        sharp_passed=bool(
            excess <= 1e-9 * scale and np.isfinite([cm_power, g0, *increments]).all()
        ),
        sharp_excess=excess,
        cm_power=cm_power,
    )


@dataclass
class MasterEstimateReport:
    """Measured sup ratio of the weighted linear estimate and the fitted N."""

    ratio: float
    n_used: int
    fitted_n: int | None
    c_target: float
    per_time: np.ndarray
    ratios_by_n: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "N": self.n_used,
            "fitted_N": self.fitted_n,
            "C_target": self.c_target,
            "ratios_by_N": {str(k): v for k, v in sorted(self.ratios_by_n.items())},
        }


def master_estimate_check(
    trajectory: Trajectory,
    params: WeightParams,
    c_target: float = DEFAULT_C_TARGET,
    *,
    _tables: tuple | None = None,
) -> MasterEstimateReport:
    """Sup over (t, k) of e^rho |V_k(t)| / (<k>^N |V_k(0)| + <k>^(m-1) I_k(t)).

    I_k(t) = int_0^t e^(rho(s,k)) |F_k(s)| ds by trapezoid on the snapshots;
    the denominator is floored at eps times its maximum, so a mode that is
    exactly zero in the data and the early forcing cannot inflate the sup.
    Also scans integer exponents N' in [m-1, 2m+4] and reports the smallest
    one whose sup ratio is at most ``c_target`` (None when the scan fails).
    Every term is even in k, so the sup runs over k = 0..K.  A ratio that
    cannot be formed, where a weight e^rho past the float range meets a
    zero norm (inf * 0), counts as inf: the estimate is not shown there.
    ``_tables`` is as in ``derivative_energies``.
    """
    times = trajectory.times
    m = trajectory.order
    v_norms, rho = (_tables or _ledger_tables(trajectory, params))[:2]
    f_mags = np.abs(trajectory.forcings)
    weighted_v = np.exp(rho) * v_norms
    forcing_integral = _cumtrapz(np.exp(rho) * f_mags, times)
    br = np.atleast_1d(bracket(trajectory.modes)).astype(float)
    base = br ** (m - 1) * forcing_integral
    v0 = v_norms[0]

    def sup_ratio(n: int) -> tuple[float, np.ndarray]:
        den = br**n * v0[None, :] + base
        floor = max(np.finfo(float).eps * float(den.max()), np.finfo(float).tiny)
        den = np.maximum(den, floor)
        ratios = weighted_v / den
        per_time = np.where(np.isnan(ratios), np.inf, ratios).max(axis=1)
        return float(per_time.max()), per_time

    ratios_by_n: dict[int, float] = {}
    fitted: int | None = None
    for n in range(max(m - 1, 0), 2 * m + 5):
        ratios_by_n[n], _ = sup_ratio(n)
        if fitted is None and ratios_by_n[n] <= c_target:
            fitted = n
    n_used = params.loss_exponent
    ratio, per_time = sup_ratio(n_used)
    ratios_by_n[n_used] = ratio
    return MasterEstimateReport(
        ratio=ratio,
        n_used=n_used,
        fitted_n=fitted,
        c_target=c_target,
        per_time=per_time,
        ratios_by_n=ratios_by_n,
    )


@dataclass
class EnergyInequalityReport:
    """Finite-difference audit of the per-mode differential inequality."""

    max_ratio: float
    passed: bool
    slack: float
    c0: float
    checked: int

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "passed": self.passed,
            "slack": self.slack,
            "C0": self.c0,
            "checked": self.checked,
        }


def _quasi_energy(trajectory: Trajectory, problem: CoefficientSpec) -> np.ndarray:
    """E*(t, k) = max((Q_eps V_k, V_k), 0) at eps = <k>^-1, shape (S, K+1).

    Q_eps comes from the roots of the coefficient table at the snapshot
    times, for all (t, k) in one ``QuasiSymmetrizer.assemble``, and the
    forms are one einsum: each E* has the bits of one Q_eps and one einsum
    per point.
    """
    times = trajectory.times
    roots = characteristic_roots(problem.coefficient_table(times), times=times)
    q = build_quasi_symmetrizer(roots).assemble(1.0 / bracket(trajectory.modes))
    v = trajectory.v_series()
    return np.maximum(np.einsum("tkj,tkjl,tkl->tk", v.conj(), q, v).real, 0.0)


def energy_inequality_check(
    trajectory: Trajectory,
    problem: CoefficientSpec,
    params: WeightParams,
    slack: float = 0.05,
) -> EnergyInequalityReport:
    """Check d/dt sqrt(E*) <= C0((T-t)^-1 + 1) sqrt(E*) + C0 |F_k| along the run.

    E*(t, k) is the quasi-symmetrizer energy at eps = <k>^-1 built from the
    roots at each snapshot time (``_quasi_energy``).  The derivative is a
    centered difference at interior snapshot times; the verdict allows the
    configured relative slack.  Modes where both sides vanish are skipped.
    The inequality at mode -k is the one at k, so the modes 0..K are
    evaluated and ``checked`` counts the (t, k) points of -K..K.
    """
    times = trajectory.times
    if times.size < 3:
        raise ValueError("need at least three snapshots for interior differences")
    f_mags = np.abs(trajectory.forcings)
    s_vals = np.sqrt(_quasi_energy(trajectory, problem))
    t_col = times.reshape(-1, 1)
    lhs = (s_vals[2:] - s_vals[:-2]) / (t_col[2:] - t_col[:-2])
    with np.errstate(divide="ignore"):
        growth = 1.0 / (params.horizon - times[1:-1]) + 1.0
    rhs = params.c0 * growth.reshape(-1, 1) * s_vals[1:-1] + params.c0 * f_mags[1:-1]
    tiny = 1e-300
    active = rhs > tiny
    max_ratio = 0.0
    if active.any():
        max_ratio = float((lhs[active] / rhs[active]).max())
    silent_violation = (~active) & (lhs > 1e-12)
    if silent_violation.any():
        max_ratio = float("inf")
    return EnergyInequalityReport(
        max_ratio=max_ratio,
        passed=bool(max_ratio <= 1.0 + slack),
        slack=slack,
        c0=params.c0,
        checked=int(active.sum() + active[:, 1:].sum()),  # k >= 1 stands for -k too
    )


@dataclass
class EnergyLedger:
    """Every recorded series and measured constant of one analysis pass."""

    times: np.ndarray
    e_j: np.ndarray  # (S, j_max+1)
    energies: SuperEnergyReport  # F, G and G(t) - G(0)
    r_values: np.ndarray
    band_hi: np.ndarray  # (S,) resolved band of each snapshot
    resolved: bool  # every band ends below K
    j_max: int
    nu: int
    c0: float
    n_exponent: int
    c_const: float
    m0: float
    k_caps: np.ndarray
    m_const: float
    l_const: float
    r0: float
    phi_l: float
    master: MasterEstimateReport
    continuation: ContinuationReport

    def to_dict(self) -> dict:
        return {
            "C0": self.c0,
            "N": self.n_exponent,
            "C": self.c_const,
            "M0": self.m0,
            "K_N": float(self.k_caps[self.n_exponent]),
            "M": self.m_const,
            "L": self.l_const,
            "r0": self.r0,
            "phi_L": self.phi_l,
            "nu": self.nu,
            "J_max": self.j_max,
            "band": {"band_hi": self.band_hi, "resolved": self.resolved},
            "master": self.master.to_dict(),
            "continuation": self.continuation.to_dict(),
        }


def _companion_norms(table: np.ndarray) -> np.ndarray:
    """Spectral norms of the companion matrices of the rows (a_1, ..., a_m) of ``table``."""
    r0 = np.abs(table[:, -1])  # the last row of A is (a_m, ..., a_1), so r_0 = a_m
    rest = (table[:, :-1] ** 2).sum(axis=1)
    root = np.sqrt(((1.0 - r0) ** 2 + rest) * ((1.0 + r0) ** 2 + rest))
    return np.sqrt(0.5 * (1.0 + (r0 * r0 + rest) + root))


def default_c0(problem: CoefficientSpec) -> float:
    """max(1, sup over C0_GRID_POINTS times of the spectral norm of A(t)), in closed form.

    A = S + e_m r^T, with S the superdiagonal -1 and r = (a_m, ..., a_1) the
    last row.  The last row of S is zero, so S^T e_m = 0 and
    A^T A = S^T S + r r^T = diag(0, 1, ..., 1) + r r^T = I - e_1 e_1^T + r r^T.
    It is the identity on the complement of span(e_1, r).  Write
    r = r_0 e_1 + r' with r' orthogonal to e_1; on the span its eigenvalues
    are 1 + mu, where mu^2 - (|r|^2 - 1) mu - |r'|^2 = 0.  Hence
    sigma_max^2 = (1 + |r|^2 + sqrt(D)) / 2 with
    D = (|r|^2 - 1)^2 + 4 |r'|^2 = ((1 - |r_0|)^2 + |r'|^2)((1 + |r_0|)^2 + |r'|^2),
    a product of sums of squares, so nothing cancels.  The cost is O(m) per
    time instead of an SVD.
    """
    ts = np.linspace(0.0, problem.horizon, C0_GRID_POINTS)
    return float(max(1.0, _companion_norms(problem.coefficient_table(ts)).max()))


def build_energy_ledger(
    trajectory: Trajectory,
    problem: CoefficientSpec,
    c0: float,
    n_exponent: int,
    c_const: float | None = None,
    c_target: float = DEFAULT_C_TARGET,
    j_max: int = 24,
    r0: float = 0.25,
) -> EnergyLedger:
    """Assemble the full ledger for a recorded trajectory at the given C0 and N.

    C0 and N are taken as given; ``cli._cmd_analyze`` resolves them.  C is
    the master estimate's sup ratio at N unless given.  The radius schedule
    starts at r0.  Every sum over modes runs over each snapshot's resolved
    band, and ``resolved`` says whether every band ended below K.  The
    continuation verdict fails whenever C, M or L is not finite, and the
    sharp audit whenever C or M is not: the argument needs them as numbers,
    and with nu = 0 the power (C M)^0 = 1 would keep L and the sharp bound
    finite past an overflowed C or M.
    """
    if n_exponent > j_max:
        raise ValueError(f"loss exponent N={n_exponent} exceeds J_max={j_max}")
    T = problem.horizon
    params = WeightParams(c0=c0, horizon=T, loss_exponent=n_exponent)
    # one norm table, one rho table and one band serve the master check and the energies
    tables = _ledger_tables(trajectory, params)
    master = master_estimate_check(trajectory, params, c_target, _tables=tables)
    if c_const is None:
        c_const = master.ratio

    e_j, m_j = derivative_energies(trajectory, params, j_max, _tables=tables)
    m0 = float(e_j[:, 0].max())
    k_caps = m_j.max(axis=0)
    m_const = float(k_caps[n_exponent] + m0)

    g0 = float(initial_majorant(trajectory, params, np.array([r0]), _tables=tables)[0])
    nu = trajectory.nu
    cm_power = (c_const * m_const) ** nu
    l_const = g0 + cm_power * T
    phi_l = phi_growth(c_const, m_const, l_const, nu)
    r_values = radius_schedule(r0, l_const, m_const, c_const, nu, trajectory.times)
    energies = super_energies(trajectory, params, r_values, _tables=tables)
    continuation = continuation_check(
        trajectory.times, energies.g_values, energies.g_increments, cm_power, T
    )
    finite = math.isfinite(c_const) and math.isfinite(m_const)
    continuation.passed &= finite and math.isfinite(l_const)
    continuation.sharp_passed &= finite
    return EnergyLedger(
        times=trajectory.times,
        e_j=e_j,
        energies=energies,
        r_values=r_values,
        band_hi=tables[2],
        resolved=bool((tables[2] <= trajectory.K).all()),
        j_max=j_max,
        nu=nu,
        c0=c0,
        n_exponent=n_exponent,
        c_const=c_const,
        m0=m0,
        k_caps=k_caps,
        m_const=m_const,
        l_const=l_const,
        r0=r0,
        phi_l=phi_l,
        master=master,
        continuation=continuation,
    )
