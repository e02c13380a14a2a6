"""Weights and energy functionals driving the analyticity diagnostics.

The two-regime weight multiplier is Phi(t, xi) = C0 * min{(T-t)^-1 + 1, <xi>}
with bracket <xi> = 1 + |xi|: hyperbolic-regime growth (T-t)^-1 + 1 while
(T-t)^-1 < |xi|, Kovalewskian cap <xi> afterwards; the regimes switch at
tau(xi) = T - 1/|xi|.  Its tail integral rho(t, xi) = int_t^T Phi(s, xi) ds
has the closed form implemented in rho_weight, continuous across the switch
and bounded by a constant times log<xi> + 1.

On top of rho sit the weighted spectral sums E_j and moments M_j of the
companion vectors (over -K..K, taken on k = 0..K with multiplicity 2 for
k >= 1), the generating-function super-energies F and G with the
shrinking radius schedule, and the run-time monitors: the master linear
estimate (sup ratio R, fitted loss exponent N), the continuation threshold
G < L, and the finite-difference audit of the per-mode energy inequality,
whose quadratic forms come from the quasi-symmetrizer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .equation import CoefficientSpec
from .quasisym import build_quasi_symmetrizer
from .spectral import Trajectory
from .symbol import characteristic_roots

__all__ = [
    "WeightParams",
    "GevreyOrderWarning",
    "bracket",
    "phi_weight",
    "rho_weight",
    "gevrey_weight",
    "derivative_energies",
    "initial_weighted_moments",
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


# a truncation tail ratio (last term over partial sum) above this marks a series as diverging
TAIL_THRESHOLD = 0.1

# times on [0, T] at which the default C0 takes the spectral norm of A(t)
C0_GRID_POINTS = 10_000


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


class GevreyOrderWarning(UserWarning):
    """Gevrey order below the sub-additivity threshold 2(m-1)."""


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


def gevrey_weight(t: float, xi, k: int, lam, m: int, horizon: float):
    """Gevrey-regime weight |xi|^(2(m-1)/k) * int_t^T Lambda + (T - t).

    ``lam`` is either a constant or a sampled profile (times, values) that is
    integrated by the trapezoid rule over [t, T].  Sub-additivity in xi needs
    k >= 2(m-1); smaller k warns (GevreyOrderWarning) but still computes.
    """
    if k < 1:
        raise ValueError("Gevrey order k must be >= 1")
    threshold = 2 * (m - 1)
    if k < threshold:
        warnings.warn(
            f"Gevrey order k={k} is below the sub-additivity threshold {threshold}; "
            "the weight is no longer sub-additive in xi",
            GevreyOrderWarning,
            stacklevel=2,
        )
    if np.isscalar(lam) or isinstance(lam, (int, float)):
        integral = float(lam) * (horizon - t)
    else:
        ts, vals = lam
        fine = np.linspace(t, horizon, 513)
        integral = float(np.trapezoid(np.interp(fine, ts, vals), fine))
    ax = np.abs(np.asarray(xi, dtype=float))
    out = ax ** (2.0 * (m - 1) / k) * integral + (horizon - t)
    return float(out) if out.ndim == 0 else out


def _guarded_sum(log_factors: np.ndarray, mags: np.ndarray) -> float:
    """sum(mags * exp(log_factors)) with a log-domain path for large exponents."""
    mask = mags > 0.0
    if not mask.any():
        return 0.0
    lf = log_factors[mask]
    mg = mags[mask]
    if float(lf.max()) <= 700.0:
        return float((mg * np.exp(lf)).sum())
    logs = lf + np.log(mg)
    mx = float(logs.max())
    total_log = mx + math.log(float(np.exp(logs - mx).sum()))
    return math.exp(total_log) if total_log <= 709.0 else float("inf")


def _weight_rows(K: int, j_max: int) -> np.ndarray:
    """Rows (1, 2, 2, ...) * k^j for k = 0..K, j = 0..j_max, by repeated products.

    Row 0 counts |k| in -K..K, so a row sum over k = 0..K is the sum over
    -K..K of a term even in k; doubling is exact, so each term keeps its bits.
    """
    kmag = np.arange(K + 1, dtype=float)
    rows = np.empty((j_max + 1, K + 1))
    rows[0] = np.where(kmag > 0.0, 2.0, 1.0)
    for j in range(1, j_max + 1):
        rows[j] = rows[j - 1] * kmag
    return rows


def _rho_table(trajectory: Trajectory, params: WeightParams) -> np.ndarray:
    """rho(t, k) at every snapshot time and mode, shape (S, K+1); it does not depend on N."""
    return rho_weight(trajectory.times[:, None], trajectory.modes, params)


def derivative_energies(
    trajectory: Trajectory,
    params: WeightParams,
    j_max: int,
    *,
    _tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays ([E_j], [M_j]) for j = 0..j_max at every snapshot, shape (S, j_max+1) each.

    E_j = sum_k e^rho |k|^j |V_k| (the state of the j-th spatial derivative
    carries the extra (ik)^j) and M_j = sum_k |k|^j |V_k|, both over -K..K.
    Every row is summed on its own, so each value has the bits of
    ``_guarded_sum`` and of a 1-D sum of that row.  Consecutive rows with the
    same positive mask share one exp(rho[mask]); that is every j >= 1, since
    |k|^j >= 1 wherever k != 0.  ``_tables`` holds (v_norms, rho) when the
    caller has them.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    # norms first: their temporaries are the largest arrays here, and are freed before the tables
    v_norms, rho_table = _tables or (trajectory.v_norms(), _rho_table(trajectory, params))
    weights = _weight_rows(trajectory.K, j_max)
    e_j = np.empty((len(trajectory), j_max + 1))
    m_j = np.empty_like(e_j)
    for rho, norms, e, mo in zip(rho_table, v_norms, e_j, m_j):
        terms = weights * norms
        mo[:] = terms.sum(axis=1)
        positive = terms > 0.0
        cuts = np.flatnonzero((positive[1:] != positive[:-1]).any(axis=1)) + 1
        bounds = [0, *cuts.tolist(), len(terms)]
        for lo, hi in zip(bounds, bounds[1:]):
            mask = positive[lo]
            lf = rho[mask]
            if lf.size and float(lf.max()) <= 700.0:
                # compress keeps the rows C-contiguous, so each is summed like a 1-D array
                e[lo:hi] = (terms[lo:hi].compress(mask, axis=1) * np.exp(lf)).sum(axis=1)
            else:  # nothing to sum, or the log-domain path
                e[lo:hi] = [_guarded_sum(rho, row) for row in terms[lo:hi]]
    return e_j, m_j


def initial_weighted_moments(
    v0_norms: np.ndarray,
    params: WeightParams,
    j_max: int,
) -> np.ndarray:
    """A_j = sum_k |k|^j <k>^N |V_k(0)| over -K..K for j = 0..j_max; v0_norms holds k = 0..K."""
    K = v0_norms.size - 1
    loss = bracket(np.arange(K + 1)) ** params.loss_exponent
    return (_weight_rows(K, j_max) * loss * v0_norms).sum(axis=1)


def _factorials(j_max: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(j_max + 1)], dtype=float)


def _series_with_tail(coeffs: np.ndarray, r: float, fact: np.ndarray) -> tuple[float, float]:
    """sum_j coeffs[j] r^j / j! and the last-term/total truncation ratio.

    A power r^j that is zero drops its term, even where the coefficient
    overflowed (inf * 0).  A sum that is not finite has overflowed, and its
    tail is reported as inf: the truncation is not controlled there.
    """
    powers = np.power(r, np.arange(coeffs.size, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = coeffs * powers / fact
    terms[powers == 0.0] = 0.0
    total = float(terms.sum())
    if not math.isfinite(total):
        return total, math.inf
    tail = float(abs(terms[-1]) / total) if total > 0.0 else 0.0
    return total, tail


def _sequence_power_rows(b: np.ndarray, nu: int) -> np.ndarray:
    """Row-wise nu-fold sequence convolution truncated to the input length."""
    length = b.shape[-1]
    if nu == 1:
        return b.copy()
    out = np.empty_like(b)
    for i in range(b.shape[0]):
        acc = b[i]
        for _ in range(nu - 1):
            acc = np.convolve(acc, b[i])[:length]
        out[i] = acc
    return out


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    out = np.zeros_like(y)
    if y.shape[0] > 1:
        dx = np.diff(x)
        panels = 0.5 * (y[1:] + y[:-1]) * dx.reshape(-1, *([1] * (y.ndim - 1)))
        out[1:] = np.cumsum(panels, axis=0)
    return out


@dataclass
class SuperEnergyReport:
    """Generating-function energies over time with truncation audit."""

    times: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray
    alpha: np.ndarray  # (S, j_max+1) majorant coefficients
    f_tail: np.ndarray
    g_tail: np.ndarray
    diverging: bool


def super_energies(
    times: np.ndarray,
    e_series: np.ndarray,
    initial_moments: np.ndarray,
    r_schedule: np.ndarray,
    nu: int,
) -> SuperEnergyReport:
    """F(t) = sum_j E_j r^j/j! and G(t) = sum_j alpha_j r^j/j!.

    alpha_j(t) = A_j + j! * int_0^t c_j(s) ds with c the nu-fold convolution
    of the sequence (E_j/j!)_j over compositions h_1+...+h_nu = j (empty for
    nu = 0, identity for nu = 1); integrals by trapezoid on the recorded
    samples.  The tail ratio (last term over partial sum) is reported per
    time; exceeding ``TAIL_THRESHOLD`` anywhere sets the divergence flag.
    """
    times = np.asarray(times, dtype=float)
    e_series = np.asarray(e_series, dtype=float)
    r_schedule = np.asarray(r_schedule, dtype=float)
    S, width = e_series.shape
    fact = _factorials(width - 1)
    if nu == 0:
        c = np.zeros_like(e_series)
    else:
        c = _sequence_power_rows(e_series / fact, nu)
    alpha = initial_moments[None, :] + fact[None, :] * _cumtrapz(c, times)
    f_values = np.empty(S)
    g_values = np.empty(S)
    f_tail = np.empty(S)
    g_tail = np.empty(S)
    for i in range(S):
        f_values[i], f_tail[i] = _series_with_tail(e_series[i], r_schedule[i], fact)
        g_values[i], g_tail[i] = _series_with_tail(alpha[i], r_schedule[i], fact)
    diverging = bool((f_tail > TAIL_THRESHOLD).any() or (g_tail > TAIL_THRESHOLD).any())
    return SuperEnergyReport(
        times=times,
        f_values=f_values,
        g_values=g_values,
        alpha=alpha,
        f_tail=f_tail,
        g_tail=g_tail,
        diverging=diverging,
    )


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
    l_const: float,
    cm_power: float,
) -> ContinuationReport:
    """Locate the first time G(t) is not below L (pass iff none) and audit the sharp bound.

    A NaN in G or L is not below, so it counts as a crossing: the argument
    needs G(t) < L to be shown.  The sharp interior bound is
    G(t) <= G(0) + cm_power * t pointwise, allowed a 1e-9 relative
    tolerance; cm_power is (C M)^nu from the ledger.  At t = 0 the bound is
    G(0), also when cm_power overflowed, and a G that is inf where the bound
    is inf has no excess there.  A start already at or above L is reported
    as degenerate.
    """
    times = np.asarray(times, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    g0 = float(g_values[0])
    crossing = ~(g_values < l_const)
    first = float(times[int(np.argmax(crossing))]) if crossing.any() else None
    degenerate = bool(crossing[0])
    with np.errstate(invalid="ignore"):
        sharp_bound = np.where(times == 0.0, g0, g0 + cm_power * times)
        gap = np.where(g_values == sharp_bound, 0.0, g_values - sharp_bound)
    excess = float(gap.max())
    scale = max(1.0, abs(g0), float(np.abs(g_values).max()))
    return ContinuationReport(
        passed=not crossing.any(),
        first_crossing=first,
        degenerate_at_start=degenerate,
        l_const=l_const,
        g0=g0,
        g_max=float(g_values.max()),
        sharp_passed=bool(excess <= 1e-9 * scale),
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
    c_target: float = 10.0,
    *,
    _tables: tuple[np.ndarray, np.ndarray] | None = None,
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
    v_norms, rho = _tables or (trajectory.v_norms(), _rho_table(trajectory, params))
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


def energy_inequality_check(
    trajectory: Trajectory,
    problem: CoefficientSpec,
    params: WeightParams,
    slack: float = 0.05,
) -> EnergyInequalityReport:
    """Check d/dt sqrt(E*) <= C0((T-t)^-1 + 1) sqrt(E*) + C0 |F_k| along the run.

    E*(t, k) is the quasi-symmetrizer energy at epsilon = <k>^-1 built from
    the roots at each snapshot time.  The derivative is a centered difference
    at interior snapshot times; the verdict allows the configured relative
    slack.  Modes where both sides vanish are skipped.  The inequality at
    mode -k is the one at k, so the modes 0..K are evaluated and ``checked``
    counts the (t, k) points of -K..K.
    """
    times = trajectory.times
    if times.size < 3:
        raise ValueError("need at least three snapshots for interior differences")
    v = trajectory.v_series()
    f_mags = np.abs(trajectory.forcings)
    e_star = np.empty(f_mags.shape)
    for i in range(times.size):
        roots = characteristic_roots(problem.coefficients_at(float(times[i])))
        qs = build_quasi_symmetrizer(roots)
        for kk, row in enumerate(v[i]):
            val = np.einsum("j,jl,l->", row.conj(), qs.assemble(1.0 / (1.0 + kk)), row).real
            e_star[i, kk] = max(val, 0.0)
    s_vals = np.sqrt(e_star)
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
    m_j: np.ndarray  # (S, j_max+1)
    f_values: np.ndarray
    g_values: np.ndarray
    f_tail: np.ndarray
    g_tail: np.ndarray
    r_values: np.ndarray
    a_moments: np.ndarray
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
    eta: float
    phi_l: float
    diverging: bool
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
            "eta": self.eta,
            "phi_L": self.phi_l,
            "nu": self.nu,
            "J_max": self.j_max,
            "diverging": self.diverging,
            "tail_ratio_t0": {"F": float(self.f_tail[0]), "G": float(self.g_tail[0])},
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
    c0: float | None = None,
    n_exponent: int | None = None,
    c_const: float | None = None,
    c_target: float = 10.0,
    j_max: int = 24,
    r0: float = 0.25,
    eta: float = 1.0,
) -> EnergyLedger:
    """Assemble the full ledger for a recorded trajectory.

    Auto-resolved constants: C0 from the coefficient spectral norm, N from
    the master-estimate scan against ``c_target`` (fallback m+1), C from the
    measured sup ratio at the chosen N.  The effective initial radius is
    eta * r0.  The continuation verdict fails whenever C, M or L is not
    finite: the argument needs them as numbers, and with nu = 0 the power
    (C M)^0 = 1 would keep L finite past an overflowed C or M.
    """
    m = trajectory.order
    T = problem.horizon
    if c0 is None:
        c0 = default_c0(problem)
    # rho does not depend on N: one norm and one rho table serve every pass below
    v_norms = trajectory.v_norms()
    tables = (v_norms, _rho_table(trajectory, WeightParams(c0=c0, horizon=T, loss_exponent=0)))
    master = None
    if n_exponent is None:
        trial = WeightParams(c0=c0, horizon=T, loss_exponent=m + 1)
        master = master_estimate_check(trajectory, trial, c_target, _tables=tables)
        n_exponent = master.fitted_n if master.fitted_n is not None else m + 1
    if n_exponent > j_max:
        raise ValueError(f"loss exponent N={n_exponent} exceeds J_max={j_max}")
    params = WeightParams(c0=c0, horizon=T, loss_exponent=n_exponent)
    if master is None or master.n_used != n_exponent:
        master = master_estimate_check(trajectory, params, c_target, _tables=tables)
    if c_const is None:
        c_const = master.ratio

    e_j, m_j = derivative_energies(trajectory, params, j_max, _tables=tables)
    m0 = float(e_j[:, 0].max())
    k_caps = m_j.max(axis=0)
    m_const = float(k_caps[n_exponent] + m0)

    a_moments = initial_weighted_moments(v_norms[0], params, j_max)
    fact = _factorials(j_max)
    r0_eff = eta * r0
    g0, _ = _series_with_tail(a_moments, r0_eff, fact)
    nu = trajectory.nu
    cm_power = (c_const * m_const) ** nu
    l_const = g0 + cm_power * T
    phi_l = phi_growth(c_const, m_const, l_const, nu)
    r_values = radius_schedule(r0_eff, l_const, m_const, c_const, nu, trajectory.times)
    super_report = super_energies(trajectory.times, e_j, a_moments, r_values, nu)
    continuation = continuation_check(
        trajectory.times, super_report.g_values, l_const, cm_power
    )
    if not all(map(math.isfinite, (c_const, m_const, l_const))):
        continuation.passed = False
    return EnergyLedger(
        times=trajectory.times,
        e_j=e_j,
        m_j=m_j,
        f_values=super_report.f_values,
        g_values=super_report.g_values,
        f_tail=super_report.f_tail,
        g_tail=super_report.g_tail,
        r_values=r_values,
        a_moments=a_moments,
        j_max=j_max,
        nu=nu,
        c0=c0,
        n_exponent=n_exponent,
        c_const=c_const,
        m0=m0,
        k_caps=k_caps,
        m_const=m_const,
        l_const=l_const,
        r0=r0_eff,
        eta=eta,
        phi_l=phi_l,
        diverging=super_report.diverging,
        master=master,
        continuation=continuation,
    )
