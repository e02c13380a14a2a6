"""Characteristic roots, hyperbolicity and the root-separation condition.

The characteristic polynomial at time t is

    lam^m + a_1(t) lam^(m-1) + ... + a_m(t) = 0.

Weak hyperbolicity means all roots are real (coincidences allowed).  The
separation condition bounds, over all pairs of distinct indices,

    (lam_i^2 + lam_j^2) / (lam_i - lam_j)^2

which tolerates roots that coincide at zero but not elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equation import CoefficientSpec

__all__ = [
    "NonHyperbolicError",
    "UnsupportedOrderError",
    "DiamReport",
    "DiscriminantResult",
    "characteristic_roots",
    "diam_ratio",
    "check_diam",
    "discriminant_check",
]


class NonHyperbolicError(ValueError):
    """A characteristic root has an imaginary part above tolerance.

    ``index`` is the first offending row of a coefficient table (0 for a
    single row); ``t`` is its time when the caller knows it.
    """

    def __init__(self, max_imag: float, tol: float, t: float | None = None, index: int = 0):
        at = "" if t is None else f" at t = {t!r}"
        super().__init__(
            f"non-real characteristic root{at}: |Im| = {max_imag:.3e} exceeds tol = {tol:.3e}"
        )
        self.max_imag = max_imag
        self.tol = tol
        self.t = t
        self.index = index


class UnsupportedOrderError(ValueError):
    """Discriminant reformulations are implemented for m = 2 and m = 3 only."""


def characteristic_roots(coeffs: np.ndarray, times: np.ndarray | None = None) -> np.ndarray:
    """Real roots of lam^m + a_1 lam^(m-1) + ... + a_m, sorted ascending.

    ``coeffs`` is one row (a_1, ..., a_m) or a table of rows, shape (n, m);
    the result has the same shape.  Roots are the eigenvalues of the
    companion matrix ``np.roots`` builds, one batched eigensolve per group of
    rows of equal degree: trailing coefficients that are exactly zero give
    exact zero roots, as in ``np.roots``, so each row's roots are bit for
    bit those of ``np.roots``.  If a root has |Im| above the row's
    tolerance 1e-8 * (1 + max |a_h|), the polynomial is not (weakly)
    hyperbolic and :class:`NonHyperbolicError` is raised for the first such
    row, naming its time when ``times`` gives the time of each row.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise ValueError("coefficients must be a non-empty row or a table of rows")
    rows = np.atleast_2d(a)
    n, m = rows.shape
    tols = 1e-8 * (1.0 + np.abs(rows).max(axis=1, initial=0.0))
    nonzero = rows != 0.0
    degree = np.where(nonzero.any(axis=1), m - np.argmax(nonzero[:, ::-1], axis=1), 0)
    re = np.zeros((n, m))
    im = np.zeros((n, m))
    for d in np.unique(degree[degree > 0]).tolist():
        sel = np.flatnonzero(degree == d)
        mats = np.zeros((sel.size, d, d))
        sub = np.arange(d - 1)
        mats[:, sub + 1, sub] = 1.0
        mats[:, 0, :] = -rows[sel, :d]
        eigs = np.linalg.eigvals(mats)
        re[sel, :d] = eigs.real
        im[sel, :d] = eigs.imag
    max_imag = np.abs(im).max(axis=1)
    bad = np.flatnonzero(max_imag > tols)
    if bad.size:
        i = int(bad[0])
        t = None if times is None else float(times[i])
        raise NonHyperbolicError(float(max_imag[i]), float(tols[i]), t=t, index=i)
    return np.sort(re, axis=1).reshape(a.shape)


def diam_ratio(roots: np.ndarray) -> float | np.ndarray:
    """Largest pairwise separation ratio; conventions for coinciding pairs.

    ``roots`` is one set of roots or a table of sets, shape (n, m); a table
    gives one ratio per row.  A pair coinciding at zero contributes 0; a
    coinciding nonzero pair makes the ratio infinite.
    """
    r = np.asarray(roots, dtype=float)
    rows = np.atleast_2d(r)
    best = np.zeros(rows.shape[0])
    for i, j in itertools.combinations(range(rows.shape[1]), 2):
        lo, hi = rows[:, i], rows[:, j]
        num = lo * lo + hi * hi
        gap = lo - hi
        den = gap * gap
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den == 0.0, np.where(num == 0.0, 0.0, np.inf), num / den)
        best = np.maximum(best, ratio)
    return best if r.ndim == 2 else float(best[0])


@dataclass
class DiamReport:
    """Separation-condition verdict on a time grid."""

    grid: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    satisfied: bool
    failure_times: np.ndarray

    def to_dict(self) -> dict:
        return {
            "grid": self.grid,
            "M": self.ratios,
            "M_sup": float(self.sup_ratio),
            "satisfied": bool(self.satisfied),
            "failure_times": self.failure_times,
        }


def check_diam(spec: CoefficientSpec, grid: Sequence[float]) -> DiamReport:
    """Evaluate the separation ratio along a time grid.

    The grid must lie inside [0, T].  The coefficients are evaluated on the
    whole grid at once and the roots extracted in one batch.
    Non-hyperbolicity at any grid time propagates as
    :class:`NonHyperbolicError` with the first offending time.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or grid.min() < 0.0 or grid.max() > spec.horizon:
        raise ValueError("grid must be non-empty and contained in [0, T]")
    roots = characteristic_roots(spec.coefficient_table(grid), times=grid)
    ratios = diam_ratio(roots)
    finite = np.isfinite(ratios)
    sup_ratio = float(ratios.max()) if finite.all() else float("inf")
    return DiamReport(
        grid=grid,
        ratios=ratios,
        sup_ratio=sup_ratio,
        satisfied=bool(finite.all()),
        failure_times=grid[~finite],
    )


@dataclass(frozen=True)
class DiscriminantResult:
    """Discriminant and the order-specific right-hand side, per time.

    The fields are floats for one coefficient row and arrays of shape (n,)
    for a table of rows.
    """

    order: int
    delta: float | np.ndarray
    rhs: float | np.ndarray
    ratio: float | np.ndarray

    def holds(self, c: float) -> bool | np.ndarray:
        ok = (np.asarray(self.delta) >= 0.0) & (np.asarray(self.ratio) >= c)
        return bool(ok) if ok.ndim == 0 else ok


def discriminant_check(coeffs: np.ndarray) -> DiscriminantResult:
    """Discriminant-based separation check for m = 2 and m = 3.

    m = 2:  delta = a1^2 - 4 a2,            rhs = a1^2
    m = 3:  delta = -4 a2^3 - 27 a3^2 + a1^2 a2^2 - 4 a1^3 a3 + 18 a1 a2 a3,
            rhs = (a1 a2 - 9 a3)^2

    ``coeffs`` is one row (a_1, ..., a_m) or a table of rows, shape (n, m),
    evaluated row by row; powers are products, so every value is exact
    IEEE arithmetic independent of the platform's ``pow``.  In both cases
    delta equals the product of squared root differences.  The ratio is
    delta/rhs with the conventions: rhs = 0 with delta > 0 gives +inf, both
    zero gives 1, rhs = 0 with delta < 0 gives -inf.
    """
    a = np.asarray(coeffs, dtype=float)
    m = a.shape[-1] if a.ndim else 0
    if m == 2:
        a1, a2 = np.moveaxis(a, -1, 0)
        delta = a1 * a1 - 4.0 * a2
        rhs = a1 * a1
    elif m == 3:
        a1, a2, a3 = np.moveaxis(a, -1, 0)
        s1, s2 = a1 * a1, a2 * a2
        delta = (
            -4.0 * (s2 * a2)
            - 27.0 * (a3 * a3)
            + s1 * s2
            - 4.0 * (s1 * a1) * a3
            + 18.0 * a1 * a2 * a3
        )
        lin = a1 * a2 - 9.0 * a3
        rhs = lin * lin
    else:
        raise UnsupportedOrderError(f"discriminant check supports m in {{2, 3}}, got m = {m}")
    with np.errstate(divide="ignore", invalid="ignore"):
        signed_inf = np.where(delta > 0.0, np.inf, -np.inf)
        ratio = np.where(rhs == 0.0, np.where(delta == 0.0, 1.0, signed_inf), delta / rhs)
    if a.ndim == 1:
        return DiscriminantResult(order=m, delta=float(delta), rhs=float(rhs), ratio=float(ratio))
    return DiscriminantResult(order=m, delta=delta, rhs=rhs, ratio=ratio)
