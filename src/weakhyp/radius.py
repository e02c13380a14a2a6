"""Radius estimation from spectral decay and from moment growth.

Analyticity in a strip of half-width r shows up on the Fourier side as
|u_k| ~ C e^(-r|k|); Gevrey-s regularity as e^(-r|k|^(1/s)).  fit_decay
reads r off a band of the half spectrum k >= 0 by least squares.  The dual
estimate fit_moment_radius reads 1/Lambda off the factorial growth
M_j ~ C Lambda^j j! of spectral moments via the ratio test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "resolved_band",
    "RadiusEstimate",
    "InsufficientBandError",
    "fit_decay",
    "MomentRadiusEstimate",
    "ZeroMomentError",
    "fit_moment_radius",
]


# a value at most this multiple of its peak sits on the round-off plateau
PLATEAU_FLOOR = 1e-13


def resolved_band(chains: np.ndarray) -> np.ndarray:
    """band_hi per snapshot of chains (..., K+1, m): 1 + the last mode above the plateau.

    Mode k is above when some |u_k^(c)| of its chain exceeds PLATEAU_FLOOR times
    the snapshot's largest chain entry, so data at rest in u keep the modes of
    u_t.  Not each column's own peak: a small u_t inherits its round-off from u.
    The last mode above ends the band, so cos(2x) (u_1 = 0) keeps k = 2;
    band_hi = K + 1 says the plateau was not reached, 0 that the snapshot is zero.
    """
    mags = np.abs(chains)
    above = (mags > PLATEAU_FLOOR * mags.max(axis=(-2, -1), keepdims=True)).any(axis=-1)
    return np.where(above.any(axis=-1), above.shape[-1] - np.argmax(above[..., ::-1], axis=-1), 0)


class InsufficientBandError(RuntimeError):
    """Fewer usable modes above the floor than the fit requires."""


class ZeroMomentError(RuntimeError):
    """A moment inside the ratio window vanishes."""


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted decay rate r_hat with the band and residual behind it."""

    r_hat: float
    prefactor: float
    band_lo: int
    band_hi: int
    n_modes: int  # modes k >= 2 in the band; each stands for k and -k
    residual: float
    s: float


def fit_decay(
    u_hat: np.ndarray,
    s: float = 1.0,
    floor: float | None = None,
) -> RadiusEstimate:
    """Least-squares fit ln|u_k| ~ ln C - r k^(1/s) over the usable band.

    ``u_hat`` holds modes k = 0..K of a real solution; the modes -k carry the
    same magnitudes, so fitting them too would only double every normal
    equation.  The band keeps k >= 2 (the low modes only carry prefactor
    information) and |u_k| > floor, where the floor defaults to PLATEAU_FLOOR
    times the spectral peak to cut the round-off plateau.  Fewer than 4 surviving
    modes raise InsufficientBandError.  The residual is the RMS misfit of the
    linear model in log space.
    """
    if s <= 0:
        raise ValueError("Gevrey order s must be positive")
    mags = np.abs(u_hat)
    peak = float(mags.max())
    if floor is None:
        floor = PLATEAU_FLOOR * peak
    modes = np.arange(mags.size)
    keep = (modes >= 2) & (mags > floor)
    n = int(keep.sum())
    if n < 4:
        raise InsufficientBandError(
            f"only {n} modes above floor {floor:.3g} with k >= 2; need at least 4"
        )
    band = modes[keep]
    x = band.astype(float) ** (1.0 / s)
    y = np.log(mags[keep])
    design = np.column_stack([np.ones_like(x), -x])
    (log_c, r), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([log_c, r])
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RadiusEstimate(
        r_hat=float(r),
        prefactor=float(np.exp(log_c)),
        band_lo=int(band.min()),
        band_hi=int(band.max()),
        n_modes=n,
        residual=residual,
        s=s,
    )


@dataclass(frozen=True)
class MomentRadiusEstimate:
    """Ratio-test radius from factorial moment growth."""

    r_hat: float
    ratios: tuple[float, ...]
    j_lo: int
    j_hi: int
    non_factorial: bool


def fit_moment_radius(
    moments: np.ndarray,
    j_lo: int,
    j_hi: int,
) -> MomentRadiusEstimate:
    """Median of (j+1) M_j / M_{j+1} over j in [j_lo, j_hi].

    For M_j ~ C Lambda^j j! every ratio equals 1/Lambda, the strip half-width.
    The window must contain at least 4 ratios; a vanishing moment inside it
    raises ZeroMomentError.  A ratio spread above 1.5x flags non-factorial
    growth (e.g. a single-mode spectrum, whose ratios grow like j+1).
    """
    moments = np.asarray(moments, dtype=float)
    if not 0 <= j_lo < j_hi:
        raise ValueError("need 0 <= j_lo < j_hi")
    if j_hi + 1 >= moments.size:
        raise ValueError("window needs M_{j_hi+1}: increase len(moments) or shrink j_hi")
    if j_hi - j_lo + 1 < 4:
        raise ValueError("ratio window must contain at least 4 entries")
    window = moments[j_lo : j_hi + 2]
    if (window == 0.0).any():
        raise ZeroMomentError(f"zero moment inside window [{j_lo}, {j_hi + 1}]")
    js = np.arange(j_lo, j_hi + 1, dtype=float)
    ratios = (js + 1.0) * moments[j_lo : j_hi + 1] / moments[j_lo + 1 : j_hi + 2]
    spread = float(ratios.max() / ratios.min()) if ratios.min() > 0 else float("inf")
    return MomentRadiusEstimate(
        r_hat=float(np.median(ratios)),
        ratios=tuple(float(v) for v in ratios),
        j_lo=j_lo,
        j_hi=j_hi,
        non_factorial=bool(spread > 1.5),
    )
