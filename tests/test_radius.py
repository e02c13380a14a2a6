"""Radius estimators against spectra with known decay laws.

Poisson-kernel spectra |u_k| = a^|k| are exactly log-linear, so the
least-squares fit must recover r = -ln a to floating-point accuracy,
and factorial moments M_j = j! L^j must give the ratio test 1/L exactly.
Spectra hold the modes k = 0..K of a real solution.
"""

import math

import numpy as np
import pytest

from weakhyp import (
    InsufficientBandError,
    ZeroMomentError,
    fit_decay,
    fit_moment_radius,
)
from weakhyp.radius import resolved_band


def poisson_spectrum(K: int, a: float = 0.5) -> np.ndarray:
    return a ** np.arange(K + 1)


def test_resolved_band_reads_every_chain_column_against_the_snapshot_peak():
    chains = np.zeros((4, 9, 2), dtype=complex)  # snapshots of the chains (u_k, u_k') of modes 0..8
    chains[0, 1, 0], chains[0, 5, 1] = 0.005, 0.5  # a small u beside a large u_t: k = 5 counts
    chains[1, :, 1] = poisson_spectrum(8)  # at rest in u; 2^-8 is far above the floor
    chains[2, 2, 0], chains[2, :, 1] = 1.0, 1e-15  # a u_t of round-off size next to u: not above
    # snapshot 3 is zero, so its band is empty
    assert resolved_band(chains).tolist() == [6, 9, 3, 0]
    assert resolved_band(chains[0]) == 6
    # each column against its own peak would take the whole u_t of snapshot 2
    own = [int(resolved_band(chains[2, :, c : c + 1])) for c in range(2)]
    assert own == [3, 9]


def test_fit_decay_poisson_exact():
    est = fit_decay(poisson_spectrum(128))
    assert est.r_hat == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.prefactor == pytest.approx(1.0, abs=1e-10)
    assert est.residual < 1e-12
    assert est.s == 1.0
    # default floor 1e-13 * peak: 0.5^43 = 1.14e-13 survives, 0.5^44 does not
    assert est.band_lo == 2
    assert est.band_hi == 43
    assert est.n_modes == 42


def test_fit_decay_gevrey_two():
    modes = np.arange(129)
    u = np.exp(-0.7 * modes**0.5)
    est = fit_decay(u, s=2.0)
    assert est.r_hat == pytest.approx(0.7, abs=1e-12)
    assert est.band_hi == 128
    assert est.s == 2.0


def test_fit_decay_floor_override_narrows_band():
    est = fit_decay(poisson_spectrum(128), floor=0.5**10)
    assert est.band_hi == 9
    assert est.n_modes == 8
    assert est.r_hat == pytest.approx(math.log(2.0), abs=1e-12)


def test_fit_decay_noisy_spectrum_reports_misfit():
    rng = np.random.default_rng(41)
    u = poisson_spectrum(64) * np.exp(0.05 * rng.standard_normal(65))
    est = fit_decay(u)
    assert est.r_hat == pytest.approx(math.log(2.0), rel=0.05)
    assert est.residual > 1e-3


def test_fit_decay_band_too_small():
    with pytest.raises(InsufficientBandError, match="need at least 4"):
        fit_decay(poisson_spectrum(3))  # only k in {2, 3}
    with pytest.raises(InsufficientBandError, match="only 3 modes"):
        fit_decay(poisson_spectrum(4))  # k in {2, 3, 4}: 6 modes counted on both sides, below 8
    assert fit_decay(poisson_spectrum(5)).n_modes == 4


def test_fit_decay_takes_a_half_spectrum_of_any_length():
    # k = 0..K has K+1 entries, even or odd
    for K in (5, 6):
        est = fit_decay(poisson_spectrum(K))
        assert (est.band_lo, est.band_hi, est.n_modes) == (2, K, K - 1)
        assert est.r_hat == pytest.approx(math.log(2.0), abs=1e-12)


U = 2.0**-53  # unit roundoff


def full_band_fit(u_half: np.ndarray, s: float = 1.0):
    """The fit on modes -K..K as it was: both halves of the band, the same floor and cut."""
    mags = np.abs(np.concatenate([u_half[:0:-1].conj(), u_half]))
    K = u_half.size - 1
    modes = np.arange(-K, K + 1)
    keep = (np.abs(modes) >= 2) & (mags > 1e-13 * mags.max())
    x = np.abs(modes[keep]).astype(float) ** (1.0 / s)
    y = np.log(mags[keep])
    design = np.column_stack([np.ones_like(x), -x])
    (log_c, r), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((y - design @ np.array([log_c, r])) ** 2)))
    band = np.abs(modes[keep])
    return log_c, r, residual, int(band.min()), int(band.max()), design, y


def decay_cases():
    rng = np.random.default_rng(7)
    yield poisson_spectrum(128), 1.0
    yield poisson_spectrum(64) * np.exp(0.05 * rng.standard_normal(65)), 1.0
    yield np.exp(-0.7 * np.arange(129) ** 0.5), 2.0
    for K in (16, 33, 64):
        phase = np.exp(2j * np.pi * rng.random(K + 1))
        phase[0] = 1.0
        yield 0.3 * np.exp(-0.4 * np.arange(K + 1)) * (1 + 0.2 * rng.standard_normal(K + 1)) * phase, 1.0


@pytest.mark.parametrize("case", range(6))
def test_fit_decay_matches_the_full_band_fit_within_rounding(case):
    u, s = list(decay_cases())[case]
    est = fit_decay(u, s=s)
    log_c, r, residual, band_lo, band_hi, design, y = full_band_fit(u, s)
    assert (est.band_lo, est.band_hi) == (band_lo, band_hi)
    assert 2 * est.n_modes == y.size
    # The half band's normal equations are the full band's divided by 2, so
    # both fits solve the same least-squares problem.  Each lstsq solution x
    # is backward stable: within rows * 2 * 8 u (Higham, Accuracy and
    # Stability, ch. 20) of the data, which moves x by at most that times
    # kappa (2 + (kappa + 1) |res| / (|A| |x|)) |x|, once per side.
    x = np.array([log_c, r])
    res = y - design @ x
    norm_a = np.linalg.norm(design, 2)
    kappa = np.linalg.cond(design)
    rows = y.size
    coeff_bound = 2 * (rows * 16 * U) * kappa * (2 + (kappa + 1) * np.linalg.norm(res) / (norm_a * np.linalg.norm(x)))
    coeff_bound *= np.linalg.norm(x)
    assert abs(est.r_hat - r) <= coeff_bound
    assert abs(est.prefactor / np.exp(log_c) - 1.0) <= np.expm1(coeff_bound) + 4 * U  # exp within 2 ulp
    # the residual is the RMS of y - A x over the band: it moves by at most the
    # RMS of A dx, plus the rounding of each y - A x, a few ulp of max |y|
    dx = np.array([np.log(est.prefactor), est.r_hat]) - x
    res_bound = np.linalg.norm(design @ dx) / np.sqrt(rows) + 8 * U * np.abs(y).max()
    assert abs(est.residual - residual) <= res_bound


def test_fit_decay_rejects_bad_order():
    with pytest.raises(ValueError, match="positive"):
        fit_decay(poisson_spectrum(32), s=0.0)


def test_moment_radius_factorial_exact():
    j = np.arange(13)
    moments = np.array([math.factorial(n) for n in j]) * 2.0**j
    est = fit_moment_radius(moments, j_lo=0, j_hi=8)
    assert est.r_hat == pytest.approx(0.5, abs=1e-14)
    assert not est.non_factorial
    assert est.ratios == pytest.approx([0.5] * 9)
    assert (est.j_lo, est.j_hi) == (0, 8)


def test_moment_radius_single_mode_flagged():
    # one mode at k = 5: M_j = 5^j, ratios grow like (j+1)/5
    moments = 5.0 ** np.arange(10)
    est = fit_moment_radius(moments, j_lo=0, j_hi=7)
    assert est.non_factorial
    assert est.ratios[0] == pytest.approx(0.2)
    assert est.ratios[-1] == pytest.approx(1.6)
    assert est.r_hat == pytest.approx(0.9)


def test_moment_radius_zero_inside_window():
    moments = np.array([1.0, 2.0, 0.0, 6.0, 24.0, 120.0, 720.0])
    with pytest.raises(ZeroMomentError):
        fit_moment_radius(moments, j_lo=0, j_hi=4)


def test_moment_radius_window_validation():
    moments = np.ones(10)
    with pytest.raises(ValueError, match="j_lo < j_hi"):
        fit_moment_radius(moments, j_lo=3, j_hi=3)
    with pytest.raises(ValueError, match="at least 4"):
        fit_moment_radius(moments, j_lo=0, j_hi=2)
    with pytest.raises(ValueError, match="increase len"):
        fit_moment_radius(moments, j_lo=0, j_hi=9)
