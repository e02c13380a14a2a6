"""Weights, energies, super-energies, monitors.

Closed-form oracles with C0 = 1, T = 1 (bracket <xi> = 1 + |xi|):

    rho(0, 1)  = 2                 (Kovalewskian branch throughout)
    rho(0, e)  = 3                 (hyperbolic stretch + tail)
    rho(0, k)  = ln k + 2          (k > 1)

Trajectories hold the modes k = 0..K of a real solution; every sum over
-K..K counts mode k >= 1 twice.  The full-layout references below rebuild
the modes -K..-1 with ``mirror``.
"""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import series_reference
from bessel_oracle import exact_mode_derivatives, exact_modes
from scipy.integrate import quad

from weakhyp import energy
from weakhyp.energy import (
    WeightParams,
    bracket,
    build_energy_ledger,
    continuation_check,
    default_c0,
    derivative_energies,
    initial_majorant,
    energy_inequality_check,
    master_estimate_check,
    phi_growth,
    phi_weight,
    radius_schedule,
    rho_weight,
    super_energies,
)
from weakhyp.config import load_config
from weakhyp.equation import CoefficientSpec
from weakhyp.quasisym import build_quasi_symmetrizer
from weakhyp.radius import resolved_band
from weakhyp.spectral import Trajectory, companion_stack, simulate
from weakhyp.symbol import NonHyperbolicError, characteristic_roots

UNIT = WeightParams(c0=1.0, horizon=1.0, loss_exponent=1)
U = 2.0**-53  # unit roundoff
ETA = 2.0**-1074  # the absolute error of one operation whose result is subnormal


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of an n-term sum."""
    return n * U / (1.0 - n * U)


def mirror(half, axis=-1):
    """The full layout -K..K of a half spectrum along ``axis``: mode -k is conj(mode k)."""
    half = np.moveaxis(half, axis, 0)
    return np.moveaxis(np.concatenate([half[:0:-1].conj(), half]), 0, axis)


def half_chain(K, m, entries):
    """Chain of modes 0..K with chain[k, col] = value for each (k, col, value)."""
    chain = np.zeros((K + 1, m), dtype=complex)
    for k, col, value in entries:
        chain[k, col] = value
    return chain


def one_snapshot(chain, t=0.0):
    """The ``Trajectory`` whose only snapshot is ``chain`` (modes 0..K) at time t."""
    return Trajectory(
        order=chain.shape[1], K=chain.shape[0] - 1, dt=0.1, nu=0, times=np.array([t]),
        chains=chain[None], forcings=np.zeros((1, chain.shape[0]), dtype=complex),
        completed=True,
    )


def full_norms(traj):
    """|V_k| at modes -K..K by the per-column formula on the mirrored chains, shape (S, 2K+1)."""
    chains = mirror(traj.chains, axis=1)
    ik = 1j * np.arange(-traj.K, traj.K + 1)
    m = traj.order
    v = np.stack([ik ** (m - 1 - c) * chains[..., c] for c in range(m)], axis=-1)
    norms = np.linalg.norm(v, axis=2)
    # a finite row whose squares overflow: scaled by its largest entry first, which does not
    over = np.isinf(norms) & np.isfinite(v).all(axis=2)
    mags = np.abs(v[over])
    peak = mags.max(axis=-1)
    norms[over] = peak * np.linalg.norm(mags / peak[:, None], axis=-1)
    return norms


def test_weight_params_validation():
    with pytest.raises(ValueError):
        WeightParams(c0=0.5, horizon=1.0, loss_exponent=1)
    with pytest.raises(ValueError):
        WeightParams(c0=1.0, horizon=0.0, loss_exponent=1)
    with pytest.raises(ValueError):
        WeightParams(c0=1.0, horizon=1.0, loss_exponent=-1)


def test_phi_weight_two_regimes():
    # |xi| below the switch: capped by <xi>; above: hyperbolic growth
    assert phi_weight(0.0, 1.0, UNIT) == 2.0
    assert phi_weight(0.0, 100.0, UNIT) == 2.0
    assert phi_weight(0.9, 100.0, UNIT) == pytest.approx(11.0)
    assert phi_weight(0.99, 5.0, UNIT) == 6.0  # capped by <xi> again near T
    big = WeightParams(c0=3.0, horizon=2.0, loss_exponent=0)
    assert phi_weight(0.0, 10.0, big) == pytest.approx(4.5)


def test_rho_frozen_values():
    assert rho_weight(0.0, 1.0, UNIT) == pytest.approx(2.0, rel=1e-14)
    assert rho_weight(0.0, math.e, UNIT) == pytest.approx(3.0, rel=1e-14)
    for k in (2.0, 7.0, 64.0, 4096.0):
        assert rho_weight(0.0, k, UNIT) == pytest.approx(math.log(k) + 2.0, rel=1e-13)
    assert rho_weight(1.0, 17.0, UNIT) == 0.0
    assert rho_weight(0.25, 0.0, UNIT) == pytest.approx(0.75)


def test_rho_matches_quadrature():
    params = WeightParams(c0=2.0, horizon=1.5, loss_exponent=0)
    for t, xi in [(0.0, 0.5), (0.0, 10.0), (0.3, 40.0), (1.2, 40.0), (0.7, 3.0)]:
        tau = params.horizon - 1.0 / abs(xi) if xi else -1.0
        pts = [tau] if t < tau < params.horizon else []
        val, err = quad(
            lambda s: phi_weight(s, xi, params), t, params.horizon,
            points=pts, limit=200, epsabs=1e-13, epsrel=1e-13,
        )
        assert abs(rho_weight(t, xi, params) - val) <= 1e-10
        assert err < 1e-10


def test_rho_continuous_at_switch():
    params = WeightParams(c0=1.0, horizon=1.0, loss_exponent=0)
    xi = 25.0
    tau = 1.0 - 1.0 / xi
    below = rho_weight(tau - 1e-9, xi, params)
    above = rho_weight(tau + 1e-9, xi, params)
    assert abs(below - above) < 1e-7


def test_rho_vectorized_matches_scalar():
    xs = np.array([0.0, 0.5, 1.0, 3.0, 900.0])
    vec = rho_weight(0.2, xs, UNIT)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(rho_weight(0.2, float(x), UNIT), rel=1e-14)


def scalar_rho_row(t, K, params):
    """rho(t, k) for k = 0..K at one scalar t: the closed form written out for one snapshot."""
    c0, T = params.c0, params.horizon
    ax = np.arange(K + 1, dtype=float)
    out = np.empty_like(ax)
    with np.errstate(divide="ignore"):
        tau = T - 1.0 / ax
    kov = (ax <= 1.0 / T) | (t >= tau)
    out[kov] = c0 * (1.0 + ax[kov]) * (T - t)
    axh = ax[~kov]
    out[~kov] = c0 * (np.log((T - t) * axh) + (tau[~kov] - t)) + c0 * (1.0 + axh) / axh
    return out


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 600),
    S=st.integers(1, 25),
    horizon=st.sampled_from([1.0, 0.5, 3.7, 300.0]),
    c0=st.sampled_from([1.0, 2.5, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rho_table_keeps_the_bits_of_the_per_snapshot_rows(K, S, horizon, c0, seed):
    # one broadcast rho_weight call over (S, K+1) against one call per snapshot
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, horizon, S))
    times[0], times[-1] = 0.0, horizon
    if S > 2:  # a snapshot exactly at the regime switch tau(k) of some mode
        times[1] = horizon - 1.0 / rng.integers(1, K + 1)
    traj = Trajectory(
        order=2, K=K, dt=0.1, nu=0, times=times, chains=np.zeros((S, K + 1, 2), dtype=complex),
        forcings=np.zeros((S, K + 1), dtype=complex), completed=True,
    )
    params = WeightParams(c0=c0, horizon=horizon, loss_exponent=1)
    table = energy._rho_table(traj, params)
    rows = [np.atleast_1d(rho_weight(t, traj.modes, params)) for t in times.tolist()]
    assert_same_bits(table, np.stack(rows))
    assert_same_bits(table, np.stack([scalar_rho_row(t, K, params) for t in times.tolist()]))


def test_rho_subadditive_sample():
    ks = np.arange(0, 65)
    for t in (0.0, 0.5, 0.9):
        r = rho_weight(t, ks.astype(float), UNIT)
        table = {int(k): v for k, v in zip(ks, r)}
        for k1 in range(0, 33):
            for k2 in range(0, 33):
                assert table[k1 + k2] <= table[k1] + table[k2] + 1e-12


def test_derivative_energies_frozen():
    # |V| = 1/2 at k = +-1 (mode -1 implied): E_0 = 2 * e^rho(0,1) / 2 = e^2
    traj = one_snapshot(half_chain(4, 2, [(1, 0, 0.5)]))
    e, mo = derivative_energies(traj, UNIT, 0)
    assert e.shape == mo.shape == (1, 1)
    assert e[0, 0] == pytest.approx(math.e**2, rel=1e-12)


def reference_moments(traj, params, j_max):
    """E_j and M_j of every snapshot over its resolved band, in 40-digit arithmetic.

    Each term (1, 2, 2, ...)_k |k|^j |V_k| (times e^rho(t, k) for E_j) is
    formed from the library's floats |V_k| and rho(t, k), then summed
    exactly enough that only the final conversion to a double rounds.
    """
    mpmath.mp.dps = 40
    band_hi = resolved_band(traj.chains)
    norms = traj.v_norms()
    rho = energy._rho_table(traj, params)
    e = np.empty((len(traj), j_max + 1))
    mo = np.empty_like(e)
    for i in range(len(traj)):
        terms = [
            (k, mpmath.mpf(1 if k == 0 else 2) * mpmath.mpf(float(norms[i, k])), mpmath.exp(float(rho[i, k])))
            for k in range(int(band_hi[i]))
            if norms[i, k] > 0.0
        ]
        for j in range(j_max + 1):
            live = [(w * mpmath.mpf(k) ** j, g) for k, w, g in terms if k > 0 or j == 0]
            mo[i, j] = float(mpmath.fsum(w for w, _ in live))
            e[i, j] = float(mpmath.fsum(w * g for w, g in live))
    return e, mo


def random_trajectory(K, m, S, horizon, log_amp, zero_frac, all_zero, seed):
    """Random half-spectrum chains with exactly-zero modes and, if asked, an all-zero snapshot."""
    rng = np.random.default_rng(seed)
    shape = (S, K + 1, m)
    chains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0**log_amp
    chains[rng.random(shape) < zero_frac] = 0.0  # exactly-zero modes
    if all_zero:
        chains[0] = 0.0
    return Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.linspace(0.0, 0.9 * horizon, S), chains=chains,
        forcings=np.zeros(shape[:2], dtype=complex), completed=True,
    )


# rho(t, k) exceeds 709 (e^rho overflows) for every mode at T = 300 and
# C0 = 3, for none at T = 1, and from k of about 18 on at T = 225.
GUARD = dict(K=512, m=2, S=1, j_max=2, horizon=300.0, c0=3.0, zero_frac=0.0, all_zero=False, seed=0)


def band_sum_error(n, log_parts):
    """Relative error bound of one ``_band_sum`` of n terms whose log parts are ``log_parts``.

    ``log_parts`` holds, per term, the magnitudes of the logs added to form
    it (rho, j ln k, ln|V|, r k, N ln<k>, ln 2).  With log and exp each within
    2 ulp (2u): ln k and ln|V| are off by 2u of their size, j ln k by a
    further u, and the additions by u of the running sum, so each log term
    is off by at most 6u B, with B the largest sum of magnitudes.  The shift
    by the maximum adds 2u B, each exp 2u, the sum of n terms in [0, n]
    gamma_n, the outer log 2u ln n + gamma_n, the outer addition u (B + ln n)
    and the final exp 2u.  So the sum is within a relative
    delta = 9u B + 2 gamma_n + 3u ln n + 6u of the exact sum of its inputs.
    """
    big = max((float(np.sum(parts)) for parts in log_parts), default=0.0)
    return 9 * U * big + 2 * gamma(n) + 3 * U * math.log(max(n, 1)) + 6 * U


def assert_within(got, want, rel):
    """|got - want| <= rel * want + ETA; a true sum past the float range may read inf on one side."""
    if got == want:  # zero, or inf on both sides
        return
    big = np.finfo(float).max / (1.0 + rel)
    if math.isinf(got) or math.isinf(want):
        assert min(got, want) >= big, (got, want)
        return
    assert math.isfinite(got) and math.isfinite(want), (got, want)
    assert abs(got - want) <= rel * want + ETA, (got, want, abs(got - want), rel)


def moment_error(traj, params, i, j, full=False):
    """``band_sum_error`` of E_j at snapshot i, over the half (n = band) or full (n = 2 band - 1) layout."""
    band = int(resolved_band(traj.chains[i]))
    norms = traj.v_norms()[i, :band]
    rho = energy._rho_table(traj, params)[i, :band]
    k = np.arange(band)
    live = norms > 0.0
    parts = np.column_stack(
        [np.abs(rho), j * np.abs(np.log(np.maximum(k, 1))), np.abs(np.log(np.where(live, norms, 1.0))),
         np.full(band, math.log(2.0))]
    )[live]
    return band_sum_error(2 * band - 1 if full else band, parts)


@settings(max_examples=80, deadline=None)
@given(
    K=st.integers(1, 40),
    m=st.integers(2, 4),
    S=st.integers(1, 3),
    j_max=st.integers(0, 24),
    horizon=st.sampled_from([1.0, 225.0, 300.0]),
    c0=st.sampled_from([1.0, 3.0]),
    log_amp=st.floats(-320.0, 300.0),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    all_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    expect=st.just(None),
)
# e^rho overflows at every mode: tiny amplitudes still give a finite sum,
# order-one amplitudes at the same weights overflow to inf
@example(**GUARD, log_amp=-120.0, expect="finite")
@example(**GUARD, log_amp=0.0, expect="inf")
def test_moment_table_matches_the_per_snapshot_reference(
    K, m, S, j_max, horizon, c0, log_amp, zero_frac, all_zero, seed, expect
):
    # the batched table and each snapshot alone against the 40-digit band sums
    traj = random_trajectory(K, m, S, horizon, log_amp, zero_frac, all_zero, seed)
    params = WeightParams(c0=c0, horizon=horizon, loss_exponent=0)
    with np.errstate(over="ignore", invalid="ignore"):  # squares of the norms past 1e154
        e_j, m_j = derivative_energies(traj, params, j_max)
        want_e, want_m = reference_moments(traj, params, j_max)
        for i in range(S):
            snapshot = one_snapshot(traj.chains[i], traj.times[i])
            alone = derivative_energies(snapshot, params, j_max)
            for got_e, got_m in [(e_j[i], m_j[i]), (alone[0][0], alone[1][0])]:
                for j in range(j_max + 1):
                    rel = moment_error(traj, params, i, j)
                    assert_within(got_e[j], want_e[i, j], rel)
                    assert_within(got_m[j], want_m[i, j], rel)
    if all_zero:
        assert not e_j[0].any() and not m_j[0].any()
    if expect == "finite":
        assert (np.isfinite(e_j) & (e_j > 1e150)).all()
    elif expect == "inf":
        assert (e_j == np.inf).all()


def full_layout_sums(traj, params, j_max, r):
    """E_j, M_j and A(r) = sum <k>^N e^(r|k|) |V_k(0)| over |k| < band_hi in the full layout -K..K.

    The norms of the modes -K..K come from ``full_norms``, and the sums are
    taken in 40-digit arithmetic, each mode -k as a term of its own.
    """
    mpmath.mp.dps = 40
    modes = np.arange(-traj.K, traj.K + 1)
    norms = full_norms(traj)
    band_hi = resolved_band(traj.chains)
    e = np.empty((len(traj), j_max + 1))
    mo = np.empty_like(e)
    for i, t in enumerate(traj.times.tolist()):
        rho = np.atleast_1d(rho_weight(t, modes, params))
        live = [(abs(int(k)), mpmath.mpf(float(v)), mpmath.exp(float(g)))
                for k, v, g in zip(modes, norms[i], rho) if abs(k) < band_hi[i] and v > 0.0]
        for j in range(j_max + 1):
            terms = [(v * mpmath.mpf(k) ** j, g) for k, v, g in live if k > 0 or j == 0]
            mo[i, j] = float(mpmath.fsum(w for w, _ in terms))
            e[i, j] = float(mpmath.fsum(w * g for w, g in terms))
    a = mpmath.fsum(
        mpmath.mpf(1 + abs(int(k))) ** params.loss_exponent * mpmath.exp(r * abs(int(k))) * mpmath.mpf(float(v))
        for k, v in zip(modes, norms[0]) if abs(k) < band_hi[0] and v > 0.0
    )
    return e, mo, float(a)


# |V| by the per-column formula of ``full_norms`` and by ``_v_norms`` differ by
# the rounding of at most three products (ik)^p, m squares, their sum and the sqrt
def norms_error(m):
    return (m + 6) * U


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 40),
    m=st.integers(2, 4),
    S=st.integers(1, 3),
    j_max=st.integers(0, 24),
    n_loss=st.integers(0, 8),
    horizon=st.sampled_from([1.0, 225.0, 300.0]),
    c0=st.sampled_from([1.0, 3.0]),
    log_amp=st.floats(-320.0, 300.0),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    all_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(**GUARD, n_loss=2, log_amp=-120.0)  # e^rho overflows, the sum is finite
@example(**GUARD, n_loss=2, log_amp=0.0)  # inf on both sides
@example(**{**GUARD, "all_zero": True, "S": 2}, n_loss=3, log_amp=-3.0)
def test_half_layout_sums_match_the_full_layout_within_rounding(
    K, m, S, j_max, n_loss, horizon, c0, log_amp, zero_frac, all_zero, seed
):
    # the half layout counts each mode k >= 1 twice; the full layout sums k and -k
    traj = random_trajectory(K, m, S, horizon, log_amp, zero_frac, all_zero, seed)
    params = WeightParams(c0=c0, horizon=horizon, loss_exponent=n_loss)
    with np.errstate(over="ignore", invalid="ignore"):  # squares of the norms past 1e154
        e_j, m_j = derivative_energies(traj, params, j_max)
        (a_r,) = initial_majorant(traj, params, [0.25])
        full_e, full_m, full_a = full_layout_sums(traj, params, j_max, 0.25)
        for i in range(S):
            for j in range(j_max + 1):
                rel = moment_error(traj, params, i, j, full=True) + norms_error(m)
                assert_within(e_j[i, j], full_e[i, j], rel)
                assert_within(m_j[i, j], full_m[i, j], rel)
        norms = traj.v_norms()[0]
    band = int(resolved_band(traj.chains[0]))
    norms = norms[:band]
    k = np.arange(band)[norms > 0.0]
    parts = np.column_stack(
        [0.25 * k, n_loss * np.log1p(k), np.abs(np.log(norms[norms > 0.0])), np.full(k.size, math.log(2.0))]
    )
    assert_within(a_r, full_a, band_sum_error(2 * band - 1, parts) + norms_error(m))
    if all_zero:
        assert not e_j[0].any() and not m_j[0].any() and a_r == 0.0


def full_layout_master(traj, params, exponents):
    """rho(t, k) and the per-time sup ratios of ``master_estimate_check`` as the full layout computed them."""
    modes = np.arange(-traj.K, traj.K + 1)
    rho = np.stack([np.atleast_1d(rho_weight(t, modes, params)) for t in traj.times.tolist()])
    v_norms = full_norms(traj)
    f_mags = np.abs(mirror(traj.forcings, axis=1))
    weighted_v = np.exp(rho) * v_norms
    forcing_integral = energy._cumtrapz(np.exp(rho) * f_mags, traj.times)
    br = np.atleast_1d(bracket(modes)).astype(float)
    base = br ** (traj.order - 1) * forcing_integral
    per_time = {}
    for n in exponents:
        den = br**n * v_norms[0][None, :] + base
        floor = max(np.finfo(float).eps * float(den.max()), np.finfo(float).tiny)
        per_time[n] = (weighted_v / np.maximum(den, floor)).max(axis=1)
    return rho, per_time


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def master_cases():
    """Simulated runs (m 2 and 3, nu 0 and 2) and the exactly-zero-mode trajectory."""
    for m, nu in [(2, 0), (2, 2), (3, 0), (3, 2)]:
        coeffs = {2: ["sin(t)", "-1 - t^2"], 3: ["0", "-1 - t^2", "0.3*t"]}[m]
        initial = ["0.3/(1.25 - cos(x))", "0.1*sin(x)", "0"][:m]
        spec = CoefficientSpec.from_strings(m, 0.5, coeffs, nu, initial)
        yield spec, simulate(spec, K=24, dt=1e-3, snapshot_interval=0.05)
    K = 2
    chains = np.zeros((3, K + 1, 2), dtype=complex)
    chains[:, 1, 1] = 0.5
    chains[1:, 2, 1] = 1e-18
    forcings = np.zeros((3, K + 1), dtype=complex)
    forcings[:, 0] = 0.25
    forcings[2, 2] = 1e-18
    traj = Trajectory(
        order=2, K=K, dt=0.5, nu=2, times=np.array([0.0, 0.5, 1.0]), chains=chains,
        forcings=forcings, completed=True,
    )
    yield CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 2, ["cos(x)", "0"]), traj


def test_master_check_keeps_the_bits_of_the_full_layout():
    # every term of the sup is even in k, bit for bit, so the half-layout sup
    # and the per-time maxima keep their bits; so does the shared-table path
    for spec, traj in master_cases():
        c0 = default_c0(spec)
        m = traj.order
        for n in (m - 1, m + 1):
            params = WeightParams(c0=c0, horizon=spec.horizon, loss_exponent=n)
            exponents = sorted({*range(m - 1, 2 * m + 5), n})
            rho, per_time = full_layout_master(traj, params, exponents)
            assert_same_bits(energy._rho_table(traj, params), rho[:, traj.K :])
            tables = (traj.v_norms(), energy._rho_table(traj, params))
            for report in (
                master_estimate_check(traj, params, 10.0),
                master_estimate_check(traj, params, 10.0, _tables=tables),
                build_energy_ledger(traj, spec, c0=c0, n_exponent=n, j_max=12).master,
            ):
                assert_same_bits(report.per_time, per_time[n])
                assert report.ratios_by_n.keys() == per_time.keys()
                for k, v in report.ratios_by_n.items():
                    assert_same_bits(v, per_time[k].max())
                passing = [k for k in exponents if k < 2 * m + 5 and per_time[k].max() <= 10.0]
                assert report.fitted_n == (passing[0] if passing else None)


def test_derivative_energies_match_brute_force():
    rng = np.random.default_rng(31)
    K, m, j_max = 6, 2, 5
    chain = rng.standard_normal((K + 1, m)) + 1j * rng.standard_normal((K + 1, m))
    traj = one_snapshot(chain, 0.3)
    (e,), (mo,) = derivative_energies(traj, UNIT, j_max)
    k = np.arange(-K, K + 1)
    rho = rho_weight(0.3, k.astype(float), UNIT)
    (norms,) = full_norms(traj)
    for j in range(j_max + 1):
        brute_m = (np.abs(k) ** j * norms).sum()
        brute_e = (np.exp(rho) * np.abs(k) ** j * norms).sum()
        assert mo[j] == pytest.approx(brute_m, rel=1e-12)
        assert e[j] == pytest.approx(brute_e, rel=1e-12)


def test_initial_majorant_frozen():
    # k = +-1 (mode -1 implied), |V| = 1/2, N = 1: A(r) = 2 * 2 e^r / 2 = 2 e^r
    traj = one_snapshot(half_chain(4, 2, [(1, 0, 0.5)]))
    np.testing.assert_allclose(initial_majorant(traj, UNIT, [0.0, 0.25]), [2.0, 2.0 * math.e**0.25], rtol=1e-14)


def one_mode_run(nu, S=5):
    """u_1 = 1/2 (so |V_1| = 1/2) at S times on [0, 1], the run's nonlinearity nu."""
    traj = one_snapshot(half_chain(4, 2, [(1, 0, 0.5)]))
    return dataclasses.replace(
        traj, nu=nu, times=np.linspace(0.0, 1.0, S), chains=np.repeat(traj.chains, S, axis=0),
        forcings=np.zeros((S, 5), dtype=complex),
    )


def test_super_energies_nu0_keeps_alpha_constant():
    # nu = 0: G(t) = A(r(t)) = 2 e^r, and F(t) = 2 e^(rho(t, 1) + r) / 2 with rho(t, 1) = 2 (1 - t)
    traj = one_mode_run(0)
    rep = super_energies(traj, UNIT, np.full(5, 0.25))
    np.testing.assert_allclose(rep.g_values, 2.0 * math.e**0.25, rtol=1e-14)
    np.testing.assert_allclose(rep.f_values, np.exp(2.0 * (1.0 - traj.times) + 0.25), rtol=1e-14)
    assert not rep.g_increments.any()  # r(t) = r0: every expm1 step is 0 and drops its term


def test_super_energies_nu1_linear_growth():
    # nu = 1: G(t) = A(r) + int_0^t F(s; r) ds, the integral a trapezoid on the snapshots
    traj = one_mode_run(1, S=9)
    rep = super_energies(traj, UNIT, np.full(9, 0.1))
    f = np.exp(2.0 * (1.0 - traj.times) + 0.1)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(traj.times))])
    np.testing.assert_allclose(rep.g_values, 2.0 * math.e**0.1 + integral, rtol=1e-13)
    np.testing.assert_allclose(rep.g_increments, integral, rtol=1e-13)


def test_super_energies_nu2_uses_sequence_square():
    # the nu-fold convolution of the coefficients E_j / j! of F is the coefficient sequence of F^nu:
    # with nu = 2, G(t_1) = A(r) + (F(t_0; r)^2 + F(t_1; r)^2) (t_1 - t_0) / 2
    traj = one_mode_run(2, S=2)
    rep = super_energies(traj, UNIT, np.full(2, 0.5))
    f0, f1 = math.exp(2.0 + 0.5), math.exp(0.5)
    assert rep.g_values[1] == pytest.approx(2.0 * math.e**0.5 + 0.5 * (f0**2 + f1**2), rel=1e-13)


def test_super_energies_take_f_at_every_radius_of_the_schedule():
    # G(t_i) integrates F(s; r(t_i)) at the radius of t_i, not F(s; r(s))
    traj = one_mode_run(1, S=3)
    r = np.array([0.5, 0.25, 0.0])
    rep = super_energies(traj, UNIT, r)
    f = np.exp(2.0 * (1.0 - traj.times)[None, :] + r[:, None])  # F(t_s; r_i) at [i, s]
    want = 2.0 * np.exp(r) + [0.0, 0.25 * (f[1, 0] + f[1, 1]), 0.25 * (f[2, 0] + 2 * f[2, 1] + f[2, 2])]
    np.testing.assert_allclose(rep.g_values, want, rtol=1e-13)
    np.testing.assert_allclose(rep.f_values, np.diagonal(f), rtol=1e-14)
    # G(t) - G(0) = 2 e^r0 expm1(r(t) - r0) + the integral, without subtracting G(0)
    np.testing.assert_allclose(rep.g_increments, want - 2.0 * math.e**0.5, rtol=1e-13)


def resolved_run(K, m, S, q, log_amp, seed):
    """Chains amp * q^k * z with random complex z, over a round-off plateau 1e-17 * amp.

    q <= 1/3 puts the plateau below 1e-13 of the peak from k of about 30 on,
    so every band ends below K = 64.
    """
    rng = np.random.default_rng(seed)
    shape = (S, K + 1, m)
    amp = 10.0**log_amp
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    chains = amp * (q ** np.arange(K + 1)[None, :, None] * z + 1e-17 * noise)
    return Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.linspace(0.0, 0.9, S), chains=chains,
        forcings=np.zeros(shape[:2], dtype=complex), completed=True,
    )


def dropped_tail(x, j_max):
    """sum_{j > J} x^j / j! over e^x, for 0 <= x < J + 2: the last kept ratio bounds the rest geometrically."""
    if x == 0.0:
        return 0.0
    return math.exp((j_max + 1) * math.log(x) - math.lgamma(j_max + 2) - x) * (j_max + 2) / (j_max + 2 - x)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 3),
    S=st.integers(1, 4),
    nu=st.integers(0, 2),
    n_loss=st.integers(0, 4),
    # the reference forms alpha_j = j! int c_j, of size F^nu (nu |k|)^j: these
    # bands (|k| < 30) and amplitudes keep it finite up to j = 170
    q=st.floats(0.2, 1.0 / 3.0),
    log_amp=st.floats(-4.0, -2.0),
    c0=st.sampled_from([1.0, 3.0]),
    r0=st.floats(0.05, 1.0),
    rate=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_equals_the_truncated_series_at_j_max_170(
    m, S, nu, n_loss, q, log_amp, c0, r0, rate, seed
):
    J = 170
    K = 64
    traj = dataclasses.replace(resolved_run(K, m, S, q, log_amp, seed), nu=nu)
    params = WeightParams(c0=c0, horizon=1.0, loss_exponent=n_loss)
    r = r0 * np.exp(-rate * traj.times)
    r[0] = r0
    band_hi = resolved_band(traj.chains)
    assert band_hi.max() <= K
    # the tables E_j (S, J+1) and A_j (J+1,) on each band, term by term in j
    norms, rho = traj.v_norms(), energy._rho_table(traj, params)
    k = np.arange(K + 1, dtype=float)
    mult = np.where(k > 0, 2.0, 1.0)
    powers = k[None, :] ** np.arange(J + 1)[:, None]
    inside = k[None, :] < band_hi[:, None]
    e_table = (np.where(inside, mult * np.exp(rho) * norms, 0.0)[:, None, :] * powers).sum(axis=-1)
    a_table = (np.where(inside[0], mult * bracket(k) ** n_loss * norms[0], 0.0) * powers).sum(axis=-1)
    want_f, want_g = series_reference.truncated_super_energies(traj.times, e_table, a_table, r, nu)
    want_g0, _ = series_reference.series_with_tail(a_table, r0, series_reference.factorials(J))
    rep = super_energies(traj, params, r)
    (g0,) = initial_majorant(traj, params, [r0])
    # the tolerance: the reference's tables are each within gamma_B + 6u, and each
    # series level (a convolution, the sum over j) within gamma_(J+1) + 4u, at most
    # nu + 1 levels deep; each closed-form band sum is within band_sum_error, and
    # F^nu within nu times that; the trapezoid is within gamma_S + 3u on both
    # sides; and the truncation drops at most ``dropped_tail`` of every e^(r |k|),
    # e^(nu r |k|) for the integrand, since the coefficients are nonnegative
    width = int(band_hi.max())
    log_v = np.log(norms[:, :width][norms[:, :width] > 0.0])
    big = float(np.abs(rho[:, :width]).max() + np.abs(log_v).max() + r0 * width + n_loss * math.log(width) + 1.0)
    closed = band_sum_error(width, [[big]])
    reference = (nu + 1) * (gamma(width) + gamma(J + 1) + 10 * U)
    tail = dropped_tail(max(nu, 1) * r0 * (width - 1), J)
    rel = reference + (nu + 1) * closed + gamma(S) + 3 * U + tail
    assert_within(g0, want_g0, rel)
    for i in range(S):
        assert_within(rep.f_values[i], want_f[i], rel)
        assert_within(rep.g_values[i], want_g[i], rel)
        # G(t) - G(0) against the reference's difference, which carries the rounding of both G's
        assert abs(rep.g_increments[i] - (want_g[i] - want_g[0])) <= rel * (want_g[i] + want_g[0])
    assert rep.g_increments[0] == 0.0


def test_phi_growth_and_schedule():
    assert phi_growth(3.0, 2.0, 4.0, 0) == pytest.approx(1.0 / 6.0)
    assert phi_growth(3.0, 2.0, 4.0, 1) == pytest.approx(3.0)
    assert phi_growth(3.0, 2.0, 4.0, 2) == pytest.approx(9.0 * 6.0)
    with pytest.raises(ValueError):
        phi_growth(1.0, 1.0, -1.0, 0)
    r = radius_schedule(0.25, 4.0, 2.0, 3.0, 0, np.array([0.0, 6.0]))
    np.testing.assert_allclose(r, [0.25, 0.25 / math.e], rtol=1e-12)


def check_continuation(times, g, cm_power, horizon):
    """``continuation_check`` of G values whose increments G(t) - G(0) are exact; L = G(0) + cm_power * horizon."""
    g = np.asarray(g, dtype=float)
    return continuation_check(times, g, g - g[0], cm_power, horizon)


def test_continuation_check_crossing():
    times = np.array([0.0, 1.0, 2.0])
    g = np.array([0.0, 5.0, 1.0])
    rep = check_continuation(times, g, cm_power=1.0, horizon=4.0)  # L = 4
    assert not rep.passed
    assert rep.first_crossing == 1.0
    assert not rep.degenerate_at_start
    assert not rep.sharp_passed
    assert rep.sharp_excess == pytest.approx(4.0)


def test_continuation_check_pass():
    times = np.linspace(0.0, 1.0, 5)
    g = 1.0 + 0.5 * times
    rep = check_continuation(times, g, cm_power=0.5, horizon=2.0)  # L = 2
    assert rep.passed and rep.sharp_passed
    assert rep.first_crossing is None
    d = rep.to_dict()
    assert set(d) == {
        "passed", "first_crossing", "degenerate_at_start", "L", "G0", "G_max",
        "sharp_passed", "sharp_excess", "CM_power",
    }


def test_continuation_check_fails_on_nan():
    # G(t) < L is what the argument needs; a NaN on either side does not show it
    times = np.array([0.0, 1.0, 2.0])
    rep = check_continuation(times, [1.0, 1.5, 2.0], cm_power=math.nan, horizon=6.0)  # L = nan
    assert not rep.passed
    assert rep.first_crossing == 0.0 and rep.degenerate_at_start
    rep = check_continuation(times, [1.0, math.nan, 2.0], cm_power=0.5, horizon=6.0)  # L = 4
    assert not rep.passed
    assert rep.first_crossing == 1.0 and not rep.degenerate_at_start


def test_continuation_check_fails_the_sharp_audit_on_an_overflowed_bound():
    # an inf (C M)^nu makes the bound G(0) + (C M)^nu t inf, where it holds vacuously
    times = np.array([0.0, 1.0, 2.0])
    rep = check_continuation(times, [1.0, 1.5, 2.0], cm_power=math.inf, horizon=6.0)
    assert rep.passed and rep.sharp_excess == 0.0 and not rep.sharp_passed
    rep = check_continuation(times, [1.0, math.inf, 2.0], cm_power=1.0, horizon=6.0)
    assert not rep.sharp_passed
    rep = check_continuation(times, [1.0, 1.5, 2.0], cm_power=0.5, horizon=6.0)  # L = 4
    assert rep.sharp_passed


def constant_trajectory():
    """|V_k| = 1 for every mode at three times, no forcing."""
    K = 2
    times = np.array([0.0, 0.5, 1.0])
    chain = np.zeros((K + 1, 2), dtype=complex)
    chain[:, 1] = 1.0  # V = (ik u, u'): second slot carries norm 1 at all k
    chains = np.stack([chain] * 3)
    forcings = np.zeros((3, K + 1), dtype=complex)
    return Trajectory(
        order=2, K=K, dt=0.5, nu=0, times=times, chains=chains,
        forcings=forcings, completed=True,
    )


def test_master_estimate_frozen():
    traj = constant_trajectory()
    rep = master_estimate_check(traj, UNIT, c_target=10.0)
    # worst mode is k = 2 at t = 0: e^(ln 2 + 2) / 3^N
    assert rep.ratio == pytest.approx(2.0 * math.e**2 / 3.0, rel=1e-12)
    assert rep.fitted_n == 1  # N = 0 gives 2e^2 = 14.8 > 10, N = 1 passes
    assert rep.n_used == 1
    assert rep.per_time.shape == (3,)
    assert rep.per_time.argmax() == 0
    d = rep.to_dict()
    assert set(d) == {"ratio", "N", "fitted_N", "C_target", "ratios_by_N"}


def test_master_ratio_finite_with_exactly_zero_mode():
    # mode +-2 is exactly zero in V(0) and in the first two forcings, yet holds
    # rounding-level mass at t = 0.5: the ratio must stay O(1), not 1e282
    K = 2
    times = np.array([0.0, 0.5, 1.0])
    chains = np.zeros((3, K + 1, 2), dtype=complex)
    chains[:, 1, 1] = 0.5
    chains[1:, 2, 1] = 1e-18
    forcings = np.zeros((3, K + 1), dtype=complex)
    forcings[:, 0] = 0.25
    forcings[2, 2] = 1e-18
    traj = Trajectory(
        order=2, K=K, dt=0.5, nu=2, times=times, chains=chains,
        forcings=forcings, completed=True,
    )
    rep = master_estimate_check(traj, UNIT, c_target=10.0)
    assert np.isfinite(rep.ratio) and rep.ratio < 10.0
    assert all(np.isfinite(r) and r < 10.0 for r in rep.ratios_by_n.values())
    problem = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 2, ["cos(x)", "0"])
    ledger = build_energy_ledger(traj, problem, c0=UNIT.c0, n_exponent=rep.fitted_n, j_max=12)
    assert np.isfinite(ledger.l_const)


def test_master_ratio_is_inf_where_an_overflowing_weight_meets_a_zero_norm():
    # rho(0, k) reaches 2.7e4 at C0 = 1e4: e^rho is inf, and inf * 0 must not read as nan
    traj = constant_trajectory()
    traj.chains[:, 1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rep = master_estimate_check(traj, WeightParams(c0=1e4, horizon=1.0, loss_exponent=1))
    assert rep.ratio == math.inf
    assert all(r == math.inf for r in rep.ratios_by_n.values())
    assert rep.fitted_n is None


def wave_problem():
    return CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])


def test_default_c0():
    assert default_c0(wave_problem()) == 1.0
    stiff = CoefficientSpec.from_strings(2, 1.0, ["0", "-4"], 0, ["cos(x)", "0"])
    assert default_c0(stiff) == pytest.approx(4.0)


def default_c0_calls(source: str) -> list[int]:
    """Lines that call ``default_c0``, by name, under an import alias or as an attribute."""
    tree = ast.parse(source)
    names = {"default_c0"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "default_c0" and alias.asname
    }
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [
        node.lineno
        for node in calls
        if getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) == "default_c0"
    ]


def test_default_c0_calls_are_found():
    assert default_c0_calls("c0 = default_c0(problem)") == [1]
    assert default_c0_calls("from .energy import default_c0 as dc\ndc(p)") == [2]
    assert default_c0_calls("energy.default_c0(p)") == [1]
    assert default_c0_calls("f = default_c0\ng(default_c0)") == []


def test_only_the_cli_resolves_c0():
    # C0 has one resolver, analyze's: the ledger and the audits take it as given
    package = Path(energy.__file__).parent
    callers = {path.name for path in package.glob("*.py") if default_c0_calls(path.read_text())}
    assert callers == {"cli.py"}


def svd_c0(problem, grid_points=10_000):
    """C0 as an SVD of every companion matrix on the grid: the reference for the closed form."""
    ts = np.linspace(0.0, problem.horizon, grid_points)
    mats = companion_stack(problem.coefficient_table(ts))
    return float(max(1.0, np.linalg.svd(mats, compute_uv=False)[:, 0].max()))


def test_default_c0_keeps_the_svd_value_on_the_shipped_problems():
    configs = Path(__file__).resolve().parents[1] / "configs"
    problems = [load_config(str(configs / name)).problem() for name in ("wave.yaml", "weakhyp_nu2.yaml")]
    problems += [  # the two benchmark problems: weak_k512 (nu = 2) and certify_m3
        CoefficientSpec.from_strings(2, 1.0, ["0", "-t^2"], 2, ["0.01*cos(x)", "0"]),
        CoefficientSpec.from_strings(3, 1.0, ["0", "-t^2", "0"], 0, ["cos(x)", "0", "0"]),
    ]
    for problem in problems:
        assert_same_bits(default_c0(problem), svd_c0(problem))
    assert default_c0(problems[-1]) == math.sqrt(2.0)  # sup_t sqrt(1 + t^4)


def coefficient_rows(m_range=(2, 6), max_rows=8):
    """Tables of rows of m coefficients at scales 1e-6 to 1e6, with exact zeros and repeats."""
    value = st.one_of(
        st.just(0.0),
        st.builds(lambda mant, e: mant * 10.0**e, st.floats(-10.0, 10.0), st.integers(-6, 6)),
    )

    @st.composite
    def rows(draw):
        m = draw(st.integers(*m_range))
        pool = draw(st.lists(value, min_size=1, max_size=m))
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m)
        chosen = draw(st.lists(picks, min_size=1, max_size=max_rows))
        return np.array([[pool[i] for i in row] for row in chosen])

    return rows()


# LAPACK's SVD is backward stable: its sigma_max is off by a modest multiple
# of m eps sigma_max.  On random rows like these it differed from the closed
# form by up to 26 ulps (m = 3); 50-digit arithmetic put the SVD up to 19.5
# ulps off and the closed form within 2
SVD_ULPS = 64


@settings(max_examples=200, deadline=None)
@given(coefficient_rows())
@example(np.array([[0.0, 0.0], [0.0, -1.0], [-4.0, 0.0], [1.0, 1.0]]))
@example(np.array([[1e6] * 6, [1e-6] * 6, [0.0] * 6]))
@example(np.array([[0.0, -1.0, 0.0], [1e-6, -1e6, 1e-6]]))
def test_companion_norms_match_the_svd_row_by_row(table):
    want = np.linalg.svd(companion_stack(table), compute_uv=False)[:, 0]
    got = energy._companion_norms(table)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= SVD_ULPS * np.spacing(want)).all(), (got, want)


@settings(max_examples=60, deadline=None)
@given(coefficient_rows(max_rows=3))
@example(np.array([[1.0, 1.0], [-1.0, 1e-6], [0.0, 1.0 + 2.0**-52]]))
def test_companion_norms_are_within_two_ulps_of_exact(table):
    mpmath.mp.dps = 50
    for mat, got in zip(companion_stack(table), energy._companion_norms(table)):
        exact = max(mpmath.svd_r(mpmath.matrix(mat.tolist()), compute_uv=False))
        assert abs(mpmath.mpf(float(got)) - exact) <= 2 * np.spacing(float(exact))


def test_energy_inequality_on_wave_run():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.01)
    params = WeightParams(c0=default_c0(problem), horizon=1.0, loss_exponent=1)
    rep = energy_inequality_check(traj, problem, params)
    assert rep.passed, rep.max_ratio
    assert rep.checked > 0
    assert rep.c0 == 1.0


def loop_energy_inequality(trajectory, problem, params):
    """(E*, max_ratio, checked) of the audit with one Q_eps and one einsum per (t, k).

    The per-point loop the batched audit replaced, inlined; its rows come
    from the coefficient table, the one coefficient source of the library.
    """
    times = trajectory.times
    v = trajectory.v_series()
    f_mags = np.abs(trajectory.forcings)
    table = problem.coefficient_table(times)
    e_star = np.empty(f_mags.shape)
    for i in range(times.size):
        layers = build_quasi_symmetrizer(characteristic_roots(table[i : i + 1])).layers
        for kk, row in enumerate(v[i]):
            eps = 1.0 / (1.0 + kk)
            q = np.zeros((trajectory.order, trajectory.order))
            for r, layer in enumerate(layers):
                q += eps ** (2 * r) * layer[0]
            val = np.einsum("j,jl,l->", row.conj(), q, row).real
            e_star[i, kk] = max(val, 0.0)
    s_vals = np.sqrt(e_star)
    t_col = times.reshape(-1, 1)
    lhs = (s_vals[2:] - s_vals[:-2]) / (t_col[2:] - t_col[:-2])
    with np.errstate(divide="ignore"):
        growth = 1.0 / (params.horizon - times[1:-1]) + 1.0
    rhs = params.c0 * growth.reshape(-1, 1) * s_vals[1:-1] + params.c0 * f_mags[1:-1]
    active = rhs > 1e-300
    max_ratio = float((lhs[active] / rhs[active]).max()) if active.any() else 0.0
    if ((~active) & (lhs > 1e-12)).any():
        max_ratio = float("inf")
    return e_star, max_ratio, int(active.sum() + active[:, 1:].sum())


AUDIT_PROBLEMS = {
    "wave": ["0", "-1"],
    "double-root": ["0", "-t^2"],
    "roots -t, 0, t": ["0", "-t^2", "0"],
    "roots t, 2t, -3t": ["0", "-7*t^2", "6*t^3"],
    "roots +-t, +-2t": ["0", "-5*t^2", "0", "4*t^4"],  # a cluster of four at zero
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(AUDIT_PROBLEMS)),
    nu=st.integers(0, 2),
    K=st.integers(4, 24),
    log_amp=st.floats(-3.0, -1.0),
    snapshot_interval=st.sampled_from([0.01, 0.02, 0.05]),
    c0=st.sampled_from([None, 1.0, 3.0]),
)
@example(name="roots t, 2t, -3t", nu=2, K=24, log_amp=-1.0, snapshot_interval=0.01, c0=None)
@example(name="roots +-t, +-2t", nu=0, K=16, log_amp=-2.0, snapshot_interval=0.02, c0=1.0)
# eps^6 by numpy's power differs from the scalar pow first at k = 88
@example(name="roots +-t, +-2t", nu=1, K=100, log_amp=-1.0, snapshot_interval=0.05, c0=None)
def test_batched_energy_inequality_matches_the_per_point_loop(
    name, nu, K, log_amp, snapshot_interval, c0
):
    coeffs = AUDIT_PROBLEMS[name]
    m = len(coeffs)
    amp = 10.0**log_amp
    initial = [f"{amp!r}*0.75/(1.25 - cos(x))", f"{amp!r}*sin(2*x)"] + ["0"] * (m - 2)
    problem = CoefficientSpec.from_strings(m, 0.5, coeffs, nu, initial)
    traj = simulate(problem, K=K, dt=0.002, snapshot_interval=snapshot_interval)
    params = WeightParams(c0=c0 or default_c0(problem), horizon=0.5, loss_exponent=1)
    rep = energy_inequality_check(traj, problem, params)
    e_star, max_ratio, checked = loop_energy_inequality(traj, problem, params)
    assert np.array_equal(energy._quasi_energy(traj, problem).view(np.int64), e_star.view(np.int64))
    assert (rep.max_ratio, rep.checked) == (max_ratio, checked)
    assert rep.passed == (max_ratio <= 1.05)


def test_energy_inequality_names_the_time_of_a_non_real_root():
    # lam^2 + (t - 0.5): the roots leave the real line after t = 0.5
    problem = CoefficientSpec.from_strings(2, 1.0, ["0", "t - 0.5"], 0, ["cos(x)", "0"])
    traj = simulate(wave_problem(), K=4, dt=0.01, snapshot_interval=0.25)
    with pytest.raises(NonHyperbolicError) as exc_info:
        energy_inequality_check(traj, problem, UNIT)
    assert exc_info.value.t == 0.75


# max_t ln sqrt(E(t)/E(0)) / ln k on the exact modes of u_tt = t^2 u_xx (l = 1),
# E = |y'|^2 + k^2 (t^2 + <k>^-2) |y|^2: the loss the energy audit should measure
EXACT_ENERGY_LOSS = {16: 0.7668, 64: 0.7487, 256: 0.7465, 1024: 0.7469, 4096: 0.7473}


def test_exact_mode_energy_loss_of_the_model_problem():
    modes = np.array(list(EXACT_ENERGY_LOSS), dtype=float)
    # 30 samples per period 2 pi / (k t) of the fastest mode near t = T = 1
    times = np.linspace(0.0, 1.0, 20001)
    y = exact_modes(1, times, modes, np.ones(modes.size))
    slope = exact_mode_derivatives(1, times, modes, np.ones(modes.size))
    e = slope**2 + modes**2 * (times[:, None] ** 2 + bracket(modes) ** -2) * y**2
    loss = 0.5 * np.log(e / e[0]) / np.log(modes)
    assert (loss.argmax(axis=0) == times.size - 1).all()  # the energy peaks at t = T
    # the figures are rounded to four decimals, so half a unit there bounds them;
    # jv and jvp are accurate to about 1e-14, which moves a loss by < 1e-14 / (2 ln 16)
    np.testing.assert_allclose(loss[-1], list(EXACT_ENERGY_LOSS.values()), rtol=0, atol=5e-5)


def test_build_energy_ledger_wave_relations():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.05)
    ledger = build_energy_ledger(
        traj, problem, c0=default_c0(problem), n_exponent=1, j_max=12, r0=0.25
    )
    assert ledger.n_exponent == 1
    assert ledger.c0 == 1.0
    # nu = 0: (CM)^nu = 1 and L = G(0) + T; alpha is frozen but the
    # radius schedule still shrinks, so G decays from G(0)
    assert ledger.l_const == pytest.approx(ledger.continuation.g0 + 1.0)
    assert (np.diff(ledger.energies.g_values) <= 1e-12).all()
    assert ledger.energies.g_values[0] == pytest.approx(ledger.continuation.g0)
    assert ledger.continuation.passed
    assert ledger.continuation.sharp_passed
    assert ledger.resolved and (ledger.band_hi == 2).all()  # cos x: the modes 0 and 1
    assert ledger.r_values[0] == pytest.approx(0.25)
    assert (np.diff(ledger.r_values) < 0).all()
    d = ledger.to_dict()
    for key in ("C0", "N", "C", "M0", "K_N", "M", "L", "r0", "phi_L",
                "nu", "J_max", "band", "master", "continuation"):
        assert key in d


def test_build_energy_ledger_memory_stays_linear_in_the_snapshots():
    # a snapshot at every step: S = 2001, so one (S, S) table of F(t_s; r_i) would take 32 MB
    problem = wave_problem()
    traj = simulate(problem, K=8, dt=5e-4, snapshot_interval=5e-4)
    S = len(traj)
    assert S == 2001
    tracemalloc.start()
    try:
        ledger = build_energy_ledger(traj, problem, c0=1.0, n_exponent=1, j_max=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * S * 8 / 8, peak
    # cos x is the mode k = 1 alone: F(0) = 2 e^(rho(0, 1) + r0) |V_1(0)|, |V_1(0)| = 1/2
    assert ledger.energies.f_values[0] == pytest.approx(math.exp(rho_weight(0.0, 1.0, UNIT) + 0.25), rel=1e-12)
    assert ledger.continuation.passed


def test_build_energy_ledger_runs_one_master_check_per_exponent(monkeypatch):
    # the ledger takes N as given: one master check at that N, none before a refusal
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.05)
    calls = []

    def counted(trajectory, params, c_target=10.0, **tables):
        calls.append(params.loss_exponent)
        return master_estimate_check(trajectory, params, c_target, **tables)

    monkeypatch.setattr(energy, "master_estimate_check", counted)
    for n in (1, 3, 5):
        calls.clear()
        ledger = build_energy_ledger(traj, problem, c0=1.0, n_exponent=n, j_max=12)
        assert calls == [n] and ledger.n_exponent == n
    calls.clear()
    with pytest.raises(ValueError):
        build_energy_ledger(traj, problem, c0=1.0, n_exponent=20, j_max=12)
    assert calls == []


def test_build_energy_ledger_rejects_oversized_n():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.25)
    with pytest.raises(ValueError):
        build_energy_ledger(traj, problem, c0=1.0, n_exponent=20, j_max=12)


def test_bracket():
    np.testing.assert_allclose(bracket(np.array([-3, 0, 3])), [4.0, 1.0, 4.0])
