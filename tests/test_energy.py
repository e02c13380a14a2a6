"""Weights, energies, super-energies, monitors.

Closed-form oracles with C0 = 1, T = 1 (bracket <xi> = 1 + |xi|):

    rho(0, 1)  = 2                 (Kovalewskian branch throughout)
    rho(0, e)  = 3                 (hyperbolic stretch + tail)
    rho(0, k)  = ln k + 2          (k > 1)

Gevrey weight |xi|^(2(m-1)/k) int_t^T Lambda + (T-t):

    m=2, k=2, Lambda=1, t=0:        |xi| + 1
    m=3, k=8, Lambda=2, |xi|=16:    4*2 + 1 = 9
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from weakhyp.energy import (
    EnergyConsistencyError,
    GevreyOrderWarning,
    WeightParams,
    bracket,
    build_energy_ledger,
    cinf_energy,
    continuation_check,
    default_c0,
    derivative_energies,
    gevrey_weight,
    initial_weighted_moments,
    energy_inequality_check,
    master_estimate_check,
    mode_energy,
    phi_growth,
    phi_weight,
    radius_schedule,
    rho_weight,
    star_epsilon,
    super_energies,
)
from weakhyp.equation import CoefficientSpec
from weakhyp.spectral import SpectralState, Trajectory, simulate

UNIT = WeightParams(c0=1.0, horizon=1.0, loss_exponent=1)


def make_state(K, m, entries, t=0.0):
    """State with chain[k + K, col] = value for each (k, col, value)."""
    chain = np.zeros((2 * K + 1, m), dtype=complex)
    for k, col, value in entries:
        chain[k + K, col] = value
    return SpectralState(K=K, t=t, chain=chain)


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


def test_rho_subadditive_sample():
    ks = np.arange(0, 65)
    for t in (0.0, 0.5, 0.9):
        r = rho_weight(t, ks.astype(float), UNIT)
        table = {int(k): v for k, v in zip(ks, r)}
        for k1 in range(0, 33):
            for k2 in range(0, 33):
                assert table[k1 + k2] <= table[k1] + table[k2] + 1e-12


def test_gevrey_weight_frozen():
    assert gevrey_weight(0.0, 5.0, 2, 1.0, 2, 1.0) == pytest.approx(6.0)
    assert gevrey_weight(0.0, 16.0, 8, 2.0, 3, 1.0) == pytest.approx(9.0)


def test_gevrey_weight_warns_below_threshold():
    with pytest.warns(GevreyOrderWarning):
        gevrey_weight(0.0, 4.0, 2, 1.0, 3, 1.0)


def test_gevrey_weight_profile_integration():
    # Lambda(s) = s on [0, 1]: integral over [0, 1] is 1/2, trapezoid exact
    ts = np.linspace(0.0, 1.0, 11)
    val = gevrey_weight(0.0, 4.0, 2, (ts, ts), 2, 1.0)
    assert val == pytest.approx(4.0 * 0.5 + 1.0, rel=1e-12)


def test_star_epsilon():
    np.testing.assert_allclose(star_epsilon(np.array([-2, 0, 2])), [1 / 3, 1.0, 1 / 3])


def test_mode_energy_psd_contract():
    assert mode_energy(np.array([[1.0]]), np.array([0.0])) == 0.0
    q = np.array([[2.0, 0.0], [0.0, 1.0]])
    v = np.array([1.0 + 1j, -2.0])
    assert mode_energy(q, v) == pytest.approx(2.0 * 2.0 + 4.0)
    with pytest.raises(EnergyConsistencyError):
        mode_energy(np.array([[-1.0]]), np.array([1.0]))


def test_cinf_energy_frozen():
    # |V| = 1/2 at k = +-1: E = 2 * e^rho(0,1) / 2 = e^2
    state = make_state(4, 2, [(1, 0, 0.5), (-1, 0, 0.5)])
    assert cinf_energy(state, UNIT) == pytest.approx(math.e**2, rel=1e-12)


def test_cinf_energy_log_domain_guard():
    # rho ~ 939 overflows exp; tiny amplitudes must still give a finite sum
    params = WeightParams(c0=3.0, horizon=300.0, loss_exponent=0)
    state = make_state(512, 2, [(512, 0, 1e-120), (-512, 0, 1e-120)])
    val = cinf_energy(state, params)
    assert np.isfinite(val) and val > 1e150
    # order-one amplitudes at the same weight do overflow, reported as inf
    state_big = make_state(512, 2, [(512, 0, 1.0), (-512, 0, 1.0)])
    assert cinf_energy(state_big, params) == float("inf")


def test_derivative_energies_match_brute_force():
    rng = np.random.default_rng(31)
    K, m, j_max = 6, 2, 5
    chain = rng.standard_normal((2 * K + 1, m)) + 1j * rng.standard_normal((2 * K + 1, m))
    state = SpectralState(K=K, t=0.3, chain=chain)
    e, mo = derivative_energies(state, UNIT, j_max)
    k = state.modes
    rho = rho_weight(0.3, k.astype(float), UNIT)
    norms = state.v_norms()
    for j in range(j_max + 1):
        brute_m = (np.abs(k) ** j * norms).sum()
        brute_e = (np.exp(rho) * np.abs(k) ** j * norms).sum()
        assert mo[j] == pytest.approx(brute_m, rel=1e-12)
        assert e[j] == pytest.approx(brute_e, rel=1e-12)


def test_initial_weighted_moments_frozen():
    # k = +-1, |V| = 1/2, N = 1: A_j = sum |k|^j <k>^1 |V| = 2 for every j
    state = make_state(4, 2, [(1, 1, 0.5), (-1, 1, 0.5)])
    a = initial_weighted_moments(state, UNIT, 6)
    np.testing.assert_allclose(a, 2.0)


def test_super_energies_nu0_keeps_alpha_constant():
    times = np.linspace(0.0, 1.0, 5)
    e = np.full((5, 8), 3.0)
    a0 = np.full(8, 2.0)
    r = np.full(5, 0.25)
    rep = super_energies(times, e, a0, r, nu=0)
    series = sum(0.25**j / math.factorial(j) for j in range(8))
    np.testing.assert_allclose(rep.g_values, 2.0 * series, rtol=1e-12)
    np.testing.assert_allclose(rep.f_values, 3.0 * series, rtol=1e-12)
    assert not rep.diverging


def test_super_energies_nu1_linear_growth():
    # constant E_j = E: c_j = E/j!, alpha_j(t) = A_j + E t, G = (A + E t) e^r
    times = np.linspace(0.0, 2.0, 9)
    e_const = 1.5
    e = np.full((9, 10), e_const)
    a0 = np.full(10, 0.5)
    r = np.full(9, 0.1)
    rep = super_energies(times, e, a0, r, nu=1)
    expected = (0.5 + e_const * times) * math.e**0.1
    np.testing.assert_allclose(rep.g_values, expected, rtol=1e-12)


def test_super_energies_nu2_uses_sequence_square():
    # b = (1, 1, 0, ...): b*b = (1, 2, 1, 0, ...), alpha_j = A_j + j! (b*b)_j t
    times = np.array([0.0, 1.0])
    e = np.zeros((2, 6))
    e[:, 0] = 1.0
    e[:, 1] = 1.0  # E_j/j! = (1, 1, 0, ...)
    a0 = np.zeros(6)
    r = np.full(2, 0.5)
    rep = super_energies(times, e, a0, r, nu=2)
    conv = np.array([1.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    fact = np.array([math.factorial(j) for j in range(6)])
    expected_alpha = fact * conv * 1.0
    np.testing.assert_allclose(rep.alpha[1], expected_alpha, rtol=1e-12)
    expected_g = (expected_alpha * 0.5 ** np.arange(6) / fact).sum()
    assert rep.g_values[1] == pytest.approx(expected_g, rel=1e-12)


def test_super_energies_tail_flag():
    times = np.array([0.0, 1.0])
    e = np.zeros((2, 3))
    e[:, 2] = 100.0  # top coefficient dominates: truncation unreliable
    rep = super_energies(times, e, np.zeros(3), np.full(2, 1.0), nu=0)
    assert rep.diverging
    assert rep.f_tail.max() > 0.1


def test_phi_growth_and_schedule():
    assert phi_growth(3.0, 2.0, 4.0, 0) == pytest.approx(1.0 / 6.0)
    assert phi_growth(3.0, 2.0, 4.0, 1) == pytest.approx(3.0)
    assert phi_growth(3.0, 2.0, 4.0, 2) == pytest.approx(9.0 * 6.0)
    with pytest.raises(ValueError):
        phi_growth(1.0, 1.0, -1.0, 0)
    r = radius_schedule(0.25, 4.0, 2.0, 3.0, 0, np.array([0.0, 6.0]))
    np.testing.assert_allclose(r, [0.25, 0.25 / math.e], rtol=1e-12)


def test_continuation_check_crossing():
    times = np.array([0.0, 1.0, 2.0])
    g = np.array([0.0, 5.0, 1.0])
    rep = continuation_check(times, g, l_const=4.0, cm_power=1.0)
    assert not rep.passed
    assert rep.first_crossing == 1.0
    assert not rep.degenerate_at_start
    assert not rep.sharp_passed
    assert rep.sharp_excess == pytest.approx(4.0)


def test_continuation_check_pass():
    times = np.linspace(0.0, 1.0, 5)
    g = 1.0 + 0.5 * times
    rep = continuation_check(times, g, l_const=2.0, cm_power=0.5)
    assert rep.passed and rep.sharp_passed
    assert rep.first_crossing is None
    d = rep.to_dict()
    assert set(d) == {
        "passed", "first_crossing", "degenerate_at_start", "L", "G0", "G_max",
        "sharp_passed", "sharp_excess", "CM_power",
    }


def constant_trajectory():
    """|V_k| = 1 for every mode at three times, no forcing."""
    K = 2
    times = np.array([0.0, 0.5, 1.0])
    chain = np.zeros((2 * K + 1, 2), dtype=complex)
    chain[:, 1] = 1.0  # V = (ik u, u'): second slot carries norm 1 at all k
    chains = np.stack([chain] * 3)
    forcings = np.zeros((3, 2 * K + 1), dtype=complex)
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
    chains = np.zeros((3, 2 * K + 1, 2), dtype=complex)
    chains[:, [1, 3], 1] = 0.5
    chains[1:, [0, 4], 1] = 1e-18
    forcings = np.zeros((3, 2 * K + 1), dtype=complex)
    forcings[:, K] = 0.25
    forcings[2, [0, 4]] = 1e-18
    traj = Trajectory(
        order=2, K=K, dt=0.5, nu=2, times=times, chains=chains,
        forcings=forcings, completed=True,
    )
    rep = master_estimate_check(traj, UNIT, c_target=10.0)
    assert np.isfinite(rep.ratio) and rep.ratio < 10.0
    assert all(np.isfinite(r) and r < 10.0 for r in rep.ratios_by_n.values())
    problem = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 2, ["cos(x)", "0"])
    ledger = build_energy_ledger(traj, problem, j_max=12)
    assert np.isfinite(ledger.l_const)


def wave_problem():
    return CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])


def test_default_c0():
    assert default_c0(wave_problem()) == 1.0
    stiff = CoefficientSpec.from_strings(2, 1.0, ["0", "-4"], 0, ["cos(x)", "0"])
    assert default_c0(stiff) == pytest.approx(4.0)


def test_energy_inequality_on_wave_run():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.01)
    params = WeightParams(c0=default_c0(problem), horizon=1.0, loss_exponent=1)
    rep = energy_inequality_check(traj, problem, params)
    assert rep.passed, rep.max_ratio
    assert rep.checked > 0
    assert rep.c0 == 1.0


def test_build_energy_ledger_wave_relations():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.05)
    ledger = build_energy_ledger(traj, problem, j_max=12, r0=0.25)
    assert ledger.n_exponent == 1  # fitted on the run itself
    assert ledger.c0 == 1.0
    # nu = 0: (CM)^nu = 1 and L = G(0) + T; alpha is frozen but the
    # radius schedule still shrinks, so G decays from G(0)
    assert ledger.l_const == pytest.approx(ledger.continuation.g0 + 1.0)
    assert (np.diff(ledger.g_values) <= 1e-12).all()
    assert ledger.g_values[0] == pytest.approx(ledger.continuation.g0)
    assert ledger.continuation.passed
    assert ledger.continuation.sharp_passed
    assert not ledger.diverging
    assert ledger.r_values[0] == pytest.approx(0.25)
    assert (np.diff(ledger.r_values) < 0).all()
    d = ledger.to_dict()
    for key in ("C0", "N", "C", "M0", "K_N", "M", "L", "r0", "eta", "phi_L",
                "nu", "J_max", "diverging", "tail_ratio_t0", "master", "continuation"):
        assert key in d


def test_build_energy_ledger_rejects_oversized_n():
    problem = wave_problem()
    traj = simulate(problem, K=16, dt=1e-3, snapshot_interval=0.25)
    with pytest.raises(ValueError):
        build_energy_ledger(traj, problem, n_exponent=20, j_max=12)


def test_bracket():
    np.testing.assert_allclose(bracket(np.array([-3, 0, 3])), [4.0, 1.0, 4.0])
