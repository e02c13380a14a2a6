"""Solver tests: assembly, convolution, stepping vs a dense ODE oracle."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from weakhyp.equation import CoefficientSpec
from weakhyp.spectral import (
    BlowUpError,
    SpectralState,
    StabilityError,
    _ring_size,
    assemble_state,
    companion_matrix,
    convolution_power,
    default_grid_size,
    nonlinear_rhs,
    simulate,
    step,
)


def scalar_mode_oracle(spec, k, y0, T, rtol=1e-12, atol=1e-14):
    """Integrate one mode's scalar ODE chain with a dense adaptive method.

    y0 is the complex chain (u, u', ..., u^(m-1)) at t = 0; returns the chain
    at time T.  The complex system is split into stacked real and imaginary
    parts so the solver only ever sees real arithmetic.
    """
    m = spec.order
    ik = 1j * k

    def rhs(t, y):
        z = y[:m] + 1j * y[m:]
        a = spec.coefficients_at(t)
        dz = np.empty(m, dtype=complex)
        dz[: m - 1] = z[1:]
        top = 0.0 + 0.0j
        for h in range(1, m + 1):
            top -= a[h - 1] * ik**h * z[m - h]
        dz[m - 1] = top
        return np.concatenate([dz.real, dz.imag])

    y0_split = np.concatenate([np.real(y0), np.imag(y0)])
    sol = solve_ivp(rhs, (0.0, T), y0_split, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    out = sol.y[:, -1]
    return out[:m] + 1j * out[m:]


def test_companion_matrix_frozen():
    a = companion_matrix([3.0, 7.0])
    np.testing.assert_allclose(a, [[0.0, -1.0], [7.0, 3.0]])
    # eigenvalues are the negatives of the characteristic roots
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(companion_matrix([0.0, -1.0])).real), [-1.0, 1.0]
    )


def test_default_grid_size():
    assert default_grid_size(64) == 256
    assert default_grid_size(65) == 512
    assert default_grid_size(1) == 4


def test_assemble_state_cosine():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    state = assemble_state(spec.initial, 8)
    k = state.modes
    u = state.u_hat
    assert u[k == 1][0] == pytest.approx(0.5, abs=1e-14)
    assert u[k == -1][0] == pytest.approx(0.5, abs=1e-14)
    assert np.abs(u[np.abs(k) != 1]).max() < 1e-14
    assert np.abs(state.chain[:, 1]).max() < 1e-14


def test_assemble_state_mean_mode():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["1 + cos(x)", "2"])
    state = assemble_state(spec.initial, 4)
    assert state.u_hat[4] == pytest.approx(1.0, abs=1e-14)  # k = 0 slot
    assert state.chain[4, 1] == pytest.approx(2.0, abs=1e-14)


def test_assemble_state_grid_validation():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    with pytest.raises(ValueError):
        assemble_state(spec.initial, 8, G=24)  # not a power of two
    with pytest.raises(ValueError):
        assemble_state(spec.initial, 8, G=16)  # below 4K


def test_convolution_cosine_squared():
    # u = cos x: spectrum 1/2 at k = +-1; u^2 = 1/2 + cos(2x)/2
    K = 4
    u = np.zeros(2 * K + 1, dtype=complex)
    u[K + 1] = 0.5
    u[K - 1] = 0.5
    f = convolution_power(u, 2)
    assert f[K] == pytest.approx(0.5)
    assert f[K + 2] == pytest.approx(0.25)
    assert f[K - 2] == pytest.approx(0.25)
    assert np.abs(f[[K - 3, K - 1, K + 1, K + 3]]).max() == 0.0


def test_convolution_keeps_edge_mass():
    # mass at |k| = K combines back into the window: (4,4,-4) and permutations
    K = 4
    u = np.zeros(2 * K + 1, dtype=complex)
    u[0] = 1.0
    u[-1] = 1.0
    f = convolution_power(u, 3)
    assert f[2 * K] == pytest.approx(3.0)
    assert f[0] == pytest.approx(3.0)


def hermitian_state(rng, K, m, decay=0.05):
    """Random state of a real solution: row -k is the conjugate of row k."""
    half = rng.standard_normal((K + 1, m)) + 1j * rng.standard_normal((K + 1, m))
    half *= np.exp(-decay * np.arange(K + 1))[:, None]
    half[0] = half[0].real
    chain = np.concatenate([half[:0:-1].conj(), half])
    return SpectralState(K=K, t=0.0, chain=chain)


def test_convolution_direct_vs_fft():
    # the integrator's rfft ring against the direct oracle on Hermitian spectra
    rng = np.random.default_rng(29)
    for nu in (1, 2, 3):
        for _ in range(10):
            K = int(rng.integers(8, 48))
            state = hermitian_state(rng, K, 2)
            d = convolution_power(state.u_hat, nu)
            f = nonlinear_rhs(state, nu)[:, -1]
            scale = np.abs(d).max()
            assert np.abs(d - f).max() <= 1e-12 * scale


@pytest.mark.parametrize("nu, K", [(1, 16), (3, 16), (3, 32), (7, 8)])
def test_ring_alias_free_at_power_of_two_boundary(nu, K):
    # (nu+1)K is a power of two here, so a ring of (nu+1)K points would fold
    # mode nu*K onto -K; the ring must be the next power of two
    assert _ring_size(K, nu) == 2 * (nu + 1) * K
    rng = np.random.default_rng(nu * 100 + K)
    state = hermitian_state(rng, K, 2, decay=0.0)  # full mass out to |k| = K
    d = convolution_power(state.u_hat, nu)
    f = nonlinear_rhs(state, nu)[:, -1]
    assert np.abs(d - f).max() <= 1e-12 * np.abs(d).max()


def test_convolution_validation():
    with pytest.raises(ValueError):
        convolution_power(np.zeros(4, dtype=complex), 2)  # even length
    with pytest.raises(ValueError):
        convolution_power(np.zeros(5, dtype=complex), 0)


def test_nonlinear_rhs_shape():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    state = assemble_state(spec.initial, 4)
    out = nonlinear_rhs(state, 2)
    assert out.shape == state.chain.shape
    assert np.abs(out[:, 0]).max() == 0.0


def test_wave_matches_dalembert():
    # u_tt = u_xx with data (cos x, 0): u = cos x cos t
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    traj = simulate(spec, K=8, dt=1e-3, snapshot_interval=0.25)
    k = traj.modes
    for i, t in enumerate(traj.times):
        u = traj.chains[i, :, 0]
        expected = np.where(np.abs(k) == 1, 0.5 * np.cos(t), 0.0)
        assert np.abs(u - expected).max() < 1e-10


def test_zero_mode_chain_survives():
    # at k = 0 every a_h (ik)^h term vanishes: u_0'' = 0, so u_0 = 1 + 2t
    spec = CoefficientSpec.from_strings(2, 0.5, ["0", "-t^2"], 0, ["1", "2"])
    traj = simulate(spec, K=8, dt=1e-3)
    final = traj.state_at(len(traj) - 1)
    assert final.u_hat[8] == pytest.approx(2.0, rel=1e-12)
    assert final.chain[8, 1] == pytest.approx(2.0, rel=1e-12)


def test_single_mode_against_dense_oracle():
    profiles = {
        2: [["0", "-1"], ["0", "-t^2"], ["sin(t)", "-1"]],
        3: [["0", "-1", "0"], ["0", "-t^2", "0"], ["0", "-1 - t^2", "0"]],
    }
    for m, coeff_sets in profiles.items():
        initial = ["cos(3*x)"] + ["0"] * (m - 1)
        for coeffs in coeff_sets:
            spec = CoefficientSpec.from_strings(m, 1.0, coeffs, 0, initial)
            traj = simulate(spec, K=8, dt=1e-3)
            state = traj.state_at(len(traj) - 1)
            idx = 8 + 3  # mode k = 3
            y0 = np.zeros(m, dtype=complex)
            y0[0] = 0.5
            oracle = scalar_mode_oracle(spec, 3, y0, 1.0)
            assert np.abs(state.chain[idx] - oracle).max() < 1e-9, (m, coeffs)


def test_reality_preserved():
    spec = CoefficientSpec.from_strings(
        2, 1.0, ["sin(t)", "-1"], 0, ["cos(x) + 0.3*sin(2*x)", "0.1*cos(3*x)"]
    )
    traj = simulate(spec, K=16, dt=1e-3)
    assert traj.state_at(len(traj) - 1).reality_defect() < 1e-10


@pytest.mark.parametrize("nu", [0, 2, 3])
def test_every_snapshot_is_exactly_real(nu):
    spec = CoefficientSpec.from_strings(
        3, 0.5, ["sin(t)", "-1 - t^2", "0.3*t"], nu,
        ["0.2/(1.25 - cos(x)) + 0.1*sin(2*x)", "0.1*cos(3*x)", "0.05*sin(x)"],
    )
    traj = simulate(spec, K=16, dt=1e-3, snapshot_interval=0.05)
    for i in range(len(traj)):
        assert traj.state_at(i).reality_defect() == 0.0
    np.testing.assert_array_equal(traj.forcings[:, ::-1], traj.forcings.conj())


def full_system_oracle(spec, K, chain0, T):
    """DOP853 on all modes -K..K with a direct-convolution forcing.

    The chain (2K+1, m) is integrated as stacked real and imaginary parts,
    without assuming Hermitian symmetry.
    """
    m = spec.order
    nu = spec.nonlinearity
    ik = 1j * np.arange(-K, K + 1)
    size = chain0.size

    def rhs(t, y):
        z = (y[:size] + 1j * y[size:]).reshape(2 * K + 1, m)
        a = spec.coefficients_at(t)
        dz = np.empty_like(z)
        dz[:, :-1] = z[:, 1:]
        dz[:, -1] = convolution_power(z[:, 0], nu) - sum(
            a[h - 1] * ik**h * z[:, m - h] for h in range(1, m + 1)
        )
        return np.concatenate([dz.real.ravel(), dz.imag.ravel()])

    y0 = np.concatenate([chain0.real.ravel(), chain0.imag.ravel()])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    out = sol.y[:, -1]
    return (out[:size] + 1j * out[size:]).reshape(2 * K + 1, m)


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("K", [8, 13])
def test_nonlinear_modes_against_dense_oracle(nu, m, K):
    coeffs = {2: ["0", "-t^2"], 3: ["0", "-1 - t^2", "0"]}[m]
    initial = ["0.3/(1.25 - cos(x))", "0.1*sin(x)", "0"][:m]
    spec = CoefficientSpec.from_strings(m, 0.5, coeffs, nu, initial)
    traj = simulate(spec, K=K, dt=5e-4, snapshot_interval=0.5)
    expected = full_system_oracle(spec, K, traj.chains[0], 0.5)
    err = np.abs(traj.chains[-1] - expected).max() / np.abs(expected).max()
    assert err < 1e-9, err


def test_snapshot_cadence():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    traj = simulate(spec, K=8, dt=1e-3, snapshot_interval=0.1)
    np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-12)
    assert traj.completed
    assert traj.chains.shape == (11, 17, 2)
    assert traj.forcings.shape == (11, 17)


def test_stability_guard_simulate():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    with pytest.raises(StabilityError):
        simulate(spec, K=512, dt=0.01)


def test_step_requires_real_symmetric_state():
    state = hermitian_state(np.random.default_rng(3), 8, 2)
    stage = np.array([[0.0, -1.0]] * 3)
    with pytest.raises(ValueError, match="real_symmetric"):
        step(replace(state, real_symmetric=False), 1e-3, stage, 2)


def test_step_and_simulate_share_one_kernel():
    spec = CoefficientSpec.from_strings(
        2, 0.01, ["sin(t)", "-1 - t^2"], 2, ["0.2/(1.25 - cos(x))", "0.1*sin(x)"]
    )
    traj = simulate(spec, K=8, dt=1e-3)
    table = spec.coefficient_table(np.linspace(0.0, 0.01, 21))
    state = traj.state_at(0)
    for i in range(10):
        state = step(state, 1e-3, table[2 * i : 2 * i + 3], 2)
        np.testing.assert_array_equal(state.chain, traj.chains[i + 1])


def test_stability_guard_step():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    state = assemble_state(spec.initial, 256)
    stage = np.array([[0.0, -1.0]] * 3)
    with pytest.raises(StabilityError):
        step(state, 0.05, stage, 0)
    # guard off runs (garbage in, garbage out, but no exception)
    step(state, 0.05, stage, 0, guard=False)


def test_blowup_carries_partial_trajectory():
    spec = CoefficientSpec.from_strings(
        2, 1.0, ["0", "-1"], 3, ["10/(1.25 - cos(x))", "0"]
    )
    with pytest.raises(BlowUpError) as exc_info:
        simulate(spec, K=16, dt=1e-3, blowup_ceiling=1e3)
    err = exc_info.value
    assert not err.trajectory.completed
    assert err.trajectory.abort_reason == "blow-up"
    assert err.last_valid_time < err.trajectory.abort_time
    assert len(err.trajectory) >= 1
    assert (np.diff(err.trajectory.times) > 0).all()


def test_trajectory_v_series_matches_states():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    traj = simulate(spec, K=8, dt=1e-2, snapshot_interval=0.5)
    v = traj.v_series()
    for i in range(len(traj)):
        np.testing.assert_allclose(v[i], traj.state_at(i).V)
