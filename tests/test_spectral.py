"""Solver tests: assembly, convolution, stepping vs a dense ODE oracle.

States and trajectories hold the modes k = 0..K of a real solution; the
oracles work on the full layout -K..K, which ``mirror`` rebuilds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from bessel_oracle import exact_mode_derivatives, exact_modes
from constant_oracle import blowup_time, slope_at, time_to_reach, time_to_slope
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from weakhyp.equation import CoefficientSpec
from weakhyp.spectral import (
    BlowUpError,
    StabilityError,
    Trajectory,
    _HalfSpectrumRK4,
    _ring_size,
    assemble_state,
    companion_stack,
    companion_vectors,
    convolution_power,
    simulate,
    step,
)


def mirror(half: np.ndarray) -> np.ndarray:
    """The full layout -K..K of a half spectrum along its first axis: mode -k is conj(mode k)."""
    return np.concatenate([half[:0:-1].conj(), half])


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
    a = companion_stack([[3.0, 7.0]])
    np.testing.assert_allclose(a, [[[0.0, -1.0], [7.0, 3.0]]])
    # eigenvalues are the negatives of the characteristic roots
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(companion_stack([[0.0, -1.0]])).real), [[-1.0, 1.0]]
    )
    with pytest.raises(ValueError):
        companion_stack([3.0, 7.0])


def test_default_grid_size():
    # the data are sampled on the smallest power of two >= 4K: at K = 64 that is
    # 256 points, where cos(256 x) is 1 at every sample and lands on mode 0;
    # at K = 65 it is 512 points, which resolve the mode, so mode 0 stays empty
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(256*x)", "0"])
    assert abs(assemble_state(spec.initial, 64)[0, 0]) == pytest.approx(1.0, abs=1e-14)
    assert abs(assemble_state(spec.initial, 65)[0, 0]) < 1e-14


def test_assemble_state_cosine():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    chain = assemble_state(spec.initial, 8)
    assert chain.shape == (9, 2)  # row k holds mode k = 0..8
    k = np.arange(9)
    u = chain[:, 0]
    assert u[k == 1][0] == pytest.approx(0.5, abs=1e-14)
    assert np.abs(u[k != 1]).max() < 1e-14
    assert np.abs(chain[:, 1]).max() < 1e-14


def test_assemble_state_mean_mode():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["1 + cos(x)", "2"])
    chain = assemble_state(spec.initial, 4)
    assert chain.shape == (5, 2)
    assert chain[0, 0] == pytest.approx(1.0, abs=1e-14)  # k = 0 slot
    assert chain[0, 1] == pytest.approx(2.0, abs=1e-14)


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


def real_state(rng, K, m, decay=0.05):
    """Random (K+1, m) chain array of a real solution, modes 0..K: the k = 0 row is real."""
    half = rng.standard_normal((K + 1, m)) + 1j * rng.standard_normal((K + 1, m))
    half *= np.exp(-decay * np.arange(K + 1))[:, None]
    half[0] = half[0].real
    return half


def kernel_forcing(chain, nu):
    """Modes 0..K of u^nu for one chain array, by the integrator's kernel."""
    K, m = chain.shape[0] - 1, chain.shape[1]
    return _HalfSpectrumRK4(K, m, nu).forcing(chain[None])[0]


def test_convolution_direct_vs_fft():
    # the integrator's rfft ring against the direct oracle on the mirrored spectra
    rng = np.random.default_rng(29)
    for nu in (1, 2, 3):
        for _ in range(10):
            K = int(rng.integers(8, 48))
            chain = real_state(rng, K, 2)
            d = convolution_power(mirror(chain[:, 0]), nu)
            f = kernel_forcing(chain, nu)
            scale = np.abs(d).max()
            assert np.abs(d[K:] - f).max() <= 1e-12 * scale


def smooth_multiples_of_four(top):
    """Boolean table over 0..top-1: n is a multiple of 4 with no prime factor above 5."""
    n = np.arange(top)
    rest = n.copy()
    for p in (2, 3, 5):
        for _ in range(int(np.log(top) / np.log(p)) + 1):
            rest = np.where(rest % p == 0, rest // p, rest)
    return (rest == 1) & (n % 4 == 0)


def test_ring_size_is_the_least_smooth_multiple_of_four():
    # brute force over K <= 2048, nu <= 7: the ring is a multiple of 4 with
    # no prime factor above 5, it exceeds (nu+1)K, and no smaller one does
    top = 2 * (8 * 2048 + 1)
    ok = smooth_multiples_of_four(top)
    for nu in range(8):
        for K in range(1, 2049):
            need, ring = (nu + 1) * K + 1, _ring_size(K, nu)
            assert need <= ring < top and ok[ring], (K, nu, ring)
            assert not ok[need:ring].any(), (K, nu, ring)


BOUNDARY_RINGS = {(1, 16): 36, (3, 16): 72, (3, 32): 144, (7, 8): 72, (2, 21): 64, (2, 533): 1600}


@pytest.mark.parametrize("nu, K", list(BOUNDARY_RINGS))
def test_ring_alias_free_at_power_of_two_boundary(nu, K):
    # (nu+1)K is a power of two in the first four cases, so a ring of (nu+1)K
    # points would fold mode nu*K onto -K; any ring of more than (nu+1)K
    # points is alias-free.  In the last two (nu+1)K + 1 is itself the ring.
    assert _ring_size(K, nu) == BOUNDARY_RINGS[nu, K] > (nu + 1) * K
    rng = np.random.default_rng(nu * 100 + K)
    chain = real_state(rng, K, 2, decay=0.0)  # full mass out to |k| = K
    d = convolution_power(mirror(chain[:, 0]), nu)
    f = kernel_forcing(chain, nu)
    assert np.abs(d[K:] - f).max() <= 1e-12 * np.abs(d).max()


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("K", [12, 512])
def test_batched_transforms_keep_the_bits_of_row_calls(K, nu):
    # a sweep on the batch axis may transform every member's forcing in one call
    ring, rows = _ring_size(K, nu), 3
    rng = np.random.default_rng(K * 10 + nu)
    for _ in range(5):
        size = 10.0 ** rng.uniform(-20.0, 2.0, (rows, 1))
        spec = size * (rng.standard_normal((rows, K + 1)) + 1j * rng.standard_normal((rows, K + 1)))
        grid = np.fft.irfft(spec, ring, norm="forward")
        assert_same_bits(grid, np.stack([np.fft.irfft(row, ring, norm="forward") for row in spec]))
        back = np.fft.rfft(grid, norm="forward")
        assert_same_bits(back, np.stack([np.fft.rfft(row, norm="forward") for row in grid]))


def test_convolution_validation():
    with pytest.raises(ValueError):
        convolution_power(np.zeros(4, dtype=complex), 2)  # even length
    with pytest.raises(ValueError):
        convolution_power(np.zeros(5, dtype=complex), 0)


def test_forcing_shape_and_unforced_members():
    # one forcing row per member and mode; only member 0 carries u^nu
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    y = np.repeat(assemble_state(spec.initial, 4)[None], 2, axis=0)
    out = _HalfSpectrumRK4(4, 2, 2).forcing(y)
    assert out.shape == (2, 5)
    assert out[0, 0] == pytest.approx(0.5) and out[0, 2] == pytest.approx(0.25)  # cos^2 x
    assert not out[1].any()


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
    assert traj.chains[-1, 0, 0] == pytest.approx(2.0, rel=1e-12)
    assert traj.chains[-1, 0, 1] == pytest.approx(2.0, rel=1e-12)


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
            y0 = np.zeros(m, dtype=complex)
            y0[0] = 0.5
            oracle = scalar_mode_oracle(spec, 3, y0, 1.0)
            assert np.abs(traj.chains[-1, 3] - oracle).max() < 1e-9, (m, coeffs)


REALITY_COEFFS = {
    2: ["sin(t)", "-1 - t^2"],
    3: ["sin(t)", "-1 - t^2", "0.3*t"],
    4: ["0", "-5 - t", "0.2*sin(t)", "4"],
}
REALITY_DATA = ["0.2/(1.25 - cos(x)) + 0.1*sin(2*x)", "0.1*cos(3*x)", "0.05*sin(x)", "0.02*cos(2*x)"]


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_mode_row_is_exactly_real(m, nu):
    # u_{-k} = conj(u_k) holds by construction for k >= 1; what can still fail
    # is the k = 0 row, which must stay exactly real in every snapshot
    spec = CoefficientSpec.from_strings(m, 0.5, REALITY_COEFFS[m], nu, REALITY_DATA[:m])
    traj = simulate(spec, K=16, dt=1e-3, snapshot_interval=0.05, calibrate=nu >= 1)
    members = [traj] if nu == 0 else [traj, traj.calibration]
    for member in members:
        assert len(member) == 11
        assert (member.chains[:, 0, :].imag == 0.0).all()
        assert (member.forcings[:, 0].imag == 0.0).all()
    if nu >= 1:
        assert np.abs(traj.forcings[:, 0].real).min() > 0.0  # the problem's forcing is live
        assert not traj.calibration.forcings.any()


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
    # the oracle assumes no symmetry, so its modes -K..-1 test the implied half
    expected = full_system_oracle(spec, K, mirror(traj.chains[0]), 0.5)
    err = np.abs(mirror(traj.chains[-1]) - expected).max() / np.abs(expected).max()
    assert err < 1e-9, err


def test_snapshot_cadence():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    traj = simulate(spec, K=8, dt=1e-3, snapshot_interval=0.1)
    np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-12)
    assert traj.completed
    assert traj.chains.shape == (11, 9, 2)
    assert traj.forcings.shape == (11, 9)
    np.testing.assert_array_equal(traj.modes, np.arange(9))


def test_stability_guard_simulate():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    with pytest.raises(StabilityError):
        simulate(spec, K=512, dt=0.01)


def test_step_and_simulate_share_one_kernel():
    spec = CoefficientSpec.from_strings(
        2, 0.01, ["sin(t)", "-1 - t^2"], 2, ["0.2/(1.25 - cos(x))", "0.1*sin(x)"]
    )
    traj = simulate(spec, K=8, dt=1e-3)
    table = spec.coefficient_table(np.linspace(0.0, 0.01, 21))
    chain = traj.chains[0]
    for i in range(10):
        chain = step(chain, 1e-3, table[2 * i : 2 * i + 3], 2)
        np.testing.assert_array_equal(chain, traj.chains[i + 1])


def test_stability_guard_step():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    chain = assemble_state(spec.initial, 256)
    stage = np.array([[0.0, -1.0]] * 3)
    with pytest.raises(StabilityError):
        step(chain, 0.05, stage, 0)
    assert step(chain, 0.004, stage, 0).shape == chain.shape  # dt (1 + rho) K = 2.048 runs


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


def reference_v(modes, chains):
    """Companion vectors by the per-column formula (ik)^(m-1-c) * chain[..., c]."""
    m = chains.shape[-1]
    ik = 1j * modes
    out = np.empty_like(chains)
    for c in range(m):
        out[..., c] = ik ** (m - 1 - c) * chains[..., c]
    return out


def reference_kernel_tables(K, m):
    """The kernel's -(ik)^(m-c) and (ik)^(m-1-c) tables as repeated products."""
    k = np.arange(K + 1)
    ik_pow = np.empty((K + 1, m + 1), dtype=complex)
    ik_pow[:, 0] = 1.0
    for h in range(1, m + 1):
        ik_pow[:, h] = ik_pow[:, h - 1] * (1j * k)
    return -ik_pow[:, m:0:-1], ik_pow[:, m - 1 :: -1].copy()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_companion_table_keeps_the_bits_of_the_per_column_formula(m):
    K, S = 7, 3
    rng = np.random.default_rng(m)
    shape = (S, K + 1, m)
    chains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # signed zeros in either part, the k = 0 row included
    cells = chains.view(float)
    cells[rng.random(cells.shape) < 0.2] = 0.0
    cells[rng.random(cells.shape) < 0.2] = -0.0
    cells[:, 0] = -0.0
    traj = Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.array([0.0, 0.5, 1.0]), chains=chains,
        forcings=np.zeros(shape[:2], dtype=complex), completed=True,
    )
    want = reference_v(traj.modes, chains)
    assert_same_bits(traj.v_series(), want)
    assert_same_bits(traj.v_norms(), np.linalg.norm(want, axis=2))
    # one snapshot at a time, as spectrum.csv forms it
    assert_same_bits(companion_vectors(chains[1]), want[1])
    kernel = _HalfSpectrumRK4(K, m, 1)
    neg_ik_pow, v_weights = reference_kernel_tables(K, m)
    # the blow-up monitor's V is the ledger's V
    assert_same_bits(kernel.v_weights * chains, traj.v_series())
    if m <= 3:
        assert_same_bits(kernel.neg_ik_pow, neg_ik_pow)
        assert_same_bits(kernel.v_weights, v_weights)
    else:
        # numpy's power squares where the old table multiplied once more, so
        # the two agree in value but may differ in the sign of a zero part
        np.testing.assert_array_equal(kernel.neg_ik_pow, neg_ik_pow)
        np.testing.assert_array_equal(kernel.v_weights, v_weights)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3])
def test_calibration_member_matches_separate_runs(nu, m):
    coeffs = {2: ["sin(t)", "-1 - t^2"], 3: ["0", "-1 - t^2", "0.3*t"]}[m]
    initial = ["0.3/(1.25 - cos(x))", "0.1*sin(x)", "0"][:m]
    spec = CoefficientSpec.from_strings(m, 0.2, coeffs, nu, initial)
    kw = dict(K=13, dt=1e-3, snapshot_interval=0.05)
    both = simulate(spec, calibrate=True, **kw)
    linear = replace(spec, nonlinearity=0)
    for got, want in [(both, simulate(spec, **kw)), (both.calibration, simulate(linear, **kw))]:
        for name in ("times", "chains", "forcings"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape, name
            # bits, so that signed zeros count too
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)
        assert (got.nu, got.steps, got.peak_sup_v) == (want.nu, want.steps, want.peak_sup_v)
    assert both.calibration.nu == 0 and both.calibration.calibration is None


def test_run_facts():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    traj = simulate(spec, K=8, dt=1e-3, snapshot_interval=0.5)
    assert traj.steps == 1000 and traj.calibration is None
    assert traj.stability_ratio == pytest.approx(1e-3 * 2.0 * 8 / 2.5)
    # u = cos x cos t: |V_1| = |(i u_1, u_1')| = 0.5 is the largest
    assert traj.peak_sup_v == pytest.approx(0.5, rel=1e-12)


# u_tt = u^2 from u = -1.4, u_t = 1.9 cos x; sup|V| starts at |V_1| = 0.95,
# below the 0.99 ceiling.  In the linear member (u_tt = 0) u_1 grows like t,
# so |V_1| = 0.95 sqrt(1 + t^2) crosses 0.99 at t = 0.3.  In the problem,
# u^2 pins mode 1 to an oscillation around u_0 < 0 that keeps |V_1| <= 0.95,
# and lifts u_0' from zero until it crosses 0.99 at t = 0.54.
ZERO_MODE_CEILING = 0.99


def zero_mode_spec(horizon):
    return CoefficientSpec.from_strings(2, horizon, ["0", "0"], 2, ["-1.4", "1.9*cos(x)"])


def test_calibration_abort_waits_for_the_problem():
    spec = zero_mode_spec(0.4)
    simulate(spec, K=8, dt=0.01, blowup_ceiling=ZERO_MODE_CEILING)  # the problem alone completes
    with pytest.raises(BlowUpError) as exc_info:
        simulate(spec, K=8, dt=0.01, blowup_ceiling=ZERO_MODE_CEILING, calibrate=True)
    err = exc_info.value
    assert err.member == 1
    assert err.trajectory.nu == 0 and err.trajectory.abort_time == pytest.approx(0.3)
    assert str(err) == "blow-up: sup|V| = 0.991829 exceeds ceiling 0.99 at t = 0.3"


def test_problem_abort_takes_precedence_over_calibration_abort():
    spec = zero_mode_spec(1.0)
    with pytest.raises(BlowUpError) as exc_info:
        simulate(spec, K=8, dt=0.01, blowup_ceiling=ZERO_MODE_CEILING, calibrate=True)
    err = exc_info.value
    assert err.member == 0 and err.trajectory.nu == 2
    assert 0.5 < err.trajectory.abort_time < 0.6
    assert err.trajectory.times[-1] <= err.last_valid_time


@pytest.mark.parametrize("horizon, member", [(1.0, 0), (0.4, 1)])
def test_aborted_record_holds_exactly_the_rows_of_the_full_run(horizon, member):
    # the same run under a ceiling it never reaches gives the full record; the
    # aborted member's record is its first rows, bit for bit, and no more
    spec = zero_mode_spec(horizon)
    run = dict(K=8, dt=0.01, snapshot_interval=0.05, calibrate=True)
    full = simulate(spec, blowup_ceiling=1e9, **run)
    full = full.calibration if member else full
    with pytest.raises(BlowUpError) as exc_info:
        simulate(spec, blowup_ceiling=ZERO_MODE_CEILING, **run)
    err = exc_info.value
    assert err.member == member
    cut = err.trajectory
    rows = len(cut)
    assert 0 < rows == np.count_nonzero(full.times <= err.last_valid_time) < len(full)
    for name in ("times", "chains", "forcings"):
        assert_same_bits(getattr(cut, name), getattr(full, name)[:rows])


@pytest.mark.parametrize("calibrate", [False, True])
@pytest.mark.parametrize(
    "initial, reason, message",
    [
        (["2", "-1"], "blow-up", "blow-up: sup|V| = 1 exceeds ceiling 0.99 at t = 0"),
        (["1e308*cos(x)", "0"], "non-finite", "non-finite state at t = 0"),  # the FFT overflows
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_initial_state_is_monitored(calibrate, initial, reason, message):
    # data past the ceiling abort before the first step, as the problem's abort, with no snapshot
    spec = CoefficientSpec.from_strings(2, 0.4, ["0", "-1"], 2, initial)
    with pytest.raises(BlowUpError) as exc_info:
        simulate(spec, K=8, dt=0.01, blowup_ceiling=ZERO_MODE_CEILING, calibrate=calibrate)
    err = exc_info.value
    assert str(err) == message and err.member == 0 and err.last_valid_time is None
    traj = err.trajectory
    assert (traj.abort_reason, traj.abort_time, traj.steps, len(traj)) == (reason, 0.0, 0, 0)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 8, 9, 17])
def test_sup_v_keeps_the_bits_of_the_norm(m):
    # the blow-up monitor prints sup|V|, so it must keep the bits of
    # max_k ||V_k|| by np.linalg.norm of the complex V, the ledger's norm,
    # non-finite members included; a finite member whose squares overflow
    # reads its finite norm instead
    K = 512
    kernel = _HalfSpectrumRK4(K, m, 2)
    rng = np.random.default_rng(m)
    scale = 10.0 ** rng.uniform(-120.0, 120.0, (6, K + 1, 1)) / np.abs(kernel.v_weights).clip(1.0)
    y = (rng.standard_normal((6, K + 1, m)) + 1j * rng.standard_normal((6, K + 1, m))) * scale
    y[1, 40, m - 1] = complex(np.nan, 0.0)
    y[2, 3, 0] = complex(np.inf, 1.0)
    y[3, 7, 1] = complex(np.inf, np.nan)
    y[4] = 0.0
    y[5, K, 0] = 1e200  # overflows when squared
    with np.errstate(over="ignore", invalid="ignore"):
        v = reference_v(np.arange(K + 1), y)
        want = np.linalg.norm(v, axis=-1).max(axis=-1).tolist()
        got = kernel.sup_v(y)
    assert want[5] == math.inf
    assert got[5] == pytest.approx(scaled_norm(np.abs(v[5])), rel=m * 2.0**-52)
    assert repr(got[:5]) == repr(want[:5])  # repr round-trips every finite float


def scaled_norm(mags: np.ndarray) -> float:
    """max over rows of the Euclidean norm of each row, scaled by its largest entry first."""
    peak = mags.max(axis=-1, keepdims=True)
    return float((peak[..., 0] * np.linalg.norm(mags / peak, axis=-1)).max())


@pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 17])
def test_v_norms_keep_the_bits_of_the_norm(m):
    # the ledger's |V_k| table: numpy's norm may fuse the real part of
    # conj(V) V (re * re + im^2, one rounding), so re^2 + im^2 could move bits
    K, S = 64, 4
    rng = np.random.default_rng(m)
    shape = (S, K + 1, m)
    scale = 10.0 ** rng.uniform(-300.0, 120.0, shape)
    chains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    cells = chains.view(float)
    cells[rng.random(cells.shape) < 0.1] = 0.0
    cells[rng.random(cells.shape) < 0.1] = -0.0
    chains[1, 5, 0] = complex(np.nan, 1.0)
    chains[2, 9, m - 1] = complex(np.inf, 0.0)
    chains[2, 10, 0] = 1e200  # overflows when squared
    chains[3] = 0.0
    traj = Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.arange(S, dtype=float), chains=chains,
        forcings=np.zeros(shape[:2], dtype=complex), completed=True,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        v = traj.v_series()
        want = np.linalg.norm(v, axis=2)
        got = traj.v_norms()
    # a finite row whose squares overflow reads its finite norm; every other row keeps its bits
    over = np.isinf(want) & np.isfinite(v).all(axis=2)
    assert np.argwhere(over).tolist() == [[2, 10]]
    assert got[2, 10] == pytest.approx(scaled_norm(np.abs(v[2, 10])[None]), rel=m * 2.0**-52)
    assert_same_bits(got[~over], want[~over])
    assert np.isfinite(want).sum() > want.size // 2  # most of the table is finite


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 32),
    m=st.sampled_from([2, 3, 4]),
    nu=st.integers(0, 3),
    log_amp=st.floats(-3.0, 200.0),
    headroom=st.floats(1.0, 100.0),
    n_steps=st.integers(2, 10),
    calibrate=st.booleans(),
)
@example(K=32, m=3, nu=2, log_amp=-1.0, headroom=6.0, n_steps=4, calibrate=True)
@example(K=32, m=4, nu=1, log_amp=200.0, headroom=50.0, n_steps=4, calibrate=True)  # squares overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_monitor_peak_is_the_ledger_norm(K, m, nu, log_amp, headroom, n_steps, calibrate):
    # the blow-up monitor and the ledger take |V_k| by one routine: with a
    # snapshot at every step, each member's peak sup|V| is bit for bit the
    # largest of its v_norms(), also for a run that aborts (the partial
    # trajectory holds exactly the accepted states)
    amp = 10.0**log_amp
    initial = [f"{amp!r}*({expr})" for expr in REALITY_DATA[:m]]
    spec = CoefficientSpec.from_strings(m, 0.02, REALITY_COEFFS[m], nu, initial)
    dt = 0.02 / n_steps
    ceiling = 10.0 ** min(log_amp + headroom, 307.0)  # above the data
    try:
        traj = simulate(
            spec, K=K, dt=dt, snapshot_interval=dt, blowup_ceiling=ceiling, calibrate=calibrate
        )
        members = [traj, traj.calibration] if calibrate else [traj]
    except BlowUpError as err:
        members = [err.trajectory]
    for member in members:
        assert len(member) >= 1
        assert repr(member.peak_sup_v) == repr(float(member.v_norms().max()))


def reference_forcing(kernel, y):
    """The allocating u^nu transform that the workspace kernel replaced."""
    out = np.zeros(y.shape[:2], dtype=complex)
    if kernel.nu >= 1:
        grid = np.fft.irfft(y[0, :, 0], kernel.ring, norm="forward")
        prod = grid
        for _ in range(kernel.nu - 1):
            prod = prod * grid
        out[0] = np.fft.rfft(prod, norm="forward")[: y.shape[1]]
    return out


def reference_kernel_step(kernel, y, dt, stage_coeffs):
    """The allocating RK4 step that the workspace kernel replaced, as the bit-for-bit reference."""

    def rhs(z, coeff_row, f=None):
        if f is None:
            f = reference_forcing(kernel, z)
        out = np.empty_like(z)
        out[..., :-1] = z[..., 1:]
        out[..., -1] = (kernel.neg_ik_pow * z) @ coeff_row[::-1] + f
        return out

    k1 = rhs(y, stage_coeffs[0])
    k2 = rhs(y + 0.5 * dt * k1, stage_coeffs[1])
    k3 = rhs(y + 0.5 * dt * k2, stage_coeffs[1])
    k4 = rhs(y + dt * k3, stage_coeffs[2])
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def workspace_arrays(kernel):
    return [a for a in vars(kernel).values() if isinstance(a, np.ndarray)] + list(kernel.k)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("B", [1, 2])
def test_workspace_kernel_keeps_the_bits_of_the_allocating_step(nu, m, B):
    K, dt = 12, 2e-3
    kernel = _HalfSpectrumRK4(K, m, nu)
    rng = np.random.default_rng(100 * nu + 10 * m + B)
    y = (rng.standard_normal((B, K + 1, m)) + 1j * rng.standard_normal((B, K + 1, m))) * 0.3
    y[:, 0] = y[:, 0].real
    y[:, K, 1] = -0.0  # signed zeros must survive too
    for i in range(8):
        coeffs = rng.standard_normal((3, m))
        if i == 4 and B == 2:
            # the calibration member blows up and leaves the batch, as in ``simulate``
            y = y[:1]
        f = kernel.forcing(y)
        assert_same_bits(f, reference_forcing(kernel, y))
        want = reference_kernel_step(kernel, y, dt, coeffs)
        got = kernel.step(y, dt, coeffs, f)
        assert_same_bits(got, want)
        assert not any(np.shares_memory(got, a) for a in workspace_arrays(kernel))
        assert not any(np.shares_memory(f, a) for a in workspace_arrays(kernel))
        y = got
    assert kernel.shape == y.shape


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_public_step_after_simulate_uses_no_stale_workspace(nu):
    spec = CoefficientSpec.from_strings(
        3, 0.02, ["0", "-1 - t^2", "0.3*t"], nu, ["0.3/(1.25 - cos(x))", "0.1*sin(x)", "0"]
    )
    K, dt = 10, 1e-3
    traj = simulate(spec, K=K, dt=dt, snapshot_interval=0.01, calibrate=True)
    table = spec.coefficient_table(np.linspace(0.0, 0.02, 41))
    # simulate's recorded states follow the reference step from the same data
    kernel = _HalfSpectrumRK4(K, 3, nu)
    y = assemble_state(spec.initial, K)[None]
    for i in range(20):
        y = reference_kernel_step(kernel, y, dt, table[2 * i : 2 * i + 3])
    assert_same_bits(traj.chains[-1], y[0])
    # a public step afterwards agrees with the reference and leaves the trajectory alone
    before = traj.chains.copy()
    stage = table[-3:]
    for _ in range(2):
        advanced = step(traj.chains[-1], dt, stage, nu)
        assert_same_bits(advanced, reference_kernel_step(kernel, y, dt, stage)[0])
        assert not np.shares_memory(advanced, traj.chains)
    assert_same_bits(traj.chains, before)


# -- the exact oracle of u_tt = t^(2l) u_xx -------------------------------------

ORACLE_DTS = (0.01, 0.005, 0.0025)


def model_problem(l: int, nu: int = 0) -> CoefficientSpec:
    """["0", "-t^(2l)"] with the data 0.75/(1.25 - cos x), whose modes are 2^-|k|, at rest."""
    return CoefficientSpec.from_strings(
        2, 1.0, ["0", f"-t^{2 * l}"], nu, ["0.75/(1.25 - cos(x))", "0"]
    )


def oracle_error(l: int, traj: Trajectory) -> float:
    """Max |u_k(t) - y_k(t)| over the snapshots and the modes 0..K."""
    u = traj.u_hat_series()
    return float(np.abs(u - exact_modes(l, traj.times, traj.modes, u[0])).max())


def assert_fourth_order(errors: list[float]) -> None:
    # RK4's global error is c dt^4 (1 + O(dt)); c reads 0.069 (l = 1) and
    # 0.035 (l = 2) at K = 64, so 0.1 bounds it.  Halving dt divides the
    # error by 16 up to the O(dt) term (1.5% at dt = 0.01) and round-off
    # (400 steps at 1.1e-16 on |u_0| = 1: 4.4e-14, 1.6% of the finest error):
    # log2 of each ratio within 0.1 of 4.
    for dt, err in zip(ORACLE_DTS, errors):
        assert err <= 0.1 * dt**4, (dt, err)
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(math.log2(coarse / fine) - 4.0) <= 0.1, errors


@pytest.mark.parametrize("l", [1, 2])
def test_bessel_oracle_solves_the_mode_equation(l):
    # against DOP853 at rtol 1e-12 (3.7e-13 apart at worst), on unit data: the modes are linear;
    # y' scales like k, so its bound is 1e-11 k (7.5e-12 apart at worst, at k = 30)
    spec = model_problem(l)
    for k in (1, 7, 30):
        got = exact_modes(l, [0.0, 1.0], [k], [1.0])[:, 0]
        slope = exact_mode_derivatives(l, [0.0, 1.0], [k], [1.0])[:, 0]
        assert got[0] == 1.0 and slope[0] == 0.0
        want = scalar_mode_oracle(spec, k, np.array([1.0, 0.0]), 1.0)
        assert abs(got[1] - want[0]) <= 1e-11, (k, got[1], want)
        assert abs(slope[1] - want[1]) <= 1e-11 * k, (k, slope[1], want)


@pytest.mark.parametrize("l", [1, 2])
def test_rk4_is_fourth_order_against_the_bessel_oracle(l):
    runs = [simulate(model_problem(l), K=64, dt=dt, snapshot_interval=0.05) for dt in ORACLE_DTS]
    assert_fourth_order([oracle_error(l, run) for run in runs])


def test_calibration_member_is_the_linear_run_against_the_bessel_oracle():
    # analyze fits N on the calibration member of a nu >= 1 run: it is the
    # linear run, with the closed form's errors at every dt
    kw = dict(K=64, snapshot_interval=0.05)
    errors = []
    for dt in ORACLE_DTS:
        run = simulate(model_problem(1, nu=2), dt=dt, calibrate=True, **kw)
        assert run.completed
        errors.append(oracle_error(1, run.calibration))
        assert errors[-1] == oracle_error(1, simulate(model_problem(1), dt=dt, **kw))
    assert_fourth_order(errors)


@pytest.mark.parametrize("nu", [2, 3])
def test_constant_oracle_matches_quadrature(nu):
    # t(U) = int_a^U dy / y' by adaptive quadrature, with y = a + s^2 to smooth the
    # 1/sqrt(y - a) singularity at the start (quad evaluates no endpoint)
    for a, U in [(1.0, 1.5), (1.0, 50.0), (0.5, 7.0), (2.0, 1e3)]:
        want, err = quad(
            lambda s: 2.0 * s / slope_at(a + s * s, a, nu), 0.0, math.sqrt(U - a),
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
        assert err < 1e-11 * want
        assert time_to_reach(U, a, nu) == pytest.approx(want, rel=1e-10)
    assert time_to_reach(1.0, 1.0, nu) == 0.0
    assert time_to_reach(1e300, 1.0, nu) == pytest.approx(blowup_time(1.0, nu), rel=1e-12)


def constant_problem(a: float, nu: int, horizon: float) -> CoefficientSpec:
    """y'' = y^nu from y = a at rest, as constant data of u_tt - t^2 u_xx = u^nu."""
    return CoefficientSpec.from_strings(2, horizon, ["0", "-t^2"], nu, [repr(a), "0"])


@pytest.mark.parametrize("nu", [2, 3])
def test_blowup_of_constant_data_is_bracketed_by_the_exact_crossing_time(nu):
    # y'' = y^nu from y = 1 at rest, whatever the coefficients: sup|V| = |V_0| = |y'|
    # first exceeds the ceiling 1e9 at 2.9721880 (nu = 2) and 1.8540371 (nu = 3).
    # The abort lies in the step that crosses it: 2.972 < 2.9721880 <= 2.9725 and
    # 1.854 < 1.8540371 <= 1.8545, with RK4's time lag there far inside the margins
    with pytest.raises(BlowUpError) as info:
        simulate(constant_problem(1.0, nu, 4.0), K=8, dt=5e-4, snapshot_interval=1.0, blowup_ceiling=1e9)
    exact = time_to_slope(1e9, 1.0, nu)
    assert info.value.trajectory.abort_reason == "blow-up"
    assert info.value.last_valid_time < exact <= info.value.trajectory.abort_time
    assert info.value.trajectory.abort_time - info.value.last_valid_time == pytest.approx(5e-4)
    assert exact < blowup_time(1.0, nu)


@pytest.mark.parametrize("a, nu", [(1.0, 2), (0.5, 2), (1.0, 3)])
def test_calibration_member_of_constant_data_stays_at_rest(a, nu):
    # the linear member sees y'' = 0: its chains are (a, 0) at mode 0 and
    # zero elsewhere, bit for bit (signs of zero included), at every snapshot
    run = simulate(constant_problem(a, nu, 1.0), K=8, dt=1e-2, snapshot_interval=0.1, calibrate=True)
    assert run.completed and len(run.calibration) == 11
    want = np.zeros_like(run.calibration.chains)
    want[:, 0, 0] = a
    got = run.calibration.chains.view(float)
    assert np.array_equal(got, want.view(float)) and not np.signbit(got).any()
    assert run.chains[-1, 0, 0].real > a  # while the problem itself moves


@pytest.mark.parametrize("a, nu", [(1.0, 2), (0.5, 2), (1.0, 3)])
def test_rk4_is_fourth_order_against_the_constant_oracle(a, nu):
    # y(T*/2) from t(U) = T*/2 (1 + sqrt(3) at a = 1, nu = 2); the errors
    # read 2.8e-7, 1.8e-8 and 1.1e-9 at a = 1, nu = 2 (ratios 15.7 and 15.9)
    horizon = blowup_time(a, nu) / 2.0
    exact = brentq(
        lambda U: time_to_reach(U, a, nu) - horizon, a, 1e6, xtol=1e-300, rtol=4 * np.finfo(float).eps
    )
    spec = constant_problem(a, nu, horizon)
    errors = [
        abs(simulate(spec, K=8, dt=horizon / n, snapshot_interval=horizon).chains[-1, 0, 0] - exact)
        for n in (50, 100, 200)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0, errors


def test_galerkin_residual_shrinks_as_k_resolves_the_forcing():
    # the ring bins above K of u^2 on the weakhyp_nu2 problem, over the snapshots:
    # about 5.7e-5 at K = 16, 1.7e-9 at K = 32 and 2.0e-16 (round-off) at K = 128
    spec = CoefficientSpec.from_strings(
        2, 1.0, ["0", "-t^2"], 2, ["0.01*0.75/(1.25 - cos(x))", "0"]
    )
    residuals = [
        simulate(spec, K=K, dt=1e-3, snapshot_interval=0.05).galerkin_residual for K in (16, 32, 128)
    ]
    assert 1e-5 < residuals[0] < 1e-4 and 1e-9 < residuals[1] < 1e-8 and residuals[2] < 1e-15
    linear = simulate(replace(spec, nonlinearity=0), K=16, dt=1e-3, snapshot_interval=0.05)
    assert linear.galerkin_residual is None
