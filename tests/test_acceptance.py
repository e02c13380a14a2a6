"""Acceptance suite: eleven numbered criteria, one verdict line each.

Every criterion prints "[criterion N] PASS/FAIL - detail" before asserting,
so a full run (pytest -s tests/test_acceptance.py) reads as a checklist.
Shared simulation runs are cached in session fixtures; all randomness is
seeded, so the suite is bit-reproducible.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from weakhyp import (
    CoefficientSpec,
    WeightParams,
    build_energy_ledger,
    build_quasi_symmetrizer,
    convolution_power,
    default_c0,
    fit_decay,
    energy_inequality_check,
    master_estimate_check,
    phi_weight,
    rho_weight,
    simulate,
    verify_quasi_symmetrizer,
)
from weakhyp.cli import main as cli_main
from weakhyp.spectral import companion_stack
from weakhyp.symbol import diam_ratio, discriminant_check


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


WAVE = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
WEAK = CoefficientSpec.from_strings(
    2, 1.0, ["0", "-t^2"], 2, ["0.01*0.75/(1.25 - cos(x))", "0"]
)
WEAK_YAML = """\
m: 2
T: 1.0
coefficients: ["0", "-t^2"]
nu: 2
initial: ["0.01*0.75/(1.25 - cos(x))", "0"]
K: 128
dt: 0.001
snapshot_interval: 0.05
constants:
  r0: 0.18
  J_max: 24
"""


@pytest.fixture(scope="session")
def wave_run():
    return simulate(WAVE, K=64, dt=1e-3, snapshot_interval=0.05)


@pytest.fixture(scope="session")
def weak_run():
    return simulate(WEAK, K=128, dt=1e-3, snapshot_interval=0.05)


@pytest.fixture(scope="session")
def weak_run_refined():
    return simulate(WEAK, K=256, dt=1e-3, snapshot_interval=0.05)


# -- criterion 1: quasi-symmetrizer certificate -------------------------------


def certificate_pool(m: int, rng: np.random.Generator) -> list[np.ndarray]:
    """200 root sets, |root| <= 2, diam_ratio <= 4.

    Mix: 120 generic draws, 40 nearly-coincident pairs straddling zero,
    40 fully degenerate all-zero sets.  The degenerate families pin the
    commutator maxima at every eps; generic separated roots alone would
    have an eps-linear commutator constant and no stable per-eps envelope.
    """
    pool: list[np.ndarray] = []
    while len(pool) < 120:
        roots = np.sort(rng.uniform(-2.0, 2.0, size=m))
        (d,) = diam_ratio(roots[None])
        if np.isfinite(d) and d <= 4.0:
            pool.append(roots)
    while len(pool) < 160:
        delta = 10.0 ** rng.uniform(-4, -3)
        extra = rng.uniform(-2.0, 2.0, size=m - 2)
        roots = np.sort(np.concatenate([[-delta, delta], extra]))
        (d,) = diam_ratio(roots[None])
        if np.isfinite(d) and d <= 4.0:
            pool.append(roots)
    while len(pool) < 200:
        pool.append(np.zeros(m))
    return pool


def test_criterion_01_quasi_symmetrizer_certificate():
    eps_set = (1.0, 0.1, 0.01)
    t0 = time.monotonic()
    summary = []
    ok = True
    for m in (2, 3, 4):
        rng = np.random.default_rng(100 + m)
        per_eps = {e: 0.0 for e in eps_set}
        qs1_c = 0.0
        nd_min = math.inf
        pool = np.array(certificate_pool(m, rng))
        table = np.array([np.poly(roots)[1:] for roots in pool])
        certs = verify_quasi_symmetrizer(
            build_quasi_symmetrizer(pool), companion_stack(table), eps_set
        )
        for cert in certs:
            for e in eps_set:
                per_eps[e] = max(per_eps[e], cert.c_comm_by_eps[e])
            qs1_c = max(qs1_c, cert.c_upper, cert.c_lower)
            nd_min = min(nd_min, cert.c_nd)
        spread = max(per_eps.values()) / min(per_eps.values())
        ok = ok and qs1_c <= 1e3 and spread < 2.0 and nd_min >= 1e-3
        summary.append(f"m={m}: C={qs1_c:.3g} comm-spread={spread:.3f} c_nd={nd_min:.2e}")

    # negative control: a nonzero double root degenerates c_nd below any
    # linear-in-eps floor once eps is small enough
    (control,) = verify_quasi_symmetrizer(
        build_quasi_symmetrizer([[1.0, 1.0]]),
        companion_stack([[-2.0, 1.0]]),
        (1.0, 0.1, 0.01, 1e-3, 1e-4),
    )
    nd_tiny = control.c_nd_by_eps[1e-4]
    ok = ok and nd_tiny < 1e-3 * 1e-4
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    verdict(1, ok, "; ".join(summary) + f"; control c_nd(1e-4)={nd_tiny:.2e}; {elapsed:.1f}s")


# -- criterion 2: scalar-equation equivalence ---------------------------------


def dense_mode_oracle(spec: CoefficientSpec, k: int, y0: np.ndarray) -> np.ndarray:
    """Integrate the single-mode derivative chain with an adaptive dense solver."""
    m = spec.order
    ik = 1j * k

    def rhs(t, y_real):
        y = y_real[:m] + 1j * y_real[m:]
        dy = np.empty(m, dtype=complex)
        dy[:-1] = y[1:]
        coeffs = spec.coefficients_at(t)
        dy[-1] = -sum(coeffs[h - 1] * ik**h * y[m - h] for h in range(1, m + 1))
        return np.concatenate([dy.real, dy.imag])

    y0r = np.concatenate([y0.real, y0.imag])
    sol = solve_ivp(
        rhs, (0.0, spec.horizon), y0r, method="DOP853", rtol=1e-12, atol=1e-14
    )
    assert sol.success
    return sol.y[:m, -1] + 1j * sol.y[m:, -1]


def test_criterion_02_scalar_equivalence():
    profiles = [
        (2, ["0", "-1"]),
        (2, ["0", "-t^2"]),
        (2, ["sin(t)", "-1"]),
        (3, ["0", "-t^2", "0"]),
    ]
    t0 = time.monotonic()
    worst = 0.0
    for m, coeffs in profiles:
        initial = ["cos(3*x)"] + ["0"] * (m - 1)
        spec = CoefficientSpec.from_strings(m, 1.0, coeffs, 0, initial)
        traj = simulate(spec, K=8, dt=1e-3, snapshot_interval=1.0)
        idx = np.flatnonzero(traj.modes == 3)[0]
        expected = dense_mode_oracle(spec, 3, traj.chains[0, idx])
        got = traj.chains[-1, idx]
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7
    verdict(2, ok, f"max chain deviation {worst:.2e} (tol 1e-7), {len(profiles)} profiles, {elapsed:.1f}s")


# -- criterion 3: d'Alembert ---------------------------------------------------


def test_criterion_03_dalembert(wave_run):
    K = wave_run.K
    u = wave_run.u_hat_series()  # modes 0..K; mode -k is conj(mode k)
    worst = 0.0
    for i, t in enumerate(wave_run.times):
        exact = np.zeros(K + 1, dtype=complex)
        exact[1] = 0.5 * math.cos(t)
        err2 = np.abs(u[i] - exact) ** 2
        l2 = math.sqrt(2.0 * math.pi * float(err2[0] + 2.0 * err2[1:].sum()))  # Parseval over -K..K
        worst = max(worst, l2)
    ok = worst <= 1e-6
    verdict(3, ok, f"max L2 error vs cos x cos t = {worst:.2e} (tol 1e-6)")


# -- criterion 4: radius conservation ------------------------------------------


def test_criterion_04_radius_conservation():
    # traveling Poisson-kernel wave: u(x, t) = P(x - t), so |u_k| = 0.5^|k|
    # is conserved exactly and the decay fit must return ln 2 at every time
    spec = CoefficientSpec.from_strings(
        2, 1.0, ["0", "-1"], 0,
        ["0.75/(1.25 - cos(x))", "-0.75*sin(x)/(1.25 - cos(x))^2"],
    )
    traj = simulate(spec, K=128, dt=1e-3, snapshot_interval=0.25)
    u = traj.u_hat_series()
    target = math.log(2.0)
    worst = 0.0
    for i, t in enumerate(traj.times):
        est = fit_decay(u[i])
        worst = max(worst, abs(est.r_hat - target) / target)
    ok = worst <= 0.05 and list(traj.times) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    verdict(4, ok, f"max |r_hat - ln2|/ln2 = {worst:.2e} over 5 times (tol 5e-2)")


# -- criterion 5: propagation of analyticity, weakly hyperbolic ----------------


def test_criterion_05_propagation_of_analyticity(weak_run, weak_run_refined):
    ok = weak_run.completed
    u = weak_run.u_hat_series()
    r_min = math.inf
    for i in range(len(weak_run)):
        r_min = min(r_min, fit_decay(u[i]).r_hat)
    ok = ok and r_min >= 0.2

    u_fine = weak_run_refined.u_hat_series()
    K = weak_run.K
    sup_diff = 0.0
    for i in range(len(weak_run)):
        window = u_fine[i][: K + 1]  # modes 0..K; modes -K..-1 are their conjugates
        sup_diff = max(sup_diff, float(np.abs(u[i] - window).max()))
    ok = ok and sup_diff <= 1e-8
    verdict(5, ok, f"completed, min r_hat = {r_min:.4f} (>= 0.2), K=256 sup diff = {sup_diff:.2e} (tol 1e-8)")


# -- criterion 6: weight laws ---------------------------------------------------


def test_criterion_06_weight_laws():
    from scipy.integrate import quad

    t0 = time.monotonic()
    param_sets = [WeightParams(1.0, 1.0, 1), WeightParams(2.0, 1.5, 2)]

    # exhaustive sub-additivity over signed pairs |k1|, |k2| <= 512
    signed = np.arange(-512, 513)
    kmag = np.arange(0, 1025).astype(float)
    sub_ok = True
    for params in param_sets:
        for t in (0.0, 0.25 * params.horizon, 0.75 * params.horizon, 0.9375 * params.horizon):
            for fn in (phi_weight, rho_weight):
                table = np.atleast_1d(fn(float(t), kmag, params))
                lhs = table[np.abs(signed[:, None] + signed[None, :])]
                rhs = table[np.abs(signed)][:, None] + table[np.abs(signed)][None, :]
                sub_ok = sub_ok and bool((lhs <= rhs + 1e-12 * (1.0 + rhs)).all())

    # one logarithmic constant covers every k up to 1e6
    est_ok = True
    est_note = []
    for params in param_sets:
        ks = np.unique(
            np.concatenate([np.arange(0, 65), np.geomspace(64, 1e6, 200).astype(np.int64)])
        ).astype(float)
        c_est = 0.0
        for t in np.linspace(0.0, params.horizon, 41):
            ratio = np.atleast_1d(rho_weight(float(t), ks, params)) / (1.0 + np.log1p(ks))
            c_est = max(c_est, float(ratio.max()))
        bound = params.c0 * (params.horizon + max(math.log(params.horizon), 0.0) + 2.0)
        est_ok = est_ok and c_est <= bound
        est_note.append(f"C_est={c_est:.3f}<={bound:.3f}")

    # closed-form rho equals the time quadrature of phi
    quad_err = 0.0
    for params in param_sets:
        for t, xi in ((0.0, 1.0), (0.0, 25.7), (0.3, 100.0), (0.5 * params.horizon, 3.0)):
            tau = params.horizon - 1.0 / xi if xi > 1.0 / params.horizon else None
            pts = [tau] if tau is not None and t < tau else None
            val, _ = quad(
                lambda s: phi_weight(s, xi, params), t, params.horizon,
                points=pts, limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            quad_err = max(quad_err, abs(rho_weight(t, xi, params) - val))

    elapsed = time.monotonic() - t0
    ok = sub_ok and est_ok and quad_err <= 1e-10 and elapsed < 60.0
    verdict(6, ok, f"sub-additive={sub_ok}; {'; '.join(est_note)}; quad err={quad_err:.1e}; {elapsed:.1f}s")


# -- criterion 7: weighted convolution inequality -------------------------------


def test_criterion_07_weighted_convolution():
    K = 128
    modes = np.arange(-K, K + 1).astype(float)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(3):
        u = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
        u *= np.exp(-0.1 * np.abs(modes))
        for m in (2, 3):
            params = WeightParams(c0=1.0, horizon=1.0, loss_exponent=m - 1)
            w = np.exp(np.atleast_1d(rho_weight(0.0, modes, params)))
            w *= (1.0 + np.abs(modes)) ** (m - 1)
            g = w * np.abs(u)
            for nu in (2, 3):
                lhs = w * np.abs(convolution_power(u, nu))
                rhs = convolution_power(g, nu)
                worst = max(worst, float((lhs / np.maximum(rhs, 1e-300)).max()))
    ok = worst <= 1.0 + 1e-12
    verdict(7, ok, f"max pointwise lhs/rhs = {worst:.3e} over |k|<=128, nu in {{2,3}}")


# -- criterion 8: weighted-energy differential inequality ---------------------------


def test_criterion_08_energy_differential_inequality(wave_run):
    params = WeightParams(c0=default_c0(WAVE), horizon=1.0, loss_exponent=3)
    rep = energy_inequality_check(wave_run, WAVE, params, slack=0.05)
    ok = rep.passed and rep.max_ratio <= 1.05 and rep.checked > 2000
    verdict(8, ok, f"max FD ratio = {rep.max_ratio:.3f} (<= 1.05), C0 = {rep.c0:g}, {rep.checked} points")


# -- criterion 9: continuation G < L --------------------------------------------


def test_criterion_09_continuation(weak_run):
    # C0 and N by the CLI's rule: N is fitted on the linear calibration
    # member, integrated beside the run without changing its bits
    calibrated = simulate(WEAK, K=128, dt=1e-3, snapshot_interval=0.05, calibrate=True)
    assert calibrated.chains.tobytes() == weak_run.chains.tobytes()
    c0 = default_c0(WEAK)
    trial = WeightParams(c0=c0, horizon=WEAK.horizon, loss_exponent=WEAK.order + 1)
    fitted = master_estimate_check(calibrated.calibration, trial).fitted_n
    n_exponent = WEAK.order + 1 if fitted is None else fitted
    # the series are summed in closed form over each snapshot's resolved
    # band, which must end below K: the round-off plateau is cut, not summed
    ledger = build_energy_ledger(
        weak_run, WEAK, c0=c0, n_exponent=n_exponent, j_max=24, r0=0.18
    )
    energies = ledger.energies
    below = bool((energies.g_values < ledger.l_const).all())
    ok = (
        ledger.resolved
        and below
        and ledger.continuation.passed
        and ledger.continuation.sharp_passed
    )
    margin = ledger.l_const - float(energies.g_values.max())
    bands = f"{ledger.band_hi.min()}..{ledger.band_hi.max()}"
    verdict(9, ok, f"band_hi {bands} <= K = 128, G<L margin={margin:.3f}, sharp bound holds")


# -- criterion 10: discriminant cross-check -------------------------------------


def brute_discriminant(roots: np.ndarray) -> float:
    prod = 1.0
    for i in range(roots.size):
        for j in range(i + 1, roots.size):
            prod *= (roots[i] - roots[j]) ** 2
    return prod


def monomial_scale(m: int, coeffs: np.ndarray) -> float:
    """Sum of |monomials| of the closed form: the working precision scale.

    Near root collisions the discriminant is a catastrophic cancellation of
    O(1) monomials, so "relative" error is measured against this scale (or
    |Delta| itself when that is larger), not against the vanishing value.
    """
    a1, a2 = coeffs[0], coeffs[1]
    if m == 2:
        return a1 * a1 + 4.0 * abs(a2)
    a3 = coeffs[2]
    return (
        4.0 * abs(a2) ** 3 + 27.0 * a3 * a3 + a1 * a1 * a2 * a2
        + 4.0 * abs(a1) ** 3 * abs(a3) + 18.0 * abs(a1 * a2 * a3)
    )


def test_criterion_10_discriminant_cross_check():
    rng = np.random.default_rng(55)
    note = []
    ok = True
    for m, tol in ((2, 1e-10), (3, 1e-8)):
        worst = 0.0
        for _ in range(10_000):
            roots = np.sort(rng.uniform(-3.0, 3.0, size=m))
            coeffs = np.poly(roots)[1:]
            (delta,) = discriminant_check(coeffs[None]).delta
            brute = brute_discriminant(roots)
            scale = max(abs(brute), monomial_scale(m, coeffs), 1e-300)
            worst = max(worst, abs(delta - brute) / scale)
        ok = ok and worst <= tol
        note.append(f"m={m}: {worst:.2e} (tol {tol:g})")
    verdict(10, ok, "; ".join(note) + " over 10^4 draws each")


# -- criterion 11: determinism ---------------------------------------------------


def test_criterion_11_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    cfg = root / "weak.yaml"
    cfg.write_text(WEAK_YAML)
    outs = {}
    for threads in (1, 4):
        out = root / f"threads{threads}"
        code = cli_main([
            "analyze", "--config", str(cfg),
            "--threads", str(threads), "--output", str(out),
        ])
        assert code == 0
        outs[threads] = out
    names = sorted(p.name for p in outs[1].iterdir())
    ok = names == sorted(p.name for p in outs[4].iterdir()) and len(names) >= 5
    mismatch = []
    for name in names:
        if (outs[1] / name).read_bytes() != (outs[4] / name).read_bytes():
            mismatch.append(name)
            ok = False
    detail = f"{len(names)} files bitwise identical across threads {{1,4}}"
    if mismatch:
        detail = f"mismatch in {mismatch}"
    verdict(11, ok, detail)
