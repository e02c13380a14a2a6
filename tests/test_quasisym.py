"""Quasi-symmetrizer layers, certificate constants, witnesses and the sampled audit.

Closed forms used as oracles (order 2, roots lam1, lam2):

    Q_0 = w1 w1^T + w2 w2^T with w1 = (-lam2, 1), w2 = (-lam1, 1)
    Q_1 = 2 * diag(1, 0)

so roots (0,0) give Q_0 = diag(0, 2), roots (-1,1) give Q_0 = diag(2, 2),
roots (1,1) give Q_0 = [[2,-2],[-2,2]].  The commutator constant for roots
(-1,1) is eps*sqrt(2)/sqrt(2+2 eps^2) and for roots (0,0) it is 1 for every
eps; the near-diagonality constant for the double root (1,1) is
1 - 1/sqrt(1+eps^2) ~ eps^2/2, decaying below any eps-linear floor.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp import quasisym
from weakhyp.quasisym import (
    _draw_blocks,
    _forms,
    _sampled_extremes,
    audit_binding_rows,
    build_quasi_symmetrizer,
    sample_unit_vectors,
    verify_quasi_symmetrizer,
)
from weakhyp.spectral import companion_stack


def test_layers_frozen_double_zero():
    qs = build_quasi_symmetrizer([[0.0, 0.0]])
    np.testing.assert_allclose(qs.layers[0], [[[0.0, 0.0], [0.0, 2.0]]])
    np.testing.assert_allclose(qs.layers[1], [[[2.0, 0.0], [0.0, 0.0]]])
    np.testing.assert_allclose(qs.assemble([0.5]), [[[[0.5, 0.0], [0.0, 2.0]]]])


def test_layers_frozen_separated():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    np.testing.assert_allclose(qs.layers[0], [[[2.0, 0.0], [0.0, 2.0]]])
    np.testing.assert_allclose(qs.layers[1], [[[2.0, 0.0], [0.0, 0.0]]])


def test_layers_symmetric_psd():
    rng = np.random.default_rng(17)
    for _ in range(120):
        m = int(rng.integers(2, 5))
        roots = rng.uniform(-2.0, 2.0, size=m)
        qs = build_quasi_symmetrizer(roots[None])
        assert len(qs.layers) == m
        for (layer,) in qs.layers:
            np.testing.assert_allclose(layer, layer.T, atol=1e-12)
            w = np.linalg.eigvalsh(layer)
            assert w.min() >= -1e-10 * max(1.0, w.max())
        # the full family must be strictly positive definite for eps > 0
        w = np.linalg.eigvalsh(qs.assemble([0.3]))
        assert w.min() > 0.0


def exact_layers(roots):
    """Layers Q_0..Q_{m-1} by their definition, in exact rational arithmetic.

    Q_r sums, over root subsets S of size r and j outside S, c c^T with c
    the coefficients of prod (lam - lam_i) over the i neither in S nor j.
    """
    m = len(roots)
    layers = []
    for size in range(m):
        layer = [[Fraction(0)] * m for _ in range(m)]
        for subset in itertools.combinations(range(m), size):
            for j in (j for j in range(m) if j not in subset):
                c = [Fraction(1)] + [Fraction(0)] * (m - 1)
                for i in (i for i in range(m) if i not in subset and i != j):
                    c = [(c[deg - 1] if deg else 0) - roots[i] * c[deg] for deg in range(m)]
                for a in range(m):
                    for b in range(m):
                        layer[a][b] += c[a] * c[b]
        layers.append(layer)
    return layers


@st.composite
def clustered_roots(draw):
    """m = 2..5 real roots at a scale 1e-6..1e6, drawn from a few values, zero among them,
    so that roots coincide at zero and away from it."""
    m = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    unit = st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-3)
    values = [0.0] + [scale * x for x in draw(st.lists(unit, min_size=1, max_size=3))]
    return sorted(draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(clustered_roots())
def test_layers_match_the_exact_definition_on_clustered_roots(roots):
    # Q_r is formed from C(m, r+1) rank-one terms, each entry a product of two
    # coefficients of at most m-1 rounded steps: within (4m + C(m, r+1)) eps of
    # the same sum over the magnitudes |lam_i|, which is the entry's rounding scale
    m = len(roots)
    layers = build_quasi_symmetrizer(np.array([roots])).layers
    exact = exact_layers([Fraction(x) for x in roots])
    scale = exact_layers([-Fraction(abs(x)) for x in roots])
    eps = Fraction(np.finfo(float).eps)
    for r, (got, want, size) in enumerate(zip(layers, exact, scale)):
        bound = (4 * m + math.comb(m, r + 1)) * eps
        for a in range(m):
            for b in range(m):
                assert abs(Fraction(got[0, a, b]) - want[a][b]) <= bound * size[a][b], (r, a, b)


def test_certificate_frozen_separated_roots():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    a = companion_stack([[0.0, -1.0]])  # lam^2 - 1
    (cert,) = verify_quasi_symmetrizer(qs, a, [1.0])
    assert cert.c_lower == pytest.approx(0.5)
    assert cert.c_upper == pytest.approx(4.0)
    assert cert.c_comm == pytest.approx(1.0 / math.sqrt(2.0))
    assert cert.c_nd == pytest.approx(1.0)
    assert cert.passed


def test_commutator_scaling_separated_roots():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    a = companion_stack([[0.0, -1.0]])
    for eps in (1.0, 0.1, 0.01):
        (cert,) = verify_quasi_symmetrizer(qs, a, [eps])
        expected = eps * math.sqrt(2.0) / math.sqrt(2.0 + 2.0 * eps * eps)
        assert cert.c_comm == pytest.approx(expected, rel=1e-10)


def test_commutator_constant_for_zero_roots():
    # double root at zero: C_comm = 1 independent of eps
    qs = build_quasi_symmetrizer([[0.0, 0.0]])
    a = companion_stack([[0.0, 0.0]])
    for eps in (1.0, 0.1, 0.01, 1e-4):
        (cert,) = verify_quasi_symmetrizer(qs, a, [eps])
        assert cert.c_comm == pytest.approx(1.0, rel=1e-9)


def test_commutator_constant_triple_zero():
    # all-zero roots, order 3: C_comm = sqrt(5/2) for every eps
    qs = build_quasi_symmetrizer([[0.0, 0.0, 0.0]])
    a = companion_stack([[0.0, 0.0, 0.0]])
    for eps in (1.0, 0.1, 0.01):
        (cert,) = verify_quasi_symmetrizer(qs, a, [eps])
        assert cert.c_comm == pytest.approx(math.sqrt(2.5), rel=1e-8)


def test_near_diagonality_negative_control():
    # nonzero double root: c_nd ~ eps^2/2 falls below any linear-in-eps floor
    qs = build_quasi_symmetrizer([[1.0, 1.0]])
    a = companion_stack([[-2.0, 1.0]])
    for eps in (1.0, 0.1, 0.01, 1e-3, 1e-4):
        (cert,) = verify_quasi_symmetrizer(qs, a, [eps])
        expected = 1.0 - 1.0 / math.sqrt(1.0 + eps * eps)
        assert cert.c_nd == pytest.approx(expected, rel=1e-6, abs=1e-15)
    (smallest,) = verify_quasi_symmetrizer(qs, a, [1e-4])
    assert smallest.c_nd < 1e-3 * 1e-4


def test_sampled_audit_consistent_with_exact():
    rng = np.random.default_rng(23)
    for _ in range(20):
        roots = np.sort(rng.uniform(-2.0, 2.0, size=(4, 3)), axis=1)
        qs = build_quasi_symmetrizer(roots)
        a = companion_stack(np.array([np.poly(r)[1:] for r in roots]))
        certs = verify_quasi_symmetrizer(qs, a, [1.0, 0.1])
        sampled_comm, sampled_nd = audit_binding_rows(qs, a, certs, 2000, 23)
        # random directions can only underestimate the extremal ratios
        assert sampled_comm <= max(c.c_comm for c in certs) * (1.0 + 1e-9)
        assert sampled_nd >= min(c.c_nd for c in certs) - 1e-9


def separated_and_double(eps_set):
    """The certificates of roots (-1, 1) and (1, 1) over ``eps_set``."""
    ((sep,), (double,)) = (
        verify_quasi_symmetrizer(build_quasi_symmetrizer([roots]), companion_stack([coeffs]), eps_set)
        for roots, coeffs in (([-1.0, 1.0], [0.0, -1.0]), ([1.0, 1.0], [-2.0, 1.0]))
    )
    return sep, double


def test_witnesses_reproduce_the_closed_forms():
    # roots (-1, 1): C_comm = eps sqrt(2) / sqrt(2 + 2 eps^2), c_nd = 1 (Q is diagonal);
    # roots (1, 1): c_nd = 1 - 1/sqrt(1 + eps^2)
    for eps in (1.0, 0.1, 0.01):
        sep, double = separated_and_double([eps])
        expected = eps * math.sqrt(2.0) / math.sqrt(2.0 + 2.0 * eps * eps)
        assert sep.witness_c_comm == pytest.approx(expected, rel=1e-14)
        assert sep.witness_c_nd == pytest.approx(1.0, rel=1e-15)
        expected = 1.0 - 1.0 / math.sqrt(1.0 + eps * eps)
        assert double.witness_c_nd == pytest.approx(expected, rel=1e-6, abs=1e-15)
        assert double.witness_gap <= 1e-6


def test_c_nd_eps_slope():
    # the nonzero double root: c_nd ~ eps^2 / 2, so the exponent tends to 2;
    # the separated roots: c_nd = 1 at every eps
    sep, double = separated_and_double([1.0, 1e-3, 1e-4])
    assert double.c_nd_eps_slope == pytest.approx(2.0, abs=1e-6)
    assert sep.c_nd_eps_slope == 0.0
    assert all(cert.c_nd_eps_slope is None for cert in separated_and_double([0.1]))
    # where some c_nd is 0 (a diagonal entry of Q_eps is not positive) there is no exponent
    assert dataclasses.replace(double, c_nd_by_eps={1.0: 0.5, 0.1: 0.0}).c_nd_eps_slope is None
    # a zero diagonal entry of Q gives c_nd = 0: no exponent
    zero = dataclasses.replace(double, c_nd_by_eps={1.0: 0.5, 0.1: 0.0})
    assert zero.c_nd_eps_slope is None


@settings(max_examples=200, deadline=None)
@given(clustered_roots(), st.lists(st.sampled_from([1.0, 0.3, 0.1, 0.01]), min_size=1, max_size=3, unique=True))
def test_witnesses_and_binding_rows_against_the_exact_constants(roots, eps_set):
    # rounding bounds, with u the unit roundoff and kappa = cond(Q_eps) over eps_set:
    # the C_comm quotients are formed against Q, which loses up to m^2 u kappa
    # relative; the c_nd quotients are those of D^(-1/2) Q D^(-1/2), whose
    # entries lie in [-1, 1], and lose up to m^2 u absolute.  A margin of 4
    # over the largest loss seen (0.92 and 0.33 of these, 2000 examples).
    m = len(roots)
    u = np.finfo(float).eps
    qs = build_quasi_symmetrizer(np.array([roots]))
    a = companion_stack(np.poly(roots)[1:][None])
    (cert,) = verify_quasi_symmetrizer(qs, a, eps_set)
    w = np.linalg.eigvalsh(qs.assemble(eps_set)[0])
    kappa = np.max(np.where(w[:, 0] > 0, w[:, -1] / w[:, 0], np.inf))
    comm_tol = 4 * m * m * u * kappa
    nd_tol = 4 * m * m * u
    assert abs(cert.witness_c_nd - cert.c_nd) <= nd_tol
    if kappa <= 1e8:  # well-conditioned Q_eps
        assert abs(cert.witness_c_comm - cert.c_comm) <= comm_tol * cert.c_comm
    sampled_comm, sampled_nd = audit_binding_rows(qs, a, [cert], 500, m)
    assert sampled_comm <= cert.c_comm * (1.0 + comm_tol)
    assert sampled_nd >= cert.c_nd - nd_tol


def test_certificate_to_dict_keys():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    (cert,) = verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]]), [1.0, 0.1])
    d = cert.to_dict()
    assert set(d) == {
        "eps_set", "C_lower", "C_upper", "C_comm", "C_comm_by_eps", "c_nd",
        "c_nd_by_eps", "witness_C_comm", "witness_c_nd", "diam_ratio",
        "nd_floor", "pass",
    }
    assert d["pass"]["all"] is True


def test_verify_rejects_mismatched_dimensions():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    with pytest.raises(ValueError):
        verify_quasi_symmetrizer(qs, np.zeros((1, 3, 3)), [1.0])
    with pytest.raises(ValueError):
        verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]])[0], [1.0])
    with pytest.raises(ValueError):
        verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]]), [0.0])


def test_table_routines_refuse_one_row():
    with pytest.raises(ValueError, match=r"table of shape \(n, m\), got shape \(2,\)"):
        build_quasi_symmetrizer([-1.0, 1.0])
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    with pytest.raises(ValueError, match=r"shape \(1, 2, 2\), got \(2, 2\)"):
        verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]])[0], [1.0])


# -- batched certificate against the per-time algorithm ------------------------


def reference_layers(roots):
    """Layers Q_0..Q_{m-1} for one root set by the subset formula, one rank-one term at a time."""
    m = len(roots)
    layers = []
    for size in range(m):
        layer = np.zeros((m, m))
        for chosen in itertools.combinations(range(m), size + 1):
            w = np.zeros(m)
            w[0] = 1.0
            factors = [roots[i] for i in range(m) if i not in chosen]
            for deg, root in enumerate(factors):
                prev = w[: deg + 1].copy()
                w[: deg + 2] = 0.0
                w[1 : deg + 2] += prev
                w[: deg + 1] -= root * prev
            layer += np.outer(w, w)
        layers.append((size + 1) * layer)
    return layers


def reference_certificate(layers, a, eps_set):
    """Certificate constants of one time, one eps after the other.

    The witness quotients are formed from each witness v as the complex forms
    v^H B v and v^H Q v; ``kappa`` is the largest condition number of Q_eps.
    """
    m = a.shape[0]
    out = {"c_lower": 0.0, "c_upper": 0.0, "comm": {}, "nd": {}, "w_comm": -math.inf, "w_nd": math.inf}
    out["kappa"] = 1.0
    for eps in eps_set:
        q = np.zeros((m, m))
        for r, layer in enumerate(layers):
            q += eps ** (2 * r) * layer
        w, u = np.linalg.eigh(q)
        out["c_upper"] = max(out["c_upper"], float(w[-1]))
        out["c_lower"] = max(out["c_lower"], eps ** (2 * (m - 1)) / w[0] if w[0] > 0 else math.inf)
        out["kappa"] = max(out["kappa"], w[-1] / w[0] if w[0] > 0 else math.inf)
        b = q @ a - a.T @ q
        inv_sqrt = u @ np.diag(w**-0.5) @ u.T
        pencil = inv_sqrt @ (1j * b) @ inv_sqrt
        out["comm"][eps] = float(np.abs(np.linalg.eigvalsh(pencil)).max()) / eps
        gen_eigs, g = np.linalg.eigh(pencil)
        v = inv_sqrt @ g[:, np.abs(gen_eigs).argmax()]
        w_comm = abs(v.conj() @ b @ v) / (eps * (v.conj() @ q @ v).real)
        out["w_comm"] = max(out["w_comm"], float(w_comm))
        d = np.diag(q)
        norm = q / np.sqrt(np.outer(d, d))
        out["nd"][eps] = float(np.linalg.eigvalsh(norm)[0])
        x = np.linalg.eigh(norm)[1][:, 0] / np.sqrt(d)
        out["w_nd"] = min(out["w_nd"], float(x @ q @ x / (d @ (x * x))))
    return out


def assert_witnesses_match(cert, ref, m):
    # the rounding bounds of test_witnesses_and_binding_rows_against_the_exact_constants
    u = np.finfo(float).eps
    assert abs(cert.witness_c_comm - ref["w_comm"]) <= 8 * m * m * u * ref["kappa"] * ref["w_comm"]
    assert abs(cert.witness_c_nd - ref["w_nd"]) <= 8 * m * m * u


@pytest.mark.parametrize("eps_set", [(1.0, 0.1, 0.01), (0.05,)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_certificate_matches_per_time_algorithm(m, eps_set):
    rng = np.random.default_rng(40 + m)
    roots = np.sort(rng.uniform(-2.0, 2.0, size=(24, m)), axis=1)
    roots[::3, 0] = 0.0  # a zero root in every third set
    roots[1::4, :2] = 0.0  # a double zero root
    table = np.array([np.poly(r)[1:] for r in roots])
    qs = build_quasi_symmetrizer(roots)
    certs = verify_quasi_symmetrizer(qs, companion_stack(table), eps_set)
    assert len(certs) == roots.shape[0]
    for i, cert in enumerate(certs):
        layers = reference_layers(roots[i])
        for got, want in zip(qs.layers, layers):
            assert np.array_equal(got[i], want)
        ref = reference_certificate(layers, companion_stack(table)[i], eps_set)
        assert (cert.c_lower, cert.c_upper) == (ref["c_lower"], ref["c_upper"])
        assert cert.c_comm_by_eps == ref["comm"] and cert.c_comm == max(ref["comm"].values())
        assert cert.c_nd_by_eps == ref["nd"] and cert.c_nd == min(ref["nd"].values())
        assert_witnesses_match(cert, ref, m)
        # one time's bits do not depend on the stack it sits in
        single = verify_quasi_symmetrizer(
            build_quasi_symmetrizer(roots[i : i + 1]), companion_stack(table[i : i + 1]), eps_set
        )
        assert single == [cert]


def test_batched_certificate_on_roots_minus_t_zero_t():
    # lam^3 - t^2 lam, the root family {-t, 0, t} of the certify_m3 benchmark
    t = np.linspace(0.0, 1.0, 129)
    roots = np.stack([-t, 0.0 * t, t], axis=1)
    table = np.stack([0.0 * t, -t * t, 0.0 * t], axis=1)
    eps_set = (1.0, 0.1, 0.01)
    qs = build_quasi_symmetrizer(roots)
    a = companion_stack(table)
    certs = verify_quasi_symmetrizer(qs, a, eps_set)
    refs = [reference_certificate(reference_layers(roots[i]), a[i], eps_set) for i in range(len(t))]
    for cert, ref in zip(certs, refs):
        assert (cert.c_lower, cert.c_upper) == (ref["c_lower"], ref["c_upper"])
        assert cert.c_comm_by_eps == ref["comm"] and cert.c_nd_by_eps == ref["nd"]
        assert_witnesses_match(cert, ref, 3)
    # the sampled audit runs at the first row of the largest C_comm and of the smallest c_nd
    rows = [(i, eps) for i in range(len(t)) for eps in eps_set]
    binding = [
        max(rows, key=lambda row: refs[row[0]]["comm"][row[1]]),
        min(rows, key=lambda row: refs[row[0]]["nd"][row[1]]),
    ]
    q = np.stack(
        [sum(eps ** (2 * r) * layer for r, layer in enumerate(reference_layers(roots[i]))) for i, eps in binding]
    )
    a_rows = a[[i for i, _ in binding]]
    b = q @ a_rows - a_rows.transpose(0, 2, 1) @ q
    ref = plain_audit(sample_unit_vectors(3, 10000, 7), q, b, np.array([eps for _, eps in binding]))
    sampled_comm, sampled_nd = audit_binding_rows(qs, a, certs, 10000, 7)
    assert abs(sampled_comm - ref["comm"][0]) <= ref["comm_tol"][0]
    assert abs(sampled_nd - ref["nd"][1]) <= ref["nd_tol"][1]
    assert sampled_comm < max(c.c_comm for c in certs) and sampled_nd > min(c.c_nd for c in certs)


# -- the sampled audit against a plain per-sample reference ---------------------


def blocks_of(samples, rows):
    """Directions ``samples`` as ``_draw_blocks`` yields them, ``rows`` at a time."""
    return [
        (start, samples[start : start + rows].real, samples[start : start + rows].imag)
        for start in range(0, len(samples), rows)
    ]


def plain_audit(samples, q, b, eps_rows):
    """The audit's two ratios per row, over the full Q and B of every sample.

    Also returns their rounding tolerances (the gamma bound of
    ``reference_certificate``), the forms (Q v, v), and the smallest margin
    |(Q v, v)| / (gamma sum |q_ij| |v_i| |v_j|) of a nonzero form, which must
    be large for the sign of (Q v, v) to be the same in any summation order.
    """
    m = q.shape[1]
    gamma = 2 * (m * m + 3) * np.finfo(float).eps
    av = np.abs(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = np.einsum("si,rij,sj->rs", samples.conj(), q, samples).real
        comm = np.abs(np.einsum("si,rij,sj->rs", samples.conj(), b, samples))
        diag_quad = np.einsum("rj,sj->rs", np.diagonal(q, axis1=1, axis2=2), av * av)
        q_abs = np.einsum("si,rij,sj->rs", av, np.abs(q), av)
        b_abs = np.einsum("si,rij,sj->rs", av, np.abs(b), av)
        eps = eps_rows[:, None]
        good = quad > 0
        comm_ratio = np.where(good, comm / (eps * quad), -np.inf)
        nd_ratio = np.where(good, quad / diag_quad, np.inf)
        comm_tol = np.where(good, gamma * (b_abs + comm / quad * q_abs) / (eps * quad), 0.0)
        nd_tol = np.where(good, gamma * (q_abs + quad) / np.abs(diag_quad), 0.0)
        nonzero = (quad != 0) & np.isfinite(quad)
        margin = np.min(np.abs(quad[nonzero]) / (gamma * q_abs[nonzero]), initial=np.inf)
    return {
        "comm": comm_ratio.max(axis=1, initial=-np.inf),
        "nd": nd_ratio.min(axis=1, initial=np.inf),
        "comm_tol": comm_tol.max(axis=1, initial=0.0),
        "nd_tol": nd_tol.max(axis=1, initial=0.0),
        "quad": quad,
        "margin": margin,
    }


def audit_stack(m, rng):
    """Rows of symmetric q and antisymmetric b, in this order: positive
    definite, singular PSD, indefinite, negative definite (every sample
    masked), NaN in q (every form NaN), and NaN in b."""
    s = rng.standard_normal((m, m))
    pd = s @ s.T + 0.1 * np.eye(m)
    singular = np.zeros((m, m))
    singular[1:, 1:] = pd[1:, 1:]  # (Q v, v) = 0 exactly on v = e_0
    indefinite = rng.standard_normal((m, m))
    indefinite += indefinite.T
    indefinite[0, 0], indefinite[1, 1] = 1.5, -1.5
    nan_q = pd.copy()
    nan_q[0, 1] = nan_q[1, 0] = np.nan
    q = np.stack([pd, singular, indefinite, -pd, nan_q, pd])
    b = rng.standard_normal(q.shape)
    b -= b.transpose(0, 2, 1)
    b[5, 0, 1], b[5, 1, 0] = np.nan, np.nan
    return q, b


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sampled_audit_against_plain_reference(m):
    rng = np.random.default_rng(70 + m)
    samples = sample_unit_vectors(m, 400, 70 + m)
    samples[:25] = 0.0
    samples[:25, 0] = 1.0
    q, b = audit_stack(m, rng)
    eps_rows = np.array([1.0, 0.1, 0.01, 1.0, 0.5, 0.05])
    ref = plain_audit(samples, q, b, eps_rows)
    assert ref["margin"] > 1e3  # no form sits within rounding of 0
    for row in (1, 2):  # some samples masked, some not
        assert (ref["quad"][row] <= 0).any() and (ref["quad"][row] > 0).any()
    for rows in (1, 7, 64, 400):
        comm, nd = _sampled_extremes(q, b, eps_rows, blocks_of(samples, rows))
        assert np.all(np.abs(comm[:3] - ref["comm"][:3]) <= ref["comm_tol"][:3])
        assert np.all(np.abs(nd[:3] - ref["nd"][:3]) <= ref["nd_tol"][:3])
        assert np.isfinite(comm[:3]).all() and np.isfinite(nd[:3]).all()
        assert comm[3:5].tolist() == [-np.inf] * 2 and nd[3:5].tolist() == [np.inf] * 2
        assert np.isnan(comm[5]) and np.isnan(ref["comm"][5])
        assert abs(nd[5] - ref["nd"][5]) <= ref["nd_tol"][5]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sampled_audit_without_samples(m):
    q, b = audit_stack(m, np.random.default_rng(m))
    comm, nd = _sampled_extremes(q, b, np.ones(6), _draw_blocks(m, 0, 1))
    assert (comm == -np.inf).all() and (nd == np.inf).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sampled_audit_masking_leaves_positive_rows_alone(m):
    # positive rows once stacked with masked rows and once with positive rows
    # give the same bits
    rng = np.random.default_rng(90 + m)
    q, b = audit_stack(m, rng)
    positive = [q[0], 2.0 * q[0], q[0] + np.eye(m)]
    masked = np.stack([positive[0], q[3], positive[1], q[4], positive[2], 0.0 * q[1]])
    paired = np.stack([positive[0], positive[0], positive[1], positive[1], positive[2], positive[2]])
    bb = b[[0, 1, 2, 0, 1, 2]]
    eps_rows = np.full(6, 0.1)
    comm_m, nd_m = _sampled_extremes(masked, bb, eps_rows, _draw_blocks(m, 500, 90 + m))
    comm_f, nd_f = _sampled_extremes(paired, bb, eps_rows, _draw_blocks(m, 500, 90 + m))
    assert np.array_equal(comm_m[::2], comm_f[::2]) and np.array_equal(nd_m[::2], nd_f[::2])
    assert (comm_m[1::2] == -np.inf).all() and (nd_m[1::2] == np.inf).all()


# -- the sample directions -----------------------------------------------------


def scalar_unit_vector_rows(m, count, seed):
    """The documented draw one entry at a time: two little-endian words per
    entry, their top 53 bits as u in (0, 1] and v in [0, 1), Box-Muller
    sqrt(-2 ln u) e^(2 pi i v), each row normalised."""
    raw = random.Random(seed).randbytes(16 * count * m)
    words = [int.from_bytes(raw[8 * i : 8 * i + 8], "little") >> 11 for i in range(2 * count * m)]
    rows = []
    for r in range(count):
        row = []
        for j in range(m):
            top_u, top_v = words[2 * (r * m + j)], words[2 * (r * m + j) + 1]
            radius = math.sqrt(-2.0 * math.log((top_u + 1) * 2.0**-53))
            angle = 2 * math.pi * top_v * 2.0**-53
            row.append(radius * complex(math.cos(angle), math.sin(angle)))
        norm = math.sqrt(sum(abs(z) ** 2 for z in row))
        rows.append([z / norm for z in row])
    return np.array(rows)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sample_unit_vectors_follow_the_documented_draw(m):
    got = sample_unit_vectors(m, 50, 11)
    want = scalar_unit_vector_rows(m, 50, 11)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps


def test_sample_unit_vectors_are_a_function_of_the_seed():
    first = sample_unit_vectors(3, 1000, 5)
    assert np.array_equal(first.view(float), sample_unit_vectors(3, 1000, 5).view(float))
    zero, one = sample_unit_vectors(3, 1000, 0), sample_unit_vectors(3, 1000, 1)
    assert not (zero == one).any()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sample_unit_vectors_have_unit_rows(m):
    rows = sample_unit_vectors(m, 5000, m)
    assert rows.shape == (5000, m) and rows.dtype == complex
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sample_unit_vectors_are_uniform_on_the_sphere(m):
    # on the complex unit sphere |z_j|^2 is Beta(1, m - 1), with moments
    # E X^k = k! (m-1)! / (m+k-1)!, and E z_i conj(z_j) = 0 for i != j with
    # real and imaginary parts of variance E X_i X_j / 2 = 1 / (2 m (m+1));
    # each sample mean within 5 sigma at 10^5 rows
    n = 10**5
    rows = sample_unit_vectors(m, n, 2024)
    power = np.abs(rows) ** 2

    def moment(k):
        return math.factorial(k) * math.factorial(m - 1) / math.factorial(m + k - 1)

    for k in (1, 2):
        sigma = math.sqrt((moment(2 * k) - moment(k) ** 2) / n)
        assert np.abs((power**k).mean(axis=0) - moment(k)).max() <= 5 * sigma, k
    cross = (rows[:, 0] * rows[:, 1].conj()).mean()
    sigma = math.sqrt(1.0 / (2 * m * (m + 1) * n))
    assert max(abs(cross.real), abs(cross.imag)) <= 5 * sigma


def test_one_sample_unit_vector_is_the_first_row_of_more():
    (row,) = sample_unit_vectors(3, 1, 9)
    assert np.array_equal(row, sample_unit_vectors(3, 100, 9)[0])
    assert abs(np.linalg.norm(row) - 1.0) <= 4 * np.finfo(float).eps
    assert sample_unit_vectors(3, 0, 9).shape == (0, 3)


@pytest.mark.parametrize("rows", [1, 7, 1024, 4096])
def test_sample_unit_vectors_drawn_in_blocks_equal_one_draw(monkeypatch, rows):
    count = 9000  # not a multiple of any block size above
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", count)
    whole = sample_unit_vectors(3, count, 13)
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", rows)
    assert np.array_equal(sample_unit_vectors(3, count, 13).view(float), whole.view(float))


# -- the moments of the sample directions ---------------------------------------
#
# The audit reads each direction v only through its moments (Q v, v),
# |(B v, v)| and sum_j q_jj |v_j|^2, formed in reals on each block of the
# stream.


def streamed_moments(q, b, m, count, seed):
    """The directions of ``_draw_blocks`` and the audit's moments at them, blocks joined.

    Returns x and y, shape (count, m), and the three moments, shape (3, rows of q, count).
    """
    x, y, moments = [np.empty((0, m))], [np.empty((0, m))], [np.empty((3, len(q), 0))]
    for _, bx, by in _draw_blocks(m, count, seed):
        x.append(bx)
        y.append(by)
        moments.append(np.stack(_forms(q, b, bx, by)))
    return np.concatenate(x), np.concatenate(y), np.concatenate(moments, axis=-1)


def moments_of(samples, q, b):
    """The three moments of directions ``samples`` in complex arithmetic, and
    the rounding bound of either way of forming them, gamma times the same
    sum over absolute values (the gamma of ``plain_audit``)."""
    m = q.shape[1]
    gamma = 2 * (m * m + 3) * np.finfo(float).eps
    av = np.abs(samples)
    moments = np.stack([
        np.einsum("si,rij,sj->rs", samples.conj(), q, samples).real,
        np.abs(np.einsum("si,rij,sj->rs", samples.conj(), b, samples)),
        np.einsum("rj,sj->rs", np.diagonal(q, axis1=1, axis2=2), av * av),
    ])
    q_abs = np.einsum("si,rij,sj->rs", av, np.abs(q), av)
    b_abs = np.einsum("si,rij,sj->rs", av, np.abs(b), av)
    return moments, gamma * np.stack([q_abs, b_abs, q_abs])


@pytest.mark.parametrize("count", [0, 1, 7, 1023, 1024, 1025, 10000])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sample_moments_are_those_of_the_sample_directions(m, count):
    # positive definite, singular and indefinite q, each with its own b
    q, b = (stack[:3] for stack in audit_stack(m, np.random.default_rng(31 + m)))
    x, y, got = streamed_moments(q, b, m, count, 31 + m)
    samples = sample_unit_vectors(m, count, 31 + m)
    assert x.shape == y.shape == (count, m) and got.shape == (3, 3, count)
    assert np.array_equal(x, samples.real) and np.array_equal(y, samples.imag)
    want, tol = moments_of(samples, q, b)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("rows", [1, 7, 1024, 4096])
def test_sample_moments_do_not_depend_on_the_draw_block(monkeypatch, rows):
    # the directions keep their bits; the moments may round differently, since
    # a block of one row takes another matmul path
    count = 9000  # not a multiple of any block size above
    q, b = (stack[:3] for stack in audit_stack(4, np.random.default_rng(17)))
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", count)
    whole_x, whole_y, whole = streamed_moments(q, b, 4, count, 17)
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", rows)
    x, y, got = streamed_moments(q, b, 4, count, 17)
    assert np.array_equal(x, whole_x) and np.array_equal(y, whole_y)
    _, tol = moments_of(x + 1j * y, q, b)
    assert np.all(np.abs(got - whole) <= tol)
