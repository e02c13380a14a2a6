"""Quasi-symmetrizer layers, certificate constants and the sampled audit.

Closed forms used as oracles (order 2, roots lam1, lam2):

    Q_0 = w1 w1^T + w2 w2^T with w1 = (-lam2, 1), w2 = (-lam1, 1)
    Q_1 = 2 * diag(1, 0)

so roots (0,0) give Q_0 = diag(0, 2), roots (-1,1) give Q_0 = diag(2, 2),
roots (1,1) give Q_0 = [[2,-2],[-2,2]].  The commutator constant for roots
(-1,1) is eps*sqrt(2)/sqrt(2+2 eps^2) and for roots (0,0) it is 1 for every
eps; the near-diagonality constant for the double root (1,1) is
1 - 1/sqrt(1+eps^2) ~ eps^2/2, decaying below any eps-linear floor.
"""

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
    _sampled_audit,
    build_quasi_symmetrizer,
    sample_moments,
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
    moments = sample_moments(3, 2000, 23)
    for _ in range(20):
        roots = np.sort(rng.uniform(-2.0, 2.0, size=3))
        coeffs = np.poly(roots)[1:]
        qs = build_quasi_symmetrizer(roots[None])
        (cert,) = verify_quasi_symmetrizer(qs, companion_stack(coeffs[None]), [1.0, 0.1], moments)
        # random directions can only underestimate the extremal ratios
        assert cert.sampled_c_comm <= cert.c_comm * (1.0 + 1e-9)
        assert cert.sampled_c_nd >= cert.c_nd - 1e-9


def test_certificate_to_dict_keys():
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    (cert,) = verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]]), [1.0, 0.1])
    d = cert.to_dict()
    assert set(d) == {
        "eps_set", "C_lower", "C_upper", "C_comm", "C_comm_by_eps", "c_nd",
        "c_nd_by_eps", "sampled_C_comm", "sampled_c_nd", "diam_ratio",
        "samples", "nd_floor", "pass",
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


@pytest.mark.parametrize(
    "shapes",
    [((3, 5), (1, 4)), ((6, 5), (3, 5)), ((3, 5), (2, 5)), ((3,), (1,)), ((5, 3), (5, 1))],
)
def test_verify_rejects_moment_rows_of_the_wrong_shape(shapes):
    # order 2: three real rows and one imaginary row, one column per direction
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    re, im = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ValueError, match=r"must have shapes \(3, n\) and \(1, n\), got "):
        verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]]), [1.0], (re, im))


@pytest.mark.parametrize("moments", [None, sample_moments(2, 0, 1)])
def test_verify_without_directions(moments):
    qs = build_quasi_symmetrizer([[-1.0, 1.0]])
    (cert,) = verify_quasi_symmetrizer(qs, companion_stack([[0.0, -1.0]]), [1.0, 0.1], moments)
    assert cert.samples == 0 and cert.sampled_c_comm == 0.0 and math.isnan(cert.sampled_c_nd)
    assert cert.passed


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


def reference_certificate(layers, a, eps_set, samples):
    """Certificate constants of one time, one eps after the other.

    Also bounds how far the sampled ratios may move when (Q v, v) and
    (B v, v) are summed in another order: each sum of m^2 terms then
    changes by at most gamma times the same sum over absolute values.
    """
    m = a.shape[0]
    out = {"c_lower": 0.0, "c_upper": 0.0, "comm": {}, "nd": {}, "s_comm": 0.0, "s_nd": math.inf}
    gamma = 2 * (m * m + 3) * np.finfo(float).eps
    av = np.abs(samples)
    out["s_comm_tol"] = out["s_nd_tol"] = 0.0
    for eps in eps_set:
        q = np.zeros((m, m))
        for r, layer in enumerate(layers):
            q += eps ** (2 * r) * layer
        w, u = np.linalg.eigh(q)
        out["c_upper"] = max(out["c_upper"], float(w[-1]))
        out["c_lower"] = max(out["c_lower"], eps ** (2 * (m - 1)) / w[0] if w[0] > 0 else math.inf)
        b = q @ a - a.T @ q
        inv_sqrt = u @ np.diag(w**-0.5) @ u.T
        out["comm"][eps] = float(np.abs(np.linalg.eigvalsh(inv_sqrt @ (1j * b) @ inv_sqrt)).max()) / eps
        d = np.diag(q)
        out["nd"][eps] = float(np.linalg.eigvalsh(q / np.sqrt(np.outer(d, d)))[0])
        quad = np.einsum("ij,ij->i", samples.conj(), samples @ q.T).real
        comm_num = np.abs(np.einsum("ij,ij->i", samples.conj(), samples @ b.T))
        out["s_comm"] = max(out["s_comm"], float((comm_num / (eps * quad)).max()))
        diag_quad = (np.abs(samples) ** 2 * d).sum(axis=1)
        out["s_nd"] = min(out["s_nd"], float((quad / diag_quad).min()))
        q_abs = np.einsum("si,ij,sj->s", av, np.abs(q), av)
        b_abs = np.einsum("si,ij,sj->s", av, np.abs(b), av)
        comm_tol = gamma * (b_abs + comm_num / quad * q_abs) / (eps * quad)
        out["s_comm_tol"] = max(out["s_comm_tol"], float(comm_tol.max()))
        out["s_nd_tol"] = max(out["s_nd_tol"], float((gamma * (q_abs + quad) / diag_quad).max()))
    return out


@pytest.mark.parametrize("eps_set", [(1.0, 0.1, 0.01), (0.05,)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_certificate_matches_per_time_algorithm(m, eps_set):
    rng = np.random.default_rng(40 + m)
    roots = np.sort(rng.uniform(-2.0, 2.0, size=(24, m)), axis=1)
    roots[::3, 0] = 0.0  # a zero root in every third set
    roots[1::4, :2] = 0.0  # a double zero root
    table = np.array([np.poly(r)[1:] for r in roots])
    samples = sample_unit_vectors(m, 300, 40 + m)
    moments = sample_moments(m, 300, 40 + m)
    qs = build_quasi_symmetrizer(roots)
    certs = verify_quasi_symmetrizer(qs, companion_stack(table), eps_set, moments)
    assert len(certs) == roots.shape[0]
    for i, cert in enumerate(certs):
        layers = reference_layers(roots[i])
        for got, want in zip(qs.layers, layers):
            assert np.array_equal(got[i], want)
        ref = reference_certificate(layers, companion_stack(table)[i], eps_set, samples)
        assert (cert.c_lower, cert.c_upper) == (ref["c_lower"], ref["c_upper"])
        assert cert.c_comm_by_eps == ref["comm"] and cert.c_comm == max(ref["comm"].values())
        assert cert.c_nd_by_eps == ref["nd"] and cert.c_nd == min(ref["nd"].values())
        assert abs(cert.sampled_c_comm - ref["s_comm"]) <= ref["s_comm_tol"]
        assert abs(cert.sampled_c_nd - ref["s_nd"]) <= ref["s_nd_tol"]
        # one time's bits do not depend on the stack it sits in
        single = verify_quasi_symmetrizer(
            build_quasi_symmetrizer(roots[i : i + 1]), companion_stack(table[i : i + 1]), eps_set, moments
        )
        assert single == [cert]


def test_batched_certificate_on_roots_minus_t_zero_t():
    # lam^3 - t^2 lam, the root family {-t, 0, t} of the certify_m3 benchmark
    t = np.linspace(0.0, 1.0, 129)
    roots = np.stack([-t, 0.0 * t, t], axis=1)
    table = np.stack([0.0 * t, -t * t, 0.0 * t], axis=1)
    eps_set = (1.0, 0.1, 0.01)
    samples = sample_unit_vectors(3, 10000, 7)
    certs = verify_quasi_symmetrizer(
        build_quasi_symmetrizer(roots), companion_stack(table), eps_set, sample_moments(3, 10000, 7)
    )
    for i, cert in enumerate(certs):
        ref = reference_certificate(
            reference_layers(roots[i]), companion_stack(table)[i], eps_set, samples
        )
        assert (cert.c_lower, cert.c_upper) == (ref["c_lower"], ref["c_upper"])
        assert cert.c_comm_by_eps == ref["comm"] and cert.c_nd_by_eps == ref["nd"]
        assert cert.sampled_c_comm == pytest.approx(ref["s_comm"], rel=1e-15, abs=0.0)
        assert cert.sampled_c_nd == pytest.approx(ref["s_nd"], rel=1e-15, abs=0.0)


# -- the sampled audit against a plain per-sample reference ---------------------


def moments_of(samples):
    """The moment rows conj(v_i) v_j of directions ``samples`` (rows of
    length m): real parts over i <= j, imaginary parts over i < j."""
    m = samples.shape[1]
    iu, ju = np.triu_indices(m)
    il, jl = np.triu_indices(m, 1)
    x, y = samples.real.T, samples.imag.T
    return x[iu] * x[ju] + y[iu] * y[ju], x[il] * y[jl] - y[il] * x[jl]


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
    for n_eps in (1, 2, 3, 6):
        comm, nd = _sampled_audit(*moments_of(samples), q, b, eps_rows, n_eps)
        assert np.all(np.abs(comm[:3] - ref["comm"][:3]) <= ref["comm_tol"][:3])
        assert np.all(np.abs(nd[:3] - ref["nd"][:3]) <= ref["nd_tol"][:3])
        assert np.isfinite(comm[:3]).all() and np.isfinite(nd[:3]).all()
        assert comm[3:5].tolist() == [-np.inf] * 2 and nd[3:5].tolist() == [np.inf] * 2
        assert np.isnan(comm[5]) and np.isnan(ref["comm"][5])
        assert abs(nd[5] - ref["nd"][5]) <= ref["nd_tol"][5]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sampled_audit_without_samples(m):
    q, b = audit_stack(m, np.random.default_rng(m))
    comm, nd = _sampled_audit(*sample_moments(m, 0, 1), q, b, np.ones(6), 3)
    assert (comm == -np.inf).all() and (nd == np.inf).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sampled_audit_masking_leaves_positive_rows_alone(m):
    # positive rows once paired with masked rows (the block is masked) and
    # once with positive rows (no masking): both give the same bits
    rng = np.random.default_rng(90 + m)
    moments = sample_moments(m, 500, 90 + m)
    q, b = audit_stack(m, rng)
    positive = [q[0], 2.0 * q[0], q[0] + np.eye(m)]
    masked = np.stack([positive[0], q[3], positive[1], q[4], positive[2], 0.0 * q[1]])
    paired = np.stack([positive[0], positive[0], positive[1], positive[1], positive[2], positive[2]])
    bb = b[[0, 1, 2, 0, 1, 2]]
    eps_rows = np.full(6, 0.1)
    comm_m, nd_m = _sampled_audit(*moments, masked, bb, eps_rows, 2)
    comm_f, nd_f = _sampled_audit(*moments, paired, bb, eps_rows, 2)
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


@pytest.mark.parametrize("count", [0, 1, 7, 1023, 1024, 1025, 10000])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sample_moments_are_those_of_the_sample_directions(m, count):
    re, im = sample_moments(m, count, 31 + m)
    want_re, want_im = moments_of(sample_unit_vectors(m, count, 31 + m))
    assert re.shape == want_re.shape and im.shape == want_im.shape
    assert np.array_equal(re, want_re) and np.array_equal(im, want_im)


@pytest.mark.parametrize("rows", [1, 7, 1024, 4096])
def test_sample_moments_do_not_depend_on_the_draw_block(monkeypatch, rows):
    count = 9000  # not a multiple of any block size above
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", count)
    whole = sample_moments(4, count, 17)
    monkeypatch.setattr(quasisym, "_DRAW_ROWS", rows)
    for got, want in zip(sample_moments(4, count, 17), whole):
        assert np.array_equal(got, want)
