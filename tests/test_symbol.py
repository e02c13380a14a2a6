"""Root extraction, separation ratio, and discriminant identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhyp.equation import CoefficientSpec
from weakhyp.symbol import (
    NonHyperbolicError,
    UnsupportedOrderError,
    characteristic_roots,
    check_diam,
    diam_ratio,
    discriminant_check,
)


def test_roots_simple():
    # lam^2 - 1
    np.testing.assert_allclose(characteristic_roots([[0.0, -1.0]]), [[-1.0, 1.0]], atol=1e-12)
    # (lam - 1)^2 = lam^2 - 2 lam + 1
    np.testing.assert_allclose(characteristic_roots([[-2.0, 1.0]]), [[1.0, 1.0]], atol=1e-7)
    # lam^3 - lam
    np.testing.assert_allclose(
        characteristic_roots([[0.0, -1.0, 0.0]]), [[-1.0, 0.0, 1.0]], atol=1e-12
    )


def test_roots_sorted_and_match_polyfromroots():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        roots = np.sort(rng.uniform(-2.0, 2.0, size=m))
        # a_h from monic expansion, descending powers minus the leading 1
        coeffs = np.poly(roots)[1:]
        got = characteristic_roots(coeffs[None])
        np.testing.assert_allclose(got, [roots], atol=1e-6)
        assert (np.diff(got) >= 0).all()


def test_roots_nonhyperbolic():
    with pytest.raises(NonHyperbolicError) as exc_info:
        characteristic_roots([[0.0, 1.0]])  # lam^2 + 1
    assert exc_info.value.max_imag == pytest.approx(1.0, rel=1e-9)


def test_diam_ratio_frozen():
    assert diam_ratio([[-1.0, 1.0]]) == [0.5]
    assert diam_ratio([[-1.0, 0.0, 1.0]]) == [1.0]
    assert diam_ratio([[1.0, 1.0]]) == [float("inf")]
    assert diam_ratio([[0.0, 0.0]]) == [0.0]  # coincidence at zero is allowed
    assert diam_ratio([[0.0, 3.0]]) == [1.0]


def test_check_diam_satisfied():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-1"], 0, ["cos(x)", "0"])
    report = check_diam(spec, np.linspace(0.0, 1.0, 11))
    assert report.satisfied
    assert report.sup_ratio == 0.5
    assert report.failure_times.size == 0
    d = report.to_dict()
    assert set(d) == {"grid", "M", "M_sup", "satisfied", "failure_times"}


def test_check_diam_degenerate_roots_touch_zero():
    # roots +-t coincide only at t = 0: ratio is 1/2 wherever defined
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "-t^2"], 0, ["cos(x)", "0"])
    report = check_diam(spec, np.linspace(0.0, 1.0, 11))
    assert report.satisfied
    assert report.sup_ratio == pytest.approx(0.5)


def test_check_diam_failure():
    # (lam - 1)^2: nonzero double root at every time
    spec = CoefficientSpec.from_strings(2, 1.0, ["-2", "1"], 0, ["cos(x)", "0"])
    report = check_diam(spec, np.linspace(0.0, 1.0, 5))
    assert not report.satisfied
    assert report.sup_ratio == float("inf")
    assert report.failure_times.size == 5


def test_check_diam_propagates_nonhyperbolic_time():
    spec = CoefficientSpec.from_strings(2, 1.0, ["0", "t - 0.5"], 0, ["cos(x)", "0"])
    with pytest.raises(NonHyperbolicError) as exc_info:
        check_diam(spec, np.linspace(0.0, 1.0, 21))
    assert exc_info.value.t is not None and exc_info.value.t > 0.5


def test_discriminant_frozen_m2():
    res = discriminant_check([[0.0, -1.0]])  # roots -1, 1
    assert res.delta == [4.0]
    assert res.rhs == [0.0]
    assert res.ratio == [float("inf")]
    res = discriminant_check([[-2.0, 1.0]])  # double root 1
    assert res.delta == [0.0]
    assert res.rhs == [4.0]
    assert res.ratio == [0.0]
    assert res.holds(0.01).tolist() == [False]
    res = discriminant_check([[0.0, 0.0]])  # double root 0
    assert res.delta == [0.0] and res.rhs == [0.0] and res.ratio == [1.0]


def test_discriminant_frozen_m3():
    # lam^3 - lam: roots -1, 0, 1, squared difference product 4
    res = discriminant_check([[0.0, -1.0, 0.0]])
    assert res.delta == pytest.approx([4.0])
    assert res.rhs == [0.0]
    assert res.ratio == [float("inf")]
    assert res.holds(0.01).tolist() == [True]


def test_discriminant_matches_root_products():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(2, 4))
        roots = rng.uniform(-2.0, 2.0, size=m)
        coeffs = np.poly(roots)[1:]
        (delta,) = discriminant_check(coeffs[None]).delta
        brute = 1.0
        for i in range(m):
            for j in range(i + 1, m):
                brute *= (roots[i] - roots[j]) ** 2
        scale = 1.0 + abs(delta) + abs(brute)
        assert abs(delta - brute) <= 1e-10 * scale


def test_discriminant_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        discriminant_check([[0.0, 0.0, 0.0, -1.0]])


# -- batched root diagnostics against per-row references ----------------------


@st.composite
def root_sets(draw, orders=(2, 3, 4)):
    """(n, m) real root sets drawn from a small pool, so roots coincide often.

    Zero is always in the pool: zero roots give exactly zero trailing
    coefficients, and an all-zero set gives an all-zero row.
    """
    m = draw(st.sampled_from(orders))
    n = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-6, 3))
    pool = [0.0] + draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=m))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=m, max_size=m), min_size=n, max_size=n))
    return np.sort(np.array(rows) * scale, axis=1)


def coefficient_table(roots: np.ndarray) -> np.ndarray:
    return np.array([np.poly(r)[1:] for r in roots])


def per_row_roots(row: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Sorted real parts of np.roots, max |Im| and the default tolerance."""
    roots = np.roots(np.concatenate(([1.0], row)))
    max_imag = float(np.abs(roots.imag).max()) if roots.size else 0.0
    return np.sort(roots.real), max_imag, 1e-8 * (1.0 + float(np.abs(row).max()))


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


def check_against_np_roots(table: np.ndarray) -> None:
    refs = [per_row_roots(row) for row in table]
    bad = [i for i, (_, max_imag, tol) in enumerate(refs) if max_imag > tol]
    if bad:
        with pytest.raises(NonHyperbolicError) as exc_info:
            characteristic_roots(table)
        assert exc_info.value.index == bad[0]
        assert exc_info.value.max_imag == refs[bad[0]][1]
        return
    got = characteristic_roots(table)
    assert_bitwise_equal(got, np.array([roots for roots, _, _ in refs]))
    for i in range(len(table)):
        assert_bitwise_equal(characteristic_roots(table[i : i + 1]), got[i : i + 1])


@settings(max_examples=200, deadline=None)
@given(root_sets())
def test_batched_roots_are_np_roots_bit_for_bit(roots):
    check_against_np_roots(coefficient_table(roots))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.lists(
            st.tuples(
                st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m),
                st.integers(0, m),
            ),
            min_size=1,
            max_size=8,
        )
    )
)
def test_batched_roots_with_trailing_zeros_and_complex_rows(rows):
    # arbitrary rows: some are not hyperbolic, and the last k coefficients are zeroed
    table = np.array([[*coeffs[: len(coeffs) - k], *[0.0] * k] for coeffs, k in rows])
    check_against_np_roots(table)


def test_batched_roots_all_zero_and_one_row_shapes():
    table = np.zeros((3, 4))
    table[1, 1] = -1.0  # lam^4 - lam^2: roots -1, 0, 0, 1
    got = characteristic_roots(table)
    assert got.shape == (3, 4)
    assert_bitwise_equal(got[0], np.zeros(4))
    np.testing.assert_allclose(got[1], [-1.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert got[1, 1] == 0.0 and got[1, 2] == 0.0  # exact zero roots from trailing zeros
    assert characteristic_roots([[0.0, 0.0]]).shape == (1, 2)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(0.02, 0.98),
    n=st.integers(3, 80),
    m=st.sampled_from([2, 3]),
)
def test_check_diam_names_first_nonreal_time(c, n, m):
    # lam^2 + (t - c), times (lam - 1) for m = 3: roots leave the real line after t = c
    coeffs = ["0", f"t - {c!r}"] if m == 2 else ["-1", f"t - {c!r}", f"{c!r} - t"]
    spec = CoefficientSpec.from_strings(m, 1.0, coeffs, 0, ["cos(x)"] + ["0"] * (m - 1))
    grid = np.linspace(0.0, 1.0, n)
    refs = [per_row_roots(row) for row in spec.coefficient_table(grid)]
    first = next(i for i, (_, max_imag, tol) in enumerate(refs) if max_imag > tol)
    with pytest.raises(NonHyperbolicError) as exc_info:
        check_diam(spec, grid)
    assert exc_info.value.t == grid[first]
    assert exc_info.value.index == first


def scalar_diam(roots) -> float:
    """The separation ratio of one root set in plain float arithmetic."""
    best = 0.0
    for lo, hi in itertools.combinations([float(r) for r in roots], 2):
        num = lo * lo + hi * hi
        gap = lo - hi
        den = gap * gap
        ratio = (0.0 if num == 0.0 else math.inf) if den == 0.0 else num / den
        best = max(best, ratio)
    return best


def scalar_discriminant(coeffs) -> tuple[float, float, float]:
    """(delta, rhs, ratio) of one coefficient row in plain float arithmetic."""
    a = [float(x) for x in coeffs]
    if len(a) == 2:
        a1, a2 = a
        delta, rhs = a1 * a1 - 4.0 * a2, a1 * a1
    else:
        a1, a2, a3 = a
        delta = (
            -4.0 * (a2 * a2 * a2)
            - 27.0 * (a3 * a3)
            + (a1 * a1) * (a2 * a2)
            - 4.0 * (a1 * a1 * a1) * a3
            + 18.0 * a1 * a2 * a3
        )
        lin = a1 * a2 - 9.0 * a3
        rhs = lin * lin
    if rhs == 0.0:
        ratio = 1.0 if delta == 0.0 else (math.inf if delta > 0.0 else -math.inf)
    else:
        ratio = delta / rhs
    return delta, rhs, ratio


@settings(max_examples=200, deadline=None)
@given(root_sets())
def test_batched_diam_ratio_matches_scalar_closed_form(roots):
    got = diam_ratio(roots)
    assert_bitwise_equal(got, [scalar_diam(r) for r in roots])
    for i in range(len(roots)):
        assert_bitwise_equal(diam_ratio(roots[i : i + 1]), got[i : i + 1])


@settings(max_examples=200, deadline=None)
@given(root_sets(orders=(2, 3)))
def test_batched_discriminant_matches_scalar_closed_form(roots):
    table = coefficient_table(roots)
    res = discriminant_check(table)
    want = np.array([scalar_discriminant(row) for row in table])
    assert_bitwise_equal(res.delta, want[:, 0])
    assert_bitwise_equal(res.rhs, want[:, 1])
    assert_bitwise_equal(res.ratio, want[:, 2])
    holds = res.holds(0.01)
    for i in range(len(table)):
        one = discriminant_check(table[i : i + 1])
        assert_bitwise_equal(np.concatenate((one.delta, one.rhs, one.ratio)), want[i])
        assert one.holds(0.01).tolist() == [bool(holds[i])]


@pytest.mark.parametrize(
    "routine", [characteristic_roots, diam_ratio, discriminant_check], ids=lambda f: f.__name__
)
def test_table_routines_refuse_one_row(routine):
    with pytest.raises(ValueError, match=r"table of shape \(n, m\), got shape \(2,\)"):
        routine([0.0, -1.0])
