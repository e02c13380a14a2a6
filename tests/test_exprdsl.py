"""Parser/evaluator tests: grammar corner cases, domain errors, round-trips."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_reference import reference_evaluate

import weakhyp
from weakhyp.exprdsl import (
    FUNCTIONS,
    BinOp,
    Call,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    evaluate,
    parse,
    to_source,
)


def ev(src, **bindings):
    return evaluate(parse(src, bindings.keys()), bindings)


def test_literals_and_arithmetic():
    assert ev("2 + 3*4") == 14.0
    assert ev("1.5e-3") == 1.5e-3
    assert ev(".5 + 2.") == 2.5
    assert ev("6/2/3") == 1.0  # division is left-associative
    assert ev("2 - 3 - 4") == -5.0


def test_power_binds_tighter_than_unary_minus():
    # -t^2 must parse as -(t^2)
    assert ev("-t^2", t=3.0) == -9.0
    assert ev("(-t)^2", t=3.0) == 9.0
    assert parse("-t^2", ("t",)) == Neg(BinOp("^", Var("t"), Num(2.0)))


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("4^3^0.5") == 4.0 ** math.sqrt(3.0)


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert math.isclose(ev("exp(1)"), math.e, rel_tol=1e-15)
    assert math.isclose(ev("log(exp(2))"), 2.0, rel_tol=1e-15)
    assert ev("sqrt(49)") == 7.0
    assert ev("abs(3 - 5)") == 2.0
    # no cosh builtin; spelled out it hits the frozen value
    assert math.isclose(
        ev("0.5*(exp(x) + exp(-x))", x=1.0), 1.5430806348152437, rel_tol=1e-15
    )


def test_variable_binding():
    assert ev("t*(1 + t)", t=2.0) == 6.0
    assert ev("x^2 - x", x=-1.0) == 2.0


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse("2 +")
    assert exc_info.value.position == 3
    with pytest.raises(ExprSyntaxError):
        parse("2 + * 3")
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    with pytest.raises(ExprSyntaxError):
        parse("sin(1")
    with pytest.raises(ExprSyntaxError):
        parse("t $ 2")


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        parse("y + 1", ("t",))
    with pytest.raises(UnknownIdentifierError):
        parse("foo(3)", ("t",))
    # allowed variables are respected
    parse("y + 1", ("y",))


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("log(0)")
    with pytest.raises(DomainError):
        ev("log(0 - 1)")
    with pytest.raises(DomainError):
        ev("sqrt(-1)")
    with pytest.raises(DomainError):
        ev("1/0")
    with pytest.raises(DomainError):
        ev("0^(-1)")
    with pytest.raises(DomainError):
        ev("(-2)^0.5")
    with pytest.raises(DomainError):
        ev("exp(1000)")  # overflow is a domain error, not inf
    assert ev("(-2)^3") == -8.0  # integer exponents keep negative bases legal


def test_grid_evaluation_matches_scalar():
    # the numpy evaluator against the math-module reference, sample by sample
    rng = np.random.default_rng(7)
    sources = [
        "-t^2",
        "sin(t)*cos(2*t) + exp(-t)",
        "t/(1 + t^2)",
        "sqrt(abs(t)) - 3",
        "2^t",
    ]
    ts = rng.uniform(-3.0, 3.0, size=64)
    for src in sources:
        expr = parse(src, ("t",))
        grid_vals = evaluate(expr, {"t": ts})
        for t, v in zip(ts, grid_vals):
            assert math.isclose(v, reference_evaluate(expr, {"t": t}), rel_tol=1e-14, abs_tol=1e-14)


def test_grid_evaluation_domain_error_names_offender():
    expr = parse("log(x)", ("x",))
    with pytest.raises(DomainError, match="non-finite value at x = -2.0$"):
        evaluate(expr, {"x": np.array([1.0, -2.0, 3.0])})
    # with several bindings, each is named at the first offending sample
    expr = parse("log(x*t)", ("x", "t"))
    grid = {"x": np.array([1.0, 2.0]), "t": np.array([[1.0], [-1.0]])}
    with pytest.raises(DomainError, match="non-finite value at x = 1.0, t = -1.0$"):
        evaluate(expr, grid)
    assert evaluate(expr, {"x": 2.0, "t": 0.5}) == 0.0


@pytest.mark.parametrize(
    "source, offender",
    [
        ("exp(-1/t)", 0.0),  # -1/0 = -inf, then exp(-inf) = 0
        ("1/(1/t)", 0.0),  # 1/0 = inf, then 1/inf = 0
        ("sqrt(t)^0", -1.0),  # sqrt(-1) = nan, then nan^0 = 1
        ("1/exp(1000*t)", 2.0),  # exp overflows to inf, then 1/inf = 0
        ("0*(1/t) + t", 0.0),
    ],
)
def test_grid_evaluation_refuses_non_finite_intermediates(source, offender):
    # the result is finite at every sample; the fault is inside the tree
    expr = parse(source, ("t",))
    with pytest.raises(DomainError):
        reference_evaluate(expr, {"t": offender})
    with pytest.raises(DomainError, match=f"at t = {offender!r}$"):
        evaluate(expr, {"t": offender})
    ts = np.array([0.5, offender, 0.25, offender])
    with pytest.raises(DomainError, match=f"at t = {offender!r}$"):
        evaluate(expr, {"t": ts})
    fine = ts[ts != offender]
    np.testing.assert_array_equal(
        evaluate(expr, {"t": fine}), [reference_evaluate(expr, {"t": t}) for t in fine]
    )


def test_grid_constant_broadcasts():
    expr = parse("3.5")
    out = evaluate(expr, {"t": np.linspace(0, 1, 5)})
    assert out.shape == (5,)
    assert (out == 3.5).all()
    assert type(evaluate(expr, {"t": 1.0})) is float
    assert evaluate(expr, {}) == 3.5
    with pytest.raises(DomainError, match="non-finite value at t = 0.0$"):
        evaluate(parse("1/0 + t", ("t",)), {"t": np.zeros(3)})


def test_to_source_round_trip():
    sources = [
        "-t^2",
        "1 + 2*t",
        "sin(t)*cos(t) - exp(-t^2)",
        "2^3^t",
        "t/(1 + t)",
        "-(t + 1)^2",
        "abs(1 - t)",
        "sqrt(t + 2)/log(t + 3)",
        "1.5e-3*t",
        "t - (1 - t)",
        "(t + 1)*(t - 1)",
        "-(-t)",
        "2^(-t)",
        "1/(2*t)^2",
    ]
    for src in sources:
        tree = parse(src, ("t",))
        assert parse(to_source(tree), ("t",)) == tree, src


def random_tree(rng, depth):
    if depth == 0:
        return Num(float(rng.integers(0, 5))) if rng.random() < 0.5 else Var("t")
    pick = rng.random()
    if pick < 0.15:
        return Neg(random_tree(rng, depth - 1))
    if pick < 0.3:
        return Call(str(rng.choice(sorted(FUNCTIONS))), random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_to_source_round_trip_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(200):
        tree = random_tree(rng, int(rng.integers(1, 5)))
        assert parse(to_source(tree), ("t",)) == tree


points = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 4),
    ts=st.lists(points, min_size=1, max_size=6),
)
# (4/3)^(t+t) at t = 1: np.power squares a 0-d exponent of 2, but calls pow on a grid's
@example(seed=829, depth=3, ts=[1.0])
def test_a_point_is_a_grid_of_one(seed, depth, ts):
    # a point is refused exactly when its sample is refused in a grid; otherwise the bits agree
    tree = random_tree(np.random.default_rng(seed), depth)
    at_points = []
    for t in ts:
        try:
            at_points.append(evaluate(tree, {"t": t}))
        except DomainError:
            at_points.append(None)
    refused = [t for t, v in zip(ts, at_points) if v is None]
    if refused:
        message = re.escape(f"non-finite value at t = {refused[0]!r}") + "$"
        with pytest.raises(DomainError, match=message):
            evaluate(tree, {"t": np.array(ts)})
        return
    assert all(type(v) is float for v in at_points)
    grid = evaluate(tree, {"t": np.array(ts)})
    np.testing.assert_array_equal(grid.view(np.uint64), np.array(at_points).view(np.uint64))


# -- one coefficient source: the table ----------------------------------------


def scalar_coefficient_calls(source: str) -> list[tuple[str, int]]:
    """Calls of ``coefficients_at`` or of ``evaluate`` (also under an alias)."""
    tree = ast.parse(source)
    evaluate_names = {"evaluate"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "evaluate" and alias.asname
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("coefficients_at", "evaluate"):
            calls.append((func.attr, node.lineno))
        elif isinstance(func, ast.Name) and func.id in evaluate_names:
            calls.append((func.id, node.lineno))
    return calls


def test_scalar_coefficient_calls_are_found():
    assert scalar_coefficient_calls("problem.coefficients_at(t)") == [("coefficients_at", 1)]
    assert scalar_coefficient_calls("from .exprdsl import evaluate as ev\nev(e, {})") == [("ev", 2)]
    assert scalar_coefficient_calls("exprdsl.evaluate(e, {})") == [("evaluate", 1)]
    assert scalar_coefficient_calls("problem.coefficient_table(ts)") == []


def test_only_the_expression_layer_evaluates_at_a_point():
    # every diagnostic reads the coefficient table; coefficients_at serves the tests as a reference,
    # and evaluate is called only by the table and by the initial-data transform
    package = Path(weakhyp.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "energy.py", "quasisym.py", "symbol.py"}
    found = {
        path.name: [name for name, _ in calls]
        for path in modules
        if (calls := scalar_coefficient_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {"equation.py": ["evaluate"], "spectral.py": ["evaluate"]}
