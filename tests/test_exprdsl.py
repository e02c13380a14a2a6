"""Parser/evaluator tests: grammar corner cases, domain errors, round-trips."""

import math

import numpy as np
import pytest

from weakhyp.exprdsl import (
    BinOp,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    evaluate,
    evaluate_on_grid,
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
        grid_vals = evaluate_on_grid(expr, "t", ts)
        for t, v in zip(ts, grid_vals):
            assert math.isclose(v, evaluate(expr, {"t": t}), rel_tol=1e-14, abs_tol=1e-14)


def test_grid_evaluation_domain_error_names_offender():
    expr = parse("log(x)", ("x",))
    with pytest.raises(DomainError, match="x = "):
        evaluate_on_grid(expr, "x", np.array([1.0, -2.0, 3.0]))


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
        evaluate(expr, {"t": offender})
    ts = np.array([0.5, offender, 0.25, offender])
    with pytest.raises(DomainError, match=f"at t = {offender!r}$"):
        evaluate_on_grid(expr, "t", ts)
    fine = ts[ts != offender]
    np.testing.assert_array_equal(
        evaluate_on_grid(expr, "t", fine), [evaluate(expr, {"t": t}) for t in fine]
    )


def test_grid_constant_broadcasts():
    expr = parse("3.5")
    out = evaluate_on_grid(expr, "t", np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert (out == 3.5).all()


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


def test_to_source_round_trip_random_trees():
    rng = np.random.default_rng(11)

    def random_tree(depth):
        if depth == 0:
            return Num(float(rng.integers(0, 5))) if rng.random() < 0.5 else Var("t")
        pick = rng.random()
        if pick < 0.15:
            return Neg(random_tree(depth - 1))
        if pick < 0.3:
            from weakhyp.exprdsl import Call

            return Call(str(rng.choice(["sin", "cos", "abs"])), random_tree(depth - 1))
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        return BinOp(op, random_tree(depth - 1), random_tree(depth - 1))

    for _ in range(200):
        tree = random_tree(int(rng.integers(1, 5)))
        assert parse(to_source(tree), ("t",)) == tree
