"""A reference evaluator for the expression language, on the ``math`` module.

The package evaluates every expression with numpy, at a point and on a grid
alike.  This one walks the tree with Python floats and the ``math`` module,
and states each domain rule by hand, so the tests can check the package's
numpy evaluator against code that shares none of its arithmetic.
"""

import math
from typing import Mapping

from weakhyp.exprdsl import BinOp, Call, DomainError, Expression, Neg, Num, Var


def reference_evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """``expr`` at a point; :class:`DomainError` where a rule below or overflow refuses it."""
    try:
        value = _reference(expr, bindings)
    except OverflowError as exc:
        raise DomainError(f"overflow during evaluation: {exc}") from exc
    if not math.isfinite(value):
        raise DomainError("evaluation produced a non-finite value")
    return value


def _reference(expr: Expression, bindings: Mapping[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return float(bindings[expr.name])
    if isinstance(expr, Neg):
        return -_reference(expr.arg, bindings)
    if isinstance(expr, BinOp):
        lhs = _reference(expr.lhs, bindings)
        rhs = _reference(expr.rhs, bindings)
        op = expr.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0.0:
                raise DomainError("division by zero")
            return lhs / rhs
        if lhs == 0.0 and rhs < 0.0:
            raise DomainError("zero raised to a negative power")
        if lhs < 0.0 and rhs != round(rhs):
            raise DomainError("negative base with non-integer exponent")
        return lhs**rhs
    if isinstance(expr, Call):
        arg = _reference(expr.arg, bindings)
        f = expr.func
        if f == "log":
            if arg <= 0.0:
                raise DomainError("log of a non-positive number")
            return math.log(arg)
        if f == "sqrt":
            if arg < 0.0:
                raise DomainError("square root of a negative number")
            return math.sqrt(arg)
        if f == "abs":
            return abs(arg)
        return getattr(math, f)(arg)
    raise TypeError(f"not an expression node: {expr!r}")
