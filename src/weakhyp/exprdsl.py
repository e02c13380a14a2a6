"""Small arithmetic expression language for coefficient and data profiles.

Grammar (infix, whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, so ``-t^2`` parses as ``-(t^2)``.
Supported functions: sin, cos, exp, log, sqrt, abs.  Parsed expressions are
immutable and evaluation is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "DomainError",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "evaluate_on_grid",
    "to_source",
]

FUNCTIONS = frozenset({"sin", "cos", "exp", "log", "sqrt", "abs"})


class ExpressionError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExpressionError):
    """Malformed source text; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    """Identifier that is neither an allowed variable nor a function."""

    def __init__(self, name: str, position: int | None = None):
        at = "" if position is None else f" (offset {position})"
        super().__init__(f"unknown identifier '{name}'{at}")
        self.name = name
        self.position = position


class DomainError(ExpressionError):
    """Evaluation left the real domain (log of non-positive, 0^negative, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_OPS = "+-*/^()"


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        mo = _NUMBER_RE.match(source, i)
        if mo:
            tokens.append(("num", mo.group(), i))
            i = mo.end()
            continue
        mo = _NAME_RE.match(source, i)
        if mo:
            tokens.append(("name", mo.group(), i))
            i = mo.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, allowed_vars: frozenset[str]):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed = allowed_vars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", at)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expression:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, text, at = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, at)
                self.advance()
                arg = self.expr()
                k2, t2, a2 = self.advance()
                if (k2, t2) != ("op", ")"):
                    raise ExprSyntaxError("expected ')'", a2)
                return Call(text, arg)
            if text not in self.allowed:
                raise UnknownIdentifierError(text, at)
            return Var(text)
        if (kind, text) == ("op", "("):
            node = self.expr()
            k2, t2, a2 = self.advance()
            if (k2, t2) != ("op", ")"):
                raise ExprSyntaxError("expected ')'", a2)
            return node
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", at)


def parse(source: str, allowed_vars: Iterable[str] = ()) -> Expression:
    """Parse ``source`` into an immutable syntax tree.

    Variables outside ``allowed_vars`` and unknown function names raise
    :class:`UnknownIdentifierError`; malformed text raises
    :class:`ExprSyntaxError` carrying the character offset.
    """
    return _Parser(source, frozenset(allowed_vars)).parse()


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate ``expr`` at a point.  All free variables must be bound.

    Raises :class:`DomainError` for log of a non-positive number, square root
    of a negative number, division by zero, ``0^negative``, a negative base
    with a non-integer exponent, and any overflow to a non-finite value.
    """
    try:
        value = _eval_scalar(expr, bindings)
    except OverflowError as exc:
        raise DomainError(f"overflow during evaluation: {exc}") from exc
    if not math.isfinite(value):
        raise DomainError("evaluation produced a non-finite value")
    return value


def _eval_scalar(expr: Expression, bindings: Mapping[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise UnknownIdentifierError(expr.name) from None
    if isinstance(expr, Neg):
        return -_eval_scalar(expr.arg, bindings)
    if isinstance(expr, BinOp):
        lhs = _eval_scalar(expr.lhs, bindings)
        rhs = _eval_scalar(expr.rhs, bindings)
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
        arg = _eval_scalar(expr.arg, bindings)
        f = expr.func
        if f == "sin":
            return math.sin(arg)
        if f == "cos":
            return math.cos(arg)
        if f == "exp":
            return math.exp(arg)
        if f == "log":
            if arg <= 0.0:
                raise DomainError("log of a non-positive number")
            return math.log(arg)
        if f == "sqrt":
            if arg < 0.0:
                raise DomainError("square root of a negative number")
            return math.sqrt(arg)
        return abs(arg)
    raise TypeError(f"not an expression node: {expr!r}")


_NP_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def evaluate_on_grid(expr: Expression, var: str, values: np.ndarray) -> np.ndarray:
    """Vectorized single-variable evaluation with the scalar domain contract.

    A sample whose evaluation passes through a non-finite value at any node
    raises :class:`DomainError`, naming the first offending grid value.  The
    result alone would not show every fault: ``exp(-1/t)`` at t = 0 runs
    through -1/0 = -inf to exp(-inf) = 0, where the scalar evaluator raises
    on the division.
    """
    values = np.asarray(values, dtype=float)
    bad = np.zeros(values.shape, dtype=bool)
    with np.errstate(all="ignore"):
        out = _eval_grid(expr, var, values, bad)
    if bad.any():
        where = float(values[bad].flat[0])
        raise DomainError(f"non-finite value at {var} = {where!r}")
    return np.array(np.broadcast_to(out, values.shape), dtype=float)


def _eval_grid(expr: Expression, var: str, values: np.ndarray, bad: np.ndarray):
    """The value of ``expr`` on the grid; marks in ``bad`` each sample that turns non-finite."""
    out = _eval_node(expr, var, values, bad)
    bad |= ~np.isfinite(out)
    return out


def _eval_node(expr: Expression, var: str, values: np.ndarray, bad: np.ndarray):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name != var:
            raise UnknownIdentifierError(expr.name)
        return values
    if isinstance(expr, Neg):
        return -_eval_grid(expr.arg, var, values, bad)
    if isinstance(expr, BinOp):
        lhs = _eval_grid(expr.lhs, var, values, bad)
        rhs = _eval_grid(expr.rhs, var, values, bad)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            return lhs / rhs
        return np.power(lhs, rhs)
    if isinstance(expr, Call):
        return _NP_FUNCS[expr.func](_eval_grid(expr.arg, var, values, bad))
    raise TypeError(f"not an expression node: {expr!r}")


# Rendering precedence levels; higher binds tighter.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def to_source(expr: Expression) -> str:
    """Render a syntax tree back to source.

    The output re-parses to a structurally identical tree, so
    ``parse(to_source(parse(s)))`` equals ``parse(s)``.
    """
    return _render(expr, 0)


def _render(expr: Expression, min_level: int) -> str:
    text, level = _render_node(expr)
    if level < min_level:
        return f"({text})"
    return text


def _render_node(expr: Expression) -> tuple[str, int]:
    if isinstance(expr, Num):
        text = format(expr.value, ".17g")
        level = _LEVEL_NEG if expr.value < 0 else _LEVEL_ATOM
        return text, level
    if isinstance(expr, Var):
        return expr.name, _LEVEL_ATOM
    if isinstance(expr, Call):
        return f"{expr.func}({_render(expr.arg, _LEVEL_ADD)})", _LEVEL_ATOM
    if isinstance(expr, Neg):
        return f"-{_render(expr.arg, _LEVEL_NEG)}", _LEVEL_NEG
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            lhs = _render(expr.lhs, _LEVEL_ADD)
            rhs = _render(expr.rhs, _LEVEL_MUL)
            return f"{lhs} {expr.op} {rhs}", _LEVEL_ADD
        if expr.op in "*/":
            lhs = _render(expr.lhs, _LEVEL_MUL)
            rhs = _render(expr.rhs, _LEVEL_NEG)
            return f"{lhs}{expr.op}{rhs}", _LEVEL_MUL
        lhs = _render(expr.lhs, _LEVEL_ATOM)
        rhs = _render(expr.rhs, _LEVEL_NEG)
        return f"{lhs}^{rhs}", _LEVEL_POW
    raise TypeError(f"not an expression node: {expr!r}")
