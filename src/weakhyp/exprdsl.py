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
    "to_source",
]

# The evaluator's function and operator tables; the parser accepts exactly the function names.
_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
FUNCTIONS = frozenset(_FUNCS)
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


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


def evaluate(expr: Expression, bindings: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate ``expr`` on numbers or arrays, every node in numpy; a point is a grid of one.

    The bindings broadcast against each other, and every free variable must
    be bound.  A sample that turns non-finite at any node raises
    :class:`DomainError`, which names the bindings of the first such sample:
    log of a non-positive number, square root of a negative number, division
    by zero, ``0^negative``, a negative base with a non-integer exponent and
    overflow all do.  The result alone would not show every fault:
    ``exp(-1/t)`` at t = 0 runs through -1/0 = -inf to exp(-inf) = 0.
    Returns a float when every binding is a number, else an array of the
    broadcast shape.
    """
    names = list(bindings)
    values = np.broadcast_arrays(*(np.asarray(bindings[n], dtype=float) for n in names))
    shape = values[0].shape if values else ()
    bad = np.zeros(shape or (1,), dtype=bool)
    # numpy picks some loops by stride (np.power squares where the exponent's
    # stride is 0), so each binding is a contiguous grid, a point one of one
    grid = {n: np.ascontiguousarray(v).reshape(bad.shape) for n, v in zip(names, values)}
    with np.errstate(all="ignore"):
        out = _eval(expr, grid, bad)
    if bad.any():
        first = np.flatnonzero(bad)[0]
        where = ", ".join(f"{n} = {float(v.flat[first])!r}" for n, v in grid.items())
        raise DomainError(f"non-finite value at {where}")
    out = np.array(np.broadcast_to(out, bad.shape), dtype=float)
    return out if shape else float(out[0])


def _eval(expr: Expression, grid: Mapping[str, np.ndarray], bad: np.ndarray):
    """The value of ``expr``; marks in ``bad`` each sample that turns non-finite."""
    out = _eval_node(expr, grid, bad)
    bad |= ~np.isfinite(out)
    return out


def _eval_node(expr: Expression, grid: Mapping[str, np.ndarray], bad: np.ndarray):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return grid[expr.name]
        except KeyError:
            raise UnknownIdentifierError(expr.name) from None
    if isinstance(expr, Neg):
        return -_eval(expr.arg, grid, bad)
    if isinstance(expr, BinOp):
        return _BINARY[expr.op](_eval(expr.lhs, grid, bad), _eval(expr.rhs, grid, bad))
    if isinstance(expr, Call):
        return _FUNCS[expr.func](_eval(expr.arg, grid, bad))
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
