"""Tiny arithmetic expression language for coefficient fields.

Coefficient fields (weights on the domain and its boundary) are given in
config files as strings like ``"0.5 + 0.5*x"`` or ``"abs(x - 0.5)"``.  The
grammar, with ``^`` right-associative, is::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | ident | ident '(' expr (',' expr)? ')' | '(' expr ')'

Identifiers are the coordinates ``x``, ``y`` and the functions sin, cos,
exp, abs, sqrt (one argument) and min, max (two arguments).  A number must
be a finite float: ``1e400`` is an ExprParseError at its offset.
Evaluation is numpy-broadcasting aware and checks the value of every
operator and call, so it never returns a non-finite value, nor one computed
from a non-finite intermediate.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExprParseError",
    "ExprEvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "CoefficientField",
    "parse_expr",
    "eval_expr",
    "to_source",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}
VARIABLES = ("x", "y")


class ExprParseError(ValueError):
    """Syntax error, unknown identifier or wrong arity; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        return type(self), (self.message, self.offset)


class ExprEvalError(ArithmeticError):
    """Evaluation produced a non-finite value (division by zero, sqrt of a negative, overflow)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Neg, BinOp, Call]

# one token per match: its kind is the group that matched, its text that
# group and its offset that group's start; the end of input is not a match
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, *ops):
        """The next token, consumed, if it is one of the operators ``ops``; else None."""
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            raise ExprParseError(f"expected {op!r}", self.peek()[2])

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Expr:
        return self.left_assoc(self.term, "+", "-")

    def term(self) -> Expr:
        return self.left_assoc(self.factor, "*", "/")

    def left_assoc(self, operand, *ops) -> Expr:
        node = operand()
        while op := self.accept(*ops):
            node = BinOp(op, node, operand())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.accept("^"):
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> Expr:
        if self.accept("-"):
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            value = float(val)
            if not np.isfinite(value):
                raise ExprParseError(f"number {val} out of range", off)
            return Num(value)
        if kind == "ident":
            if self.accept("("):
                args = [self.expr()]
                if self.accept(","):
                    args.append(self.expr())
                self.expect_op(")")
                if val not in FUNCTIONS:
                    raise ExprParseError(f"unknown function {val!r}", off)
                if FUNCTIONS[val] != len(args):
                    raise ExprParseError(
                        f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", off
                    )
                return Call(val, tuple(args))
            if val in VARIABLES:
                return Var(val)
            raise ExprParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprParseError("expected a number, identifier or '('", off)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an AST; raises ExprParseError with a byte offset."""
    return _Parser(text).parse()


# the binary operators by symbol and the functions by name: Python's own
# +, -, * (so float operands give a float), numpy's / and ^ and functions
_APPLY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": np.true_divide,
    "^": lambda base, exponent: np.power(base, exponent, dtype=float),
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


def eval_expr(ast: Expr, point) -> Union[float, np.ndarray]:
    """Evaluate ``ast`` at ``point = (x, y)`` (scalars or broadcastable arrays).

    The value of every operator and function call must be finite at every
    point: an overflow, a division by zero or a domain error raises
    ExprEvalError naming the first node, in evaluation order, whose value is
    not, instead of propagating inf/nan.
    """
    x, y = point
    with np.errstate(all="ignore"):
        return _eval(ast, x, y)


def _eval(node: Expr, x, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_eval(node.operand, x, y)
    if isinstance(node, BinOp):
        name, args, what = node.op, (node.left, node.right), repr(node.op)
    else:
        name, args, what = node.func, node.args, node.func
    value = _APPLY[name](*[_eval(a, x, y) for a in args])
    if not np.all(np.isfinite(value)):
        raise ExprEvalError(f"non-finite value from {what}")
    return value


def to_source(ast: Expr) -> str:
    """Fully parenthesized source; reparsing yields a structurally identical AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{to_source(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({to_source(ast.left)} {ast.op} {to_source(ast.right)})"
    return f"{ast.func}({', '.join(to_source(a) for a in ast.args)})"


@dataclass(frozen=True)
class CoefficientField:
    """A coefficient function of (x, y): source text plus its compiled AST."""

    source: str
    ast: Expr

    @classmethod
    def compile(cls, source: str) -> "CoefficientField":
        return cls(source, parse_expr(source))

    def __call__(self, x, y):
        try:
            return eval_expr(self.ast, (x, y))
        except ExprEvalError as exc:
            raise ExprEvalError(f"{self.source!r}: {exc}") from None

    def at(self, points: np.ndarray) -> np.ndarray:
        """The field's values at the rows of the (N, 2) ``points``, as N floats
        (a constant field broadcast to N)."""
        x, y = points[:, 0], points[:, 1]
        return np.broadcast_to(np.asarray(self(x, y), dtype=float), x.shape)
