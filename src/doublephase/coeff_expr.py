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
exp, abs, sqrt (one argument) and min, max (two arguments).  Evaluation is
numpy-broadcasting aware and never returns a non-finite value silently.
"""
from __future__ import annotations

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group(0).strip(), m.start(0) + (len(m.group(0)) - len(m.group(0).lstrip()))))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprParseError(f"expected {op!r}", off)
        self.next()

    def at_op(self, *ops) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            _, op, _ = self.next()
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.at_op("^"):
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if self.at_op("("):
                self.next()
                args = [self.expr()]
                if self.at_op(","):
                    self.next()
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


_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


def _checked(value, what: str):
    if not np.all(np.isfinite(value)):
        raise ExprEvalError(f"non-finite value from {what}")
    return value


def eval_expr(ast: Expr, point) -> Union[float, np.ndarray]:
    """Evaluate ``ast`` at ``point = (x, y)`` (scalars or broadcastable arrays).

    Division by zero and domain errors raise ExprEvalError instead of
    propagating inf/nan.
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
        left = _eval(node.left, x, y)
        right = _eval(node.right, x, y)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return _checked(np.true_divide(left, right), "'/'")
        return _checked(np.power(left, right, dtype=float), "'^'")
    fn = _CALLS[node.func]
    args = [_eval(a, x, y) for a in node.args]
    return _checked(fn(*args), node.func)


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
