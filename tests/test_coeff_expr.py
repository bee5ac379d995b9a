import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase.coeff_expr import (
    FUNCTIONS,
    VARIABLES,
    BinOp,
    Call,
    CoefficientField,
    Expr,
    ExprEvalError,
    ExprParseError,
    Neg,
    Num,
    Var,
    eval_expr,
    parse_expr,
    to_source,
)


def test_single_variable():
    assert parse_expr("x") == Var("x")
    assert parse_expr("y") == Var("y")


def test_grammar_precedence():
    ast = parse_expr("1 + 2*x^2")
    assert eval_expr(ast, (2.0, 0.0)) == pytest.approx(9.0)


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2"), (0, 0)) == 512.0


def test_unary_minus_binds_to_atom():
    # per the grammar, -x^2 parses as (-x)^2
    assert eval_expr(parse_expr("-x^2"), (3.0, 0.0)) == 9.0


def test_unbalanced_paren_is_syntax_error():
    with pytest.raises(ExprParseError):
        parse_expr("min(x, y")


def test_unknown_identifier_with_offset():
    with pytest.raises(ExprParseError) as exc:
        parse_expr("1 + foo")
    assert exc.value.offset == 4


def test_wrong_arity():
    with pytest.raises(ExprParseError, match="argument"):
        parse_expr("sin(x, y)")
    with pytest.raises(ExprParseError, match="argument"):
        parse_expr("max(x)")


def test_variable_called_as_function():
    with pytest.raises(ExprParseError, match="unknown function"):
        parse_expr("x(1)")


def test_eval_examples():
    assert eval_expr(parse_expr("x"), (0.25, 0.75)) == 0.25
    assert eval_expr(parse_expr("max(x,y)"), (0.2, 0.9)) == 0.9


def test_division_by_zero_is_error():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/x"), (0.0, 0.0))


def test_sqrt_of_negative_is_error():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("sqrt(x - 1)"), (0.0, 0.0))


def test_overflow_is_error():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("exp(x)"), (1e6, 0.0))


def test_array_evaluation_broadcasts():
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0, 0.5, 0.0])
    out = eval_expr(parse_expr("min(x, y) + 1"), (x, y))
    assert np.allclose(out, [1.0, 1.5, 1.0])


def test_array_evaluation_rejects_partial_nonfinite():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/x"), (np.array([1.0, 0.0]), np.array([0.0, 0.0])))


def test_coefficient_field_roundtrips_source():
    fld = CoefficientField.compile("0.5 + 0.5*x")
    assert fld.source == "0.5 + 0.5*x"
    assert fld(1.0, 0.0) == 1.0


# --- printing round trip ---------------------------------------------------

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.builds(Var, st.sampled_from(["x", "y"])),
)


def _extend(children):
    unary_fns = st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(lambda f, a: Call(f, (a,)), unary_fns, children),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), children, children),
    )


ast_strategy = st.recursive(_leaf, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(ast_strategy)
def test_print_parse_round_trip(ast):
    assert parse_expr(to_source(ast)) == ast


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_eval_deterministic(x, y):
    ast = parse_expr("abs(x - 0.5) + max(x, y)")
    assert eval_expr(ast, (x, y)) == eval_expr(ast, (x, y))


@pytest.mark.parametrize("text, op", [("1e300*1e300", "*"), ("x + y", "+"), ("x - y", "-")])
def test_a_sum_or_product_beyond_the_floats_is_named(text, op):
    with pytest.raises(ExprEvalError, match=rf"^non-finite value from '\{op}'$"):
        eval_expr(parse_expr(text), (1.7e308, -1.7e308 if op == "-" else 1.7e308))


def test_a_field_names_its_source_and_the_operator():
    field = CoefficientField.compile("x*1e300*1e300")
    with pytest.raises(ExprEvalError, match=r"^'x\*1e300\*1e300': non-finite value from '\*'$"):
        field(np.array([1.0, 2.0]), np.zeros(2))


@pytest.mark.parametrize("text, offset", [("1e400", 0), ("x + 2.5e308", 4), ("min(x, 1E+999)", 7)])
def test_a_literal_beyond_the_floats_is_a_parse_error(text, offset):
    with pytest.raises(ExprParseError) as exc:
        parse_expr(text)
    assert exc.value.offset == offset
    assert exc.value.message == f"number {text[offset:].split(')')[0]} out of range"


# --- the previous parser and evaluator, as an oracle -----------------------
# They checked a value for finiteness only at '/', '^' and function calls,
# and took any literal, one beyond the floats included.  The properties below
# hold the module to their results wherever the two rules agree.

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _old_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
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


class _OldParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _old_tokenize(text)
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

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*", "/"):
            _, op, _ = self.next()
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.at_op("^"):
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if self.at_op("-"):
            self.next()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
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


_OLD_CALLS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


def _old_checked(value, what: str):
    if not np.all(np.isfinite(value)):
        raise ExprEvalError(f"non-finite value from {what}")
    return value


def _old_eval_expr(ast, point):
    x, y = point
    with np.errstate(all="ignore"):
        return _old_eval(ast, x, y)


def _old_eval(node, x, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_old_eval(node.operand, x, y)
    if isinstance(node, BinOp):
        left = _old_eval(node.left, x, y)
        right = _old_eval(node.right, x, y)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return _old_checked(np.true_divide(left, right), "'/'")
        return _old_checked(np.power(left, right, dtype=float), "'^'")
    fn = _OLD_CALLS[node.func]
    args = [_old_eval(a, x, y) for a in node.args]
    return _old_checked(fn(*args), node.func)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ExprParseError as exc:
        return exc.message, exc.offset


_LITERALS = ["0", "1", "2.5", ".5", "3.", "1e3", "2E-5", "7e+2", "\u0663", "1e400", "1.5e308", "9" * 400]
_NAMES = ["x", "y", "sin", "exp", "min", "max", "foo", "e", "_a1"]
_OPERATORS = ["(", ")", ",", "+", "-", "*", "/", "^"]
_SPACES = [" ", "  ", "\t", "\n", "\u00a0"]
_BAD = ["$", "@", ".", "\u00e9", "!"]


# texts that mostly parse: operands joined by operators, under a minus,
# parentheses or a call, some with an argument too many or a ')' missing
_grammar_texts = st.recursive(
    st.sampled_from(_LITERALS + ["x", "y"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/ ", "^", "\t^"]), inner).map("".join),
        st.tuples(st.sampled_from(["-", "(", " ( ", "sin(", "max("]), inner, st.sampled_from([")", ", y)", ""])).map(
            "".join
        ),
    ),
    max_leaves=8,
)


@st.composite
def _token_texts(draw):
    """Tokens and spaces at random, or a text from the grammar, with one bad
    character put in about a quarter of them."""
    piece = st.one_of(*map(st.sampled_from, (_LITERALS, _NAMES, _OPERATORS, _OPERATORS, _SPACES)))
    text = draw(st.one_of(st.lists(piece, max_size=14).map("".join), _grammar_texts))
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_BAD)) + text[at:]
    return text


@settings(max_examples=1000, deadline=None)
@given(_token_texts())
def test_parser_is_the_previous_parser(text):
    # the same AST or the same (message, offset), except where the parse
    # reaches a literal beyond the floats, which the previous parser took as
    # inf: that is an error at its offset, named by its text
    new = _parse_outcome(parse_expr, text)
    old = _parse_outcome(lambda s: _OldParser(s).parse(), text)
    try:
        huge = [(val, off) for kind, val, off in _old_tokenize(text) if kind == "num" and math.isinf(float(val))]
    except ExprParseError:
        huge = []
    if new != old:
        assert huge
        assert new == (f"number {huge[0][0]} out of range", huge[0][1])
    if not isinstance(new, tuple):  # a whole parse reaches every literal
        assert not huge


def _first_nonfinite(node, x, y):
    """The first operator or call, in evaluation order (children left to
    right, then the node), whose value from the previous evaluator is not
    finite, named as the error message names it; None if there is none."""
    if isinstance(node, (Num, Var)):
        return None
    if isinstance(node, Neg):
        return _first_nonfinite(node.operand, x, y)
    children, name = ((node.left, node.right), repr(node.op)) if isinstance(node, BinOp) else (node.args, node.func)
    for child in children:
        found = _first_nonfinite(child, x, y)
        if found is not None:
            return found
    try:
        value = _old_eval_expr(node, (x, y))
    except ExprEvalError:
        return name
    return None if np.all(np.isfinite(value)) else name


# small coordinates, and ones of either sign from 1e150 to 1e308, whose
# products leave the floats about half the time
_coordinate = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=150.0, max_value=308.0)).map(
        lambda sk: sk[0] * 10.0 ** sk[1]
    ),
    st.sampled_from([0.0, -0.0, 1.0, 1.7976931348623157e308]),
)


@settings(max_examples=1000, deadline=None)
@given(ast_strategy, _coordinate, _coordinate, st.booleans())
def test_evaluator_is_the_previous_evaluator(ast, x, y, as_arrays):
    # the same bits and type wherever no node leaves the floats; otherwise
    # an ExprEvalError naming the first node that does, which is the old
    # error wherever that node is not a '+', '-' or '*'
    point = (np.array([x, 1.0, -x]), np.array([y, y, 0.5])) if as_arrays else (x, y)
    first = _first_nonfinite(ast, *point)
    if first is None:
        new, old = eval_expr(ast, point), _old_eval_expr(ast, point)
        assert type(new) is type(old)
        assert np.asarray(new).dtype == np.asarray(old).dtype
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
        return
    with pytest.raises(ExprEvalError) as exc:
        eval_expr(ast, point)
    assert str(exc.value) == f"non-finite value from {first}"
    if first not in ("'+'", "'-'", "'*'"):
        with pytest.raises(ExprEvalError, match=re.escape(str(exc.value))):
            _old_eval_expr(ast, point)
