"""Small arithmetic expression language for coefficient functions.

Coefficient fields (drift components, zero-order term, right-hand side,
initial data) are given in config files as strings like ``"-1 + 0.5*sin(3*x)"``
or ``"piecewise(r, 0.2, 1.0, 0.8, -1.0, -2.0)"``.  The language knows the
variables ``x``, ``y`` and ``r`` (distance to the domain center), the signs
and named functions of ``_OPS`` and a radial piecewise selector.  ``_OPS`` is
the one place where the operators are listed: the parser, the evaluator and
the printer all read it.  ASTs are immutable; evaluation is pure.

Tokens come from the compiled patterns ``_NUMBER`` and ``_NAME``; digits and
names are ASCII, and names are case-insensitive.  Scanning stops at the first
non-ASCII character, so a syntax error's offset counts the UTF-8 bytes of the
source before it as well as its characters.

``evaluate_on_points`` is the one evaluator.  It computes every node on whole
node arrays (a constant stays a scalar, except as a power's exponent), and a
domain error (division by zero, sqrt of a negative, an invalid power) counts
only at points that use the value: a piecewise branch is checked only where
it is selected, so each point evaluates as it would alone.  An overflow in
an intermediate value counts only if the result is non-finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InfeigError

VARIABLES = ("x", "y", "r")
# operator -> (numpy function, argument count when called by name); a count
# of 0 marks a sign: the unary minus "neg" or an infix operator
_OPS = {
    "neg": (np.negative, 0),
    "+": (np.add, 0),
    "-": (np.subtract, 0),
    "*": (np.multiply, 0),
    "/": (np.divide, 0),
    "^": (np.power, 0),
    "abs": (np.abs, 1),
    "exp": (np.exp, 1),
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "sqrt": (np.sqrt, 1),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}


class ExprError(InfeigError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at byte {offset}: expected {expected}")


class UnknownIdentifier(ExprError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at byte {offset}")


class EvalError(ExprError):
    """Division by zero, even root of a negative, a non-finite result, or
    nesting too deep to evaluate."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # a key of _OPS: "neg" or a function of one argument
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _OPS: an infix sign or a function of two arguments
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Piecewise:
    """Threshold selector: first (threshold, value) pair with selector <= threshold
    wins, otherwise the default branch."""

    selector: "ExprAst"
    thresholds: tuple
    values: tuple
    default: "ExprAst"


ExprAst = Union[Const, Var, Unary, Binary, Piecewise]

# an exponent with no digits is left to the next token
_NUMBER = re.compile(r"[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def take(self, pattern: re.Pattern) -> str:
        """The text ``pattern`` matches at pos ("" if none), moving pos past it."""
        m = pattern.match(self.src, self.pos)
        text = m.group() if m else ""
        self.pos += len(text)
        return text

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos:self.pos + 1]


def parse(source: str) -> ExprAst:
    """Parse an expression string into an AST.

    Precedence: ``^`` > unary minus > ``*``/``/`` > ``+``/``-``; parentheses
    override.  Errors report byte offsets into the source string; nesting
    deeper than Python's recursion limit allows is an ExprError too.
    """
    sc = _Scanner(source)
    try:
        ast = _parse_infix(sc, "+-", _parse_product)
    except RecursionError:
        raise ExprError(f"expression nested too deeply to parse at byte {sc.pos}") from None
    sc.skip_ws()
    if sc.pos != len(sc.src):
        raise ExprSyntaxError(sc.pos, "end of input")
    return ast


def _parse_product(sc: _Scanner) -> ExprAst:
    return _parse_infix(sc, "*/", _parse_unary)


def _parse_infix(sc: _Scanner, ops: str, operand) -> ExprAst:
    """Left-associative chain of ``operand`` joined by the signs in ``ops``;
    a sum is ``_parse_infix(sc, "+-", _parse_product)``."""
    node = operand(sc)
    while (ch := sc.peek()) and ch in ops:
        sc.pos += 1
        node = Binary(ch, node, operand(sc))
    return node


def _parse_unary(sc: _Scanner) -> ExprAst:
    if sc.peek() == "-":
        sc.pos += 1
        return Unary("neg", _parse_unary(sc))
    base = _parse_atom(sc)
    if sc.peek() == "^":
        sc.pos += 1
        # right-associative; exponent may carry its own unary minus
        return Binary("^", base, _parse_unary(sc))
    return base


def _parse_atom(sc: _Scanner) -> ExprAst:
    ch = sc.peek()
    if ch == "":
        raise ExprSyntaxError(sc.pos, "a value")
    if ch == "(":
        sc.pos += 1
        inner = _parse_infix(sc, "+-", _parse_product)
        if sc.peek() != ")":
            raise ExprSyntaxError(sc.pos, "')'")
        sc.pos += 1
        return inner
    start = sc.pos
    if name := sc.take(_NAME).lower():
        if sc.peek() == "(":
            return _parse_call(sc, name, start)
        if name in VARIABLES:
            return Var(name)
        raise UnknownIdentifier(name, start)
    text = sc.take(_NUMBER)
    if not text:
        raise ExprSyntaxError(start, "a number, variable or '('")
    try:
        return Const(float(text))
    except ValueError:  # a dot with no digit
        raise ExprSyntaxError(start, "a number") from None


def _parse_call(sc: _Scanner, name: str, start: int) -> ExprAst:
    sc.pos += 1  # consume "("
    args = [_parse_infix(sc, "+-", _parse_product)]
    while sc.peek() == ",":
        sc.pos += 1
        args.append(_parse_infix(sc, "+-", _parse_product))
    if sc.peek() != ")":
        raise ExprSyntaxError(sc.pos, "',' or ')'")
    sc.pos += 1
    if name == "piecewise":
        # piecewise(sel, t1, v1, ..., tn, vn, default): even count >= 4
        if len(args) < 4 or len(args) % 2 != 0:
            raise ExprSyntaxError(start, "piecewise(sel, t1, v1, ..., default)")
        pairs = args[1:-1]
        return Piecewise(args[0], tuple(pairs[0::2]), tuple(pairs[1::2]), args[-1])
    count = _OPS.get(name, (None, 0))[1]
    if count == 0:
        raise UnknownIdentifier(name, start)
    if len(args) != count:
        raise ExprSyntaxError(start, f"{count} argument{'s' * (count > 1)} to {name}")
    return Unary(name, *args) if count == 1 else Binary(name, *args)


def evaluate_on_points(ast: ExprAst, x, y, r) -> np.ndarray:
    """Evaluate over node arrays.  Raises EvalError on division by zero, sqrt
    of a negative, zero to a negative power, a negative base with a
    non-integer exponent or a non-finite result, each only at points that
    use the value (a piecewise branch only where it is selected), and on
    nesting deeper than Python's recursion limit allows."""
    x = np.asarray(x, dtype=float)
    env = {"x": x, "y": np.asarray(y, dtype=float), "r": np.asarray(r, dtype=float)}
    with np.errstate(all="ignore"):
        try:
            out = _eval_vec(ast, env, x.shape)
        except RecursionError:
            raise EvalError("expression nested too deeply to evaluate") from None
    out = np.array(np.broadcast_to(out, x.shape), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalError("non-finite value in field evaluation")
    return out


def _check(bad, where, message: str):
    if np.any(bad if where is None else bad & where):
        raise EvalError(message)


def _eval_vec(ast: ExprAst, env: dict, shape, where=None):
    """Values on full arrays, or a scalar for a constant; ``where`` marks the
    points whose value is used (None: every point), the only points where a
    domain check can fail."""
    if isinstance(ast, Const):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        return env[ast.name]
    if isinstance(ast, Unary):
        a = _eval_vec(ast.arg, env, shape, where)
        if ast.op == "sqrt":
            _check(a < 0, where, "sqrt of negative value")
        return _OPS[ast.op][0](a)
    if isinstance(ast, Binary):
        a = _eval_vec(ast.left, env, shape, where)
        b = _eval_vec(ast.right, env, shape, where)
        if ast.op == "/":
            _check(b == 0.0, where, "division by zero")
        elif ast.op == "^":
            _check((a == 0.0) & (b < 0), where, "zero raised to a negative power")
            _check((a < 0) & (b != np.trunc(b)), where, "negative base with non-integer exponent")
            # numpy takes other paths, with other bits, for a scalar or
            # stride-0 exponent (x^2 by squaring), so the exponent is full
            b = np.full(shape, b) if np.ndim(b) == 0 else b
        return _OPS[ast.op][0](a, b)
    if isinstance(ast, Piecewise):
        # threshold k is used where no earlier pair hit, value k where pair k
        # hit, the default where none did
        s = _eval_vec(ast.selector, env, shape, where)
        undecided = np.ones(shape, dtype=bool) if where is None else where.copy()
        hits, values = [], []
        for thr, val in zip(ast.thresholds, ast.values):
            hit = undecided & (s <= _eval_vec(thr, env, shape, undecided))
            hits.append(hit)
            values.append(_eval_vec(val, env, shape, hit))
            undecided &= ~hit
        return np.select(hits, values, _eval_vec(ast.default, env, shape, undecided))
    raise AssertionError(type(ast))


def to_source(ast: ExprAst) -> str:
    """Render an AST back to source; parse(to_source(a)) evaluates like a."""
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Unary):
        a = to_source(ast.arg)
        return f"{ast.op}({a})" if _OPS[ast.op][1] else f"(-{a})"
    if isinstance(ast, Binary):
        a, b = to_source(ast.left), to_source(ast.right)
        return f"{ast.op}({a}, {b})" if _OPS[ast.op][1] else f"({a} {ast.op} {b})"
    if isinstance(ast, Piecewise):
        parts = [to_source(ast.selector)]
        for thr, val in zip(ast.thresholds, ast.values):
            parts.append(to_source(thr))
            parts.append(to_source(val))
        parts.append(to_source(ast.default))
        return "piecewise(" + ", ".join(parts) + ")"
    raise AssertionError(type(ast))
