import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infeig import expr
from infeig.expr import EvalError, ExprSyntaxError, UnknownIdentifier
from infeig.geometry import Disk, build_grid


def at_point(ast, x=0.0, y=0.0, r=0.0):
    return float(expr.evaluate_on_points(ast, [x], [y], [r])[0])


def ev(source, **env):
    return at_point(expr.parse(source), **env)


def test_linear():
    assert ev("2*x + 1", x=0.5) == 2.0


def test_exponential_at_origin():
    assert ev("exp(-5*r)", r=0.0) == 1.0


def test_piecewise_middle_branch():
    assert ev("piecewise(r, 0.2, 1.0, 0.8, -1.0, -2.0)", r=0.5) == -1.0


def test_piecewise_all_branches():
    src = "piecewise(r, 0.2, 1.0, 0.8, -1.0, -2.0)"
    assert ev(src, r=0.1) == 1.0
    assert ev(src, r=0.2) == 1.0  # thresholds are inclusive
    assert ev(src, r=0.9) == -2.0


def test_precedence():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("-2 ^ 2") == -4.0  # power binds tighter than unary minus
    assert ev("2 ^ -1") == 0.5
    assert ev("2 ^ 3 ^ 2") == 512.0  # right-associative
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("6 / 3 / 2") == 1.0


def test_functions():
    assert ev("min(2, 3)") == 2.0
    assert ev("max(2, 3)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("sqrt(9)") == 3.0
    assert math.isclose(ev("sin(1) ^ 2 + cos(1) ^ 2"), 1.0, rel_tol=1e-15)


def test_scientific_notation():
    assert ev("1e-4") == 1e-4
    assert ev("2.5E2") == 250.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("2 * (x + ")
    assert err.value.offset == 9
    assert "byte 9" in str(err.value)


@pytest.mark.parametrize(
    "source, offset, expected",
    [
        ("2e", 1, "end of input"),  # a bare "e" is not an exponent
        ("1.2.3", 3, "end of input"),
        (".", 0, "a number"),
        ("(x", 2, "')'"),
        ("*x", 0, "a number, variable or '('"),
        ("min(x y)", 6, "',' or ')'"),
        ("sin(x, y)", 0, "1 argument to sin"),
        ("max(x)", 0, "2 arguments to max"),
        ("piecewise(r, 1, 2)", 0, "piecewise(sel, t1, v1, ..., default)"),
        ("sqrt()", 5, "a number, variable or '('"),
        ("", 0, "a value"),
    ],
)
def test_syntax_errors_pinned(source, offset, expected):
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse(source)
    assert (err.value.offset, err.value.expected) == (offset, expected)
    assert str(err.value) == f"syntax error at byte {offset}: expected {expected}"


@pytest.mark.parametrize("source, value", [("1.", 1.0), (".5e-3", 5e-4), ("1.e5", 1e5), ("2.5E+2", 250.0)])
def test_number_forms(source, value):
    assert expr.parse(source) == expr.Const(value)


@pytest.mark.parametrize(
    "source, offset, expected",
    [
        ("1e", 1, "end of input"),  # an exponent with no digits is left to the next token
        ("1e+", 1, "end of input"),
        ("2x", 1, "end of input"),
        ("..5", 0, "a number"),  # "1.2.3" and "." are pinned with the other syntax errors above
        # digits and names are ASCII: a non-ASCII character ends a token
        ("1\u0663", 1, "end of input"),  # ARABIC-INDIC DIGIT THREE
        ("2\u00b2", 1, "end of input"),  # SUPERSCRIPT TWO
        ("1.5e\u0663", 3, "end of input"),
        ("\u212a", 0, "a number, variable or '('"),  # KELVIN SIGN, which lowercases to "k"
    ],
)
def test_token_edges(source, offset, expected):
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse(source)
    assert (err.value.offset, err.value.expected) == (offset, expected)
    assert len(source[:offset].encode()) == offset  # the offset counts bytes as well as characters


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        expr.parse("2 * z")
    assert err.value.name == "z"
    assert err.value.offset == 4


def test_unknown_function():
    with pytest.raises(UnknownIdentifier):
        expr.parse("tan(x)")
    # "neg" names the unary minus in the AST, not a function of the language
    with pytest.raises(UnknownIdentifier):
        expr.parse("neg(x)")


def test_deep_nesting_that_fits_still_parses_and_evaluates():
    assert ev("(" * 150 + "-1" + ")" * 150) == -1.0
    assert ev("sin(" * 100 + "0" + ")" * 100) == 0.0
    assert ev("-" * 400 + "2") == 2.0


def test_nesting_too_deep_is_an_expr_error():
    with pytest.raises(expr.ExprError, match="nested too deeply to parse"):
        expr.parse("(" * 5000 + "1" + ")" * 5000)
    ast = expr.Const(1.0)
    for _ in range(5000):
        ast = expr.Unary("neg", ast)
    with pytest.raises(EvalError, match="nested too deeply to evaluate"):
        at_point(ast)


def test_division_by_zero():
    with pytest.raises(EvalError):
        ev("1 / x", x=0.0)


def test_sqrt_of_negative():
    with pytest.raises(EvalError):
        ev("sqrt(x)", x=-1.0)


def test_nonfinite_rejected():
    with pytest.raises(EvalError):
        ev("exp(x)", x=1e6)


def test_invalid_power():
    with pytest.raises(EvalError):
        ev("x ^ 0.5", x=-2.0)
    with pytest.raises(EvalError):
        ev("x ^ -1", x=0.0)


def test_piecewise_checks_only_the_selected_branch():
    # a branch is checked only where it is selected (first threshold with
    # sel <= t wins), as when each point is evaluated alone
    rs = np.linspace(0.0, 1.0, 41)
    ast = expr.parse("piecewise(r, 0.5, -1, sqrt(r - 0.5) - 1)")
    out = expr.evaluate_on_points(ast, rs, np.zeros_like(rs), rs)
    assert np.array_equal(out, np.where(rs <= 0.5, -1.0, np.sqrt(np.maximum(rs - 0.5, 0.0)) - 1.0))
    ast = expr.parse("piecewise(r, 0.5, 1, 1/(r - 0.5), 2, 3)")
    rs = np.array([0.2, 0.5, 0.9])
    assert np.array_equal(expr.evaluate_on_points(ast, rs, np.zeros(3), rs), [1.0, 1.0, 2.0])


def test_piecewise_selected_branch_still_checked():
    ast = expr.parse("piecewise(r, 0.5, sqrt(r - 0.7), 0)")
    assert at_point(ast, r=0.6) == 0.0  # the default is selected
    with pytest.raises(EvalError, match="sqrt"):
        at_point(ast, r=0.4)
    with pytest.raises(EvalError, match="sqrt"):
        expr.evaluate_on_points(ast, [0.4, 0.6], [0.0, 0.0], [0.4, 0.6])


def test_vectorized_matches_scalar():
    ast = expr.parse("piecewise(r, 0.3, 1.0, -1.0) + 0.1*sin(3*x)")
    xs = np.linspace(0, 1, 17)
    rs = np.abs(xs - 0.5)
    ys = np.zeros_like(xs)
    vec = expr.evaluate_on_points(ast, xs, ys, rs)
    scal = [at_point(ast, x=x, r=r) for x, r in zip(xs, rs)]
    assert np.allclose(vec, scal, rtol=0, atol=0)


def test_round_trip_on_thousand_points():
    sources = [
        "piecewise(r, 0.2, 1.0, 0.8, -1.0, -2.0) + 0.5*sin(3*x)",
        "exp(-5*r) * max(x, y) - x^3 / (2 + abs(y))",
        "-(1 + 2*x)^2 + min(cos(y), 0.5)",
    ]
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    pts[:, 2] = np.abs(pts[:, 2])
    for src in sources:
        ast = expr.parse(src)
        back = expr.parse(expr.to_source(ast))
        for x, y, r in pts:
            a = at_point(ast, x, y, r)
            b = at_point(back, x, y, r)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# random AST generation for the round-trip property

_leaf = st.one_of(
    st.floats(min_value=-5, max_value=5, allow_nan=False).map(expr.Const),
    st.sampled_from(["x", "y", "r"]).map(expr.Var),
)


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from(["neg", "abs", "sin", "cos", "exp", "sqrt"]), sub).map(
            lambda t: expr.Unary(t[0], t[1])
        ),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "min", "max"]), sub, sub).map(
            lambda t: expr.Binary(t[0], t[1], t[2])
        ),
        st.tuples(sub, sub, sub, sub).map(
            lambda t: expr.Piecewise(t[0], (t[1],), (t[2],), t[3])
        ),
    )


@settings(max_examples=60, deadline=None)
@given(ast=_tree(3), x=st.floats(-2, 2), y=st.floats(-2, 2), r=st.floats(0, 2))
def test_round_trip(ast, x, y, r):
    text = expr.to_source(ast)
    back = expr.parse(text)
    try:
        a = at_point(ast, x, y, r)
    except EvalError:
        return
    b = at_point(back, x, y, r)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _raises(fn):
    try:
        return False, fn()
    except EvalError:
        return True, None


_point = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2))


@settings(max_examples=200, deadline=None)
@given(ast=_tree(3), points=st.lists(_point, min_size=1, max_size=6))
def test_array_evaluation_is_pointwise(ast, points):
    # an array evaluation fails exactly when some point fails alone, and
    # otherwise gives each point the value it gets alone
    x, y, r = (np.array(col) for col in zip(*points))
    failed, values = _raises(lambda: expr.evaluate_on_points(ast, x, y, r))
    alone = [_raises(lambda p=p: at_point(ast, *p)) for p in points]
    assert failed == any(f for f, _ in alone)
    if not failed:
        assert np.array_equal(values, [v for _, v in alone])
    # a branch selected at no point cannot change the outcome (r <= 2 < 3)
    poison = expr.parse("sqrt(-1)")
    for masked in (
        expr.Piecewise(expr.Var("r"), (expr.Const(3.0),), (ast,), poison),
        expr.Piecewise(expr.Var("r"), (expr.Const(-1.0),), (poison,), ast),
    ):
        f, v = _raises(lambda: expr.evaluate_on_points(masked, x, y, r))
        assert f == failed
        if not failed:
            assert np.array_equal(v, values)


def test_power_bits_as_with_a_full_exponent():
    # numpy squares for a scalar exponent 2, with other bits than its general
    # power; a constant exponent is evaluated as a full array
    grid = build_grid(Disk((0.0, 0.0), 1.0), 1.0 / 64.0, 2)
    x, y, r = grid.node_variables
    a = x - 0.0123
    got = expr.evaluate_on_points(expr.parse("(x - 0.0123)^2"), x, y, r)
    assert got.tobytes() == np.power(a, np.full(a.shape, 2.0)).tobytes()
