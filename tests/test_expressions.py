"""Expression grammar: parsing, evaluation, and error positions."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vexspec.expressions import (
    ExpressionError,
    evaluate,
    evaluate_on_cells,
    evaluate_on_nodes,
    parse,
)
from vexspec.mesh import interval_grid, rectangle_grid


def ev(text, x):
    return evaluate(text, {"x": np.asarray(x, dtype=float)})


def test_constant_field():
    g = interval_grid(9)
    out = evaluate_on_cells("2", g)
    assert out.shape == g.cell_shape
    assert np.all(out == 2.0)


def test_affine_field_at_midpoints():
    g = interval_grid(9, 1.0)
    h = g.spacing[0]
    out = evaluate_on_cells("2 + x", g)
    assert out[0] == pytest.approx(2.0 + h / 2.0, rel=1e-14)
    assert out[-1] == pytest.approx(3.0 - h / 2.0, rel=1e-14)


def test_sine_matches_pointwise_recomputation():
    g = interval_grid(33)
    x = g.cell_midpoints()[0]
    out = evaluate_on_cells("sin(3.14159*x)", g)
    assert np.all(np.abs(out - np.sin(3.14159 * x)) <= 1e-12)


def test_two_dimensional_fields():
    g = rectangle_grid((5, 6), (1.0, 2.0))
    X, Y = g.cell_midpoints()
    out = evaluate_on_cells("x*y + min(x, y)", g)
    assert np.allclose(out, X * Y + np.minimum(X, Y), rtol=1e-14)
    nodes = evaluate_on_nodes("max(x, 0.5) - abs(y)", g)
    Xn, Yn = g.node_coordinates()
    assert np.allclose(nodes, np.maximum(Xn, 0.5) - np.abs(Yn), rtol=1e-14)


def test_operator_precedence_and_unary_minus():
    x = np.array([2.0])
    assert ev("2 + 3 * 4", x)[0] == 14.0
    assert ev("2 * 3 ^ 2", x)[0] == 18.0
    assert ev("-x^2", x)[0] == -4.0
    assert ev("(2 + 3) * 4", x)[0] == 20.0
    assert ev("2 ^ 3 ^ 2", x)[0] == 512.0
    assert ev("6 / 3 / 2", x)[0] == 1.0
    assert ev("1 - 2 - 3", x)[0] == -4.0
    assert ev("exp(0) + cos(0)", x)[0] == 2.0


@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(2, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_affine_expression_round_trip(a, b, n, seed):
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    text = f"{a!r} + {b!r} * x"
    assert np.allclose(ev(text, x), a + b * x, rtol=1e-12, atol=1e-12)


def test_error_positions_are_one_based_columns():
    with pytest.raises(ExpressionError, match="column 5") as info:
        ev("2 + $", [1.0])
    assert info.value.column == 5
    with pytest.raises(ExpressionError, match="column 1"):
        ev("@", [1.0])


def test_unknown_name_and_missing_variable():
    with pytest.raises(ExpressionError, match="unknown token 'foo'"):
        ev("foo + 1", [1.0])
    with pytest.raises(ExpressionError, match="not available"):
        evaluate_on_cells("y + 1", interval_grid(5))


def test_arity_errors():
    with pytest.raises(ExpressionError, match="exactly one argument"):
        ev("sin(x, 2)", [1.0])
    with pytest.raises(ExpressionError, match="exactly two arguments"):
        ev("min(x)", [1.0])
    with pytest.raises(ExpressionError, match="exactly two arguments"):
        ev("max(1, 2, 3)", [1.0])


def test_unbalanced_parentheses():
    with pytest.raises(ExpressionError, match="expected '\\)'"):
        ev("(1 + 2", [1.0])
    with pytest.raises(ExpressionError, match="column 5: expected '\\('"):
        ev("sin x", [1.0])
    with pytest.raises(ExpressionError, match="column 6: expected '\\)'"):
        ev("sin(x", [1.0])
    with pytest.raises(ExpressionError, match="column 9: expected '\\)'"):
        ev("min(x, 1", [1.0])
    with pytest.raises(ExpressionError, match="unexpected token"):
        ev("1 + 2)", [1.0])
    with pytest.raises(ExpressionError, match="unexpected token"):
        ev("", [1.0])


def test_division_by_zero_reports_cell():
    with pytest.raises(ExpressionError, match=r"division by zero at cell \(1,\) "):
        ev("1 / (x - 1)", [0.5, 1.0, 2.0])
    out = ev("1 / (x - 1)", [0.5, 2.0])
    assert np.allclose(out, [-2.0, 1.0])


def test_non_finite_power_rejected():
    with pytest.raises(ExpressionError, match=r"non-finite power at cell \(0,\) "):
        ev("(0 - 1) ^ 0.5", [1.0])


def test_non_finite_function_value_rejected():
    with pytest.raises(ExpressionError, match=r"column 3: non-finite exp at cell \(1,\) "):
        ev("1+exp(1000*x)", [0.5, 1.0])
    with pytest.raises(ExpressionError, match=r"column 1: non-finite sin at cell \(0,\) "):
        ev("sin(x)", [np.inf])


@pytest.mark.parametrize(
    "text, x, message",
    [
        ("1e308*10", [1.0], "column 6: non-finite product at cell (0,) "),
        ("1e400", [1.0], "column 1: non-finite number at cell (0,) "),
        ("2 + 1e400", [1.0], "column 5: non-finite number at cell (0,) "),
        ("sin(1e400)", [1.0], "column 5: non-finite number at cell (0,) "),
        ("1e308 + 1e308*x", [0.5, 1.0], "column 7: non-finite sum at cell (1,) "),
        ("-1e308 - x*1e308", [0.5, 1.0], "column 8: non-finite difference at cell (1,) "),
        ("1e308 / x", [1.0, 0.5], "column 7: non-finite quotient at cell (1,) "),
        ("x^-1", [1.0, 0.0], "column 2: non-finite power at cell (1,) "),
    ],
    ids=["product", "literal", "literal-term", "literal-argument", "sum", "difference",
         "quotient", "power-of-zero"],
)
def test_overflow_is_reported_at_its_column(text, x, message):
    """No value leaves the finite numbers: each overflow names its column and cell, and
    numpy warns of none of them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpressionError) as info:
            ev(text, x)
    assert str(info.value).startswith(message)


def test_expression_error_is_value_error():
    assert issubclass(ExpressionError, ValueError)


def test_coordinate_shape_mismatch():
    with pytest.raises(ValueError, match="share one shape"):
        evaluate("x + y", {"x": np.ones(3), "y": np.ones(4)})
    with pytest.raises(ValueError, match="at least"):
        evaluate("1", {})


# ufunc of each operator and function, and the precedence each printed node has: + - at 1,
# * / at 2, unary minus at 3, ^ at 4, numbers, x and calls at 5
_BINARY_REF = {"+": (np.add, 1), "-": (np.subtract, 1), "*": (np.multiply, 2),
               "/": (np.divide, 2), "^": (np.power, 4)}
_CALL_REF = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
             "min": np.minimum, "max": np.maximum}


_LEAVES = st.one_of(st.just("x"), st.integers(0, 5).map(float), st.floats(0.0, 4.0))


@st.composite
def _trees(draw, depth=4):
    """A tree of at most depth operators and functions above its leaves, each node any of
    the 12 equally likely."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    name = draw(st.sampled_from(sorted(_BINARY_REF) + sorted(_CALL_REF) + ["neg"]))
    arity = 1 if name in ("neg", "sin", "cos", "exp", "abs") else 2
    return (name,) + tuple(draw(_trees(depth - 1)) for _ in range(arity))


def _wrap(printed, least):
    """The text of a printed operand, in parentheses if it binds looser than least."""
    text, level = printed
    return text if level >= least else f"({text})"


def _print(tree):
    """(text, precedence) of tree, with the fewest parentheses README's rules allow."""
    if not isinstance(tree, tuple):
        return (tree if tree == "x" else repr(tree)), 5
    op, args = tree[0], [_print(a) for a in tree[1:]]
    if op in _CALL_REF:
        return f"{op}({', '.join(text for text, _ in args)})", 5
    if op == "neg":
        return "-" + _wrap(args[0], 3), 3
    level = _BINARY_REF[op][1]
    if op == "^":  # the base is an atom, the exponent may carry a sign; groups right
        return f"{_wrap(args[0], 5)}^{_wrap(args[1], 3)}", 4
    return f"{_wrap(args[0], level)} {op} {_wrap(args[1], level + 1)}", level


def _numpy_value(tree, x):
    """tree evaluated by numpy, or None once a divisor is zero or a value is not finite."""
    if not isinstance(tree, tuple):
        return x if tree == "x" else np.full(x.shape, tree)
    args = [_numpy_value(a, x) for a in tree[1:]]
    if any(a is None for a in args) or (tree[0] == "/" and np.any(args[1] == 0.0)):
        return None
    if tree[0] == "neg":
        out = -args[0]
    else:
        ufunc = _CALL_REF[tree[0]] if tree[0] in _CALL_REF else _BINARY_REF[tree[0]][0]
        with np.errstate(all="ignore"):
            out = ufunc(*args)
    return out if np.all(np.isfinite(out)) else None


def _parsed_tree(node):
    """A node of `parse`, without its columns, in the form the strategy draws."""
    kind = node[0]
    if kind in ("num", "var"):
        return node[1]
    if kind == "neg":
        return ("neg", _parsed_tree(node[1]))
    # a call or a binop: (kind, name or symbol, operand..., column)
    return (node[1],) + tuple(_parsed_tree(arg) for arg in node[2:-1])


@given(_trees(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_printed_trees_evaluate_as_numpy_does(tree, xs):
    """A tree printed with the fewest parentheses parses back to itself and evaluates bit
    for bit as numpy evaluates it."""
    text = _print(tree)[0]
    assert _parsed_tree(parse(text)) == tree, text
    x = np.array(xs)
    want = _numpy_value(tree, x)
    assume(want is not None)
    assert ev(text, x).tobytes() == want.tobytes(), text


_ALPHABET = ["0", "2.5", "1e400", "x", "y", "+", "-", "*", "/", "^", "(", ")", ",", "sin",
             "min", "foo", "$", " "]


@given(st.lists(st.sampled_from(_ALPHABET), max_size=9), st.sampled_from(["", " "]))
@settings(max_examples=300, deadline=None)
def test_error_columns_lie_within_the_text(tokens, sep):
    text = sep.join(tokens)
    try:
        ev(text, [0.0, 1.0])
    except ExpressionError as exc:
        assert 1 <= exc.column <= len(text) + 1, (text, exc.column)
        assert str(exc).startswith(f"column {exc.column}: ")
