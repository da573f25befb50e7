"""Expression grammar: parsing, evaluation, and error positions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspec.expressions import ExpressionError, evaluate, evaluate_on_cells, evaluate_on_nodes
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
        ev("sin(1e400)", [1.0])


def test_expression_error_is_value_error():
    assert issubclass(ExpressionError, ValueError)


def test_coordinate_shape_mismatch():
    with pytest.raises(ValueError, match="share one shape"):
        evaluate("x + y", {"x": np.ones(3), "y": np.ones(4)})
    with pytest.raises(ValueError, match="at least"):
        evaluate("1", {})
