"""Tiny arithmetic expression grammar for exponent and weight fields.

Supports numbers, the coordinates x and y, + - * / ^, sin, cos, exp, abs,
min, max and parentheses.  Expressions are parsed once into a small AST and
evaluated vectorized over coordinate arrays; all errors carry the 1-based
column at which they were detected.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["ExpressionError", "parse", "evaluate", "evaluate_on_cells", "evaluate_on_nodes"]

_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_BINARY = {"min": np.minimum, "max": np.maximum}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^(),]))"
)


class ExpressionError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            col = len(text) - len(stripped) + 1
            raise ExpressionError(f"unknown token {stripped[:1]!r}", col)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over: sum -> product -> unary -> power -> atom."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.next()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", col)

    def parse(self):
        node = self.sum()
        kind, value, col = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {value!r}", col)
        return node

    def sum(self):
        node = self.product()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = ("binop", value, node, self.product(), col)
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = ("binop", value, node, self.unary(), col)
            else:
                return node

    def unary(self):
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return ("neg", self.unary(), col)
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, col = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return ("binop", "^", node, self.unary(), col)
        return node

    def atom(self):
        kind, value, col = self.next()
        if kind == "num":
            return ("num", float(value), col)
        if kind == "name":
            if value in ("x", "y"):
                return ("var", value, col)
            if value in _UNARY:
                self.expect_op("(")
                arg = self.sum()
                k2, v2, c2 = self.next()
                if k2 == "op" and v2 == ",":
                    raise ExpressionError(f"{value} takes exactly one argument", c2)
                if k2 != "op" or v2 != ")":
                    raise ExpressionError("expected ')'", c2)
                return ("call1", value, arg, col)
            if value in _BINARY:
                self.expect_op("(")
                a = self.sum()
                k2, v2, c2 = self.next()
                if k2 != "op" or v2 != ",":
                    raise ExpressionError(f"{value} takes exactly two arguments", c2)
                b = self.sum()
                k3, v3, c3 = self.next()
                if k3 == "op" and v3 == ",":
                    raise ExpressionError(f"{value} takes exactly two arguments", c3)
                if k3 != "op" or v3 != ")":
                    raise ExpressionError("expected ')'", c3)
                return ("call2", value, a, b, col)
            raise ExpressionError(f"unknown token {value!r}", col)
        if kind == "op" and value == "(":
            node = self.sum()
            k2, v2, c2 = self.next()
            if k2 != "op" or v2 != ")":
                raise ExpressionError("expected ')'", c2)
            return node
        raise ExpressionError(f"unexpected token {value!r}", col)


def parse(text: str):
    return _Parser(text).parse()


def _locate(bad_mask: np.ndarray, coords: dict):
    idx = tuple(map(int, np.unravel_index(int(np.argmax(bad_mask)), bad_mask.shape)))
    where = tuple(float(np.asarray(coords[name])[idx]) for name in sorted(coords))
    return idx, where


def _eval(node, coords: dict):
    kind = node[0]
    if kind == "num":
        return np.full(next(iter(coords.values())).shape, node[1])
    if kind == "var":
        name, col = node[1], node[2]
        if name not in coords:
            raise ExpressionError(f"variable {name!r} not available on this grid", col)
        return coords[name]
    if kind == "neg":
        return -_eval(node[1], coords)
    if kind == "call1":
        name, arg, col = node[1], _eval(node[2], coords), node[3]
        with np.errstate(invalid="ignore", over="ignore"):
            out = _UNARY[name](arg)
        bad = ~np.isfinite(out)
        if np.any(bad):  # exp overflows; sin and cos of an inf argument are NaN
            idx, where = _locate(bad, coords)
            raise ExpressionError(f"non-finite {name} at cell {idx} (coords {where})", col)
        return out
    if kind == "call2":
        return _BINARY[node[1]](_eval(node[2], coords), _eval(node[3], coords))
    if kind == "binop":
        op, a, b, col = node[1], _eval(node[2], coords), _eval(node[3], coords), node[4]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            zero = b == 0.0
            if np.any(zero):
                idx, where = _locate(zero, coords)
                raise ExpressionError(f"division by zero at cell {idx} (coords {where})", col)
            return a / b
        with np.errstate(invalid="ignore", over="ignore"):
            out = a**b
        bad = ~np.isfinite(out)
        if np.any(bad):
            idx, where = _locate(bad, coords)
            raise ExpressionError(f"non-finite power at cell {idx} (coords {where})", col)
        return out
    raise AssertionError(f"unhandled node {kind}")


def evaluate(text: str, coords: dict) -> np.ndarray:
    """Parse and evaluate over coordinate arrays keyed by variable name."""
    if not coords:
        raise ValueError("coords must supply at least the x array")
    shapes = {np.asarray(v).shape for v in coords.values()}
    if len(shapes) != 1:
        raise ValueError("coordinate arrays must share one shape")
    arrays = {k: np.asarray(v, dtype=float) for k, v in coords.items()}
    return np.asarray(_eval(parse(text), arrays), dtype=float)


def _coord_dict(grid, points) -> dict:
    names = ("x", "y")
    return {names[a]: points[a] for a in range(grid.dim)}


def evaluate_on_cells(text: str, grid) -> np.ndarray:
    """Evaluate at cell midpoints, the sampling used for exponents and weights."""
    return evaluate(text, _coord_dict(grid, grid.cell_midpoints()))


def evaluate_on_nodes(text: str, grid) -> np.ndarray:
    return evaluate(text, _coord_dict(grid, grid.node_coordinates()))
