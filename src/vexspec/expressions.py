"""Tiny arithmetic expression grammar for exponent and weight fields.

An expression is built from numbers, the coordinates x and y, the binary operators
+ - * / ^, unary minus, parentheses, and the functions sin, cos, exp and abs (one argument)
and min and max (two).  ^ binds tightest and groups to the right, and its exponent may
carry a sign (2^-x); unary minus comes next (-x^2 is -(x^2)), then * and /, then + and -,
each pair grouping to the left.  Expressions are parsed once into a small AST and evaluated
vectorized over coordinate arrays.  Every error carries the 1-based column at which it was
detected; an error in a value (a division by zero, or a number, operator result or function
value that is not finite) also names the first such cell and its coordinates.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["ExpressionError", "parse", "evaluate", "evaluate_on_cells", "evaluate_on_nodes"]

# The binary operators: symbol -> (ufunc, precedence, what an error calls its value).  "^"
# binds tighter than unary minus and groups to the right, so _Parser.unary takes it before
# the precedence climb of _Parser.binary can meet it.
_OPERATORS = {
    "+": (np.add, 1, "sum"),
    "-": (np.subtract, 1, "difference"),
    "*": (np.multiply, 2, "product"),
    "/": (np.divide, 2, "quotient"),
    "^": (np.power, 3, "power"),
}
# The functions: name -> (ufunc, number of arguments)
_FUNCTIONS = {
    "sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1), "abs": (np.abs, 1),
    "min": (np.minimum, 2), "max": (np.maximum, 2),
}

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
    """Recursive descent over: binary -> unary -> atom."""

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

    def binary(self, lowest: int = 1):
        """Operands joined by operators of precedence lowest or more, left to right."""
        node = self.unary()
        while True:
            _, value, col = self.peek()  # only an op token's value can name an operator
            level = _OPERATORS[value][1] if value in _OPERATORS else 0
            if level < lowest:
                return node
            self.next()
            node = ("binop", value, node, self.binary(level + 1), col)

    def unary(self):
        """- unary, or atom ^ unary, or atom: a signed exponent, and -x^2 is -(x^2)."""
        _, value, col = self.peek()
        if value == "-":
            self.next()
            return ("neg", self.unary(), col)
        node = self.atom()
        _, value, col = self.peek()
        if value != "^":
            return node
        self.next()
        return ("binop", "^", node, self.unary(), col)

    def atom(self):
        kind, value, col = self.next()
        if kind == "num":
            return ("num", float(value), col)
        if kind == "name":
            if value in ("x", "y"):
                return ("var", value, col)
            if value not in _FUNCTIONS:
                raise ExpressionError(f"unknown token {value!r}", col)
            self.expect_op("(")
            arity = _FUNCTIONS[value][1]
            args = [self.binary()]
            while True:
                _, sep, c2 = self.next()
                if sep == "," and len(args) < arity:
                    args.append(self.binary())
                elif sep == ")" and len(args) == arity:
                    return ("call", value, *args, col)
                elif sep == "," or len(args) < arity:
                    count = ("one argument", "two arguments")[arity - 1]
                    raise ExpressionError(f"{value} takes exactly {count}", c2)
                else:
                    raise ExpressionError("expected ')'", c2)
        if kind == "op" and value == "(":
            node = self.binary()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}", col)


def parse(text: str):
    parser = _Parser(text)
    node = parser.binary()
    kind, value, col = parser.peek()
    if kind != "end":
        raise ExpressionError(f"unexpected token {value!r}", col)
    return node


def _reject(bad: np.ndarray, message: str, coords: dict, col: int) -> None:
    """An ExpressionError naming the first cell of the mask bad, and its coords, if any."""
    if bad.any():
        idx = tuple(map(int, np.unravel_index(int(np.argmax(bad)), bad.shape)))
        where = tuple(float(np.asarray(coords[name])[idx]) for name in sorted(coords))
        raise ExpressionError(f"{message} at cell {idx} (coords {where})", col)


def _eval(node, coords: dict):
    """node's values over coords, all finite: a literal read as inf, or an operator or function
    value that is not finite, raises at the node's column, so `evaluate` mutes numpy's warnings."""
    kind, col = node[0], node[-1]
    if kind == "var":
        if node[1] not in coords:
            raise ExpressionError(f"variable {node[1]!r} not available on this grid", col)
        return coords[node[1]]
    if kind == "neg":
        return -_eval(node[1], coords)
    if kind == "num":
        out, what = np.full(next(iter(coords.values())).shape, node[1]), "number"
    else:  # a call or a binop: (kind, name or symbol, operand..., column)
        args = [_eval(arg, coords) for arg in node[2:-1]]
        if kind == "call":
            ufunc, what = _FUNCTIONS[node[1]][0], node[1]
        else:
            ufunc, _, what = _OPERATORS[node[1]]
            if node[1] == "/":
                _reject(args[1] == 0.0, "division by zero", coords, col)
        out = ufunc(*args)
    finite = np.isfinite(out)
    if not finite.all():
        _reject(~finite, f"non-finite {what}", coords, col)
    return out


def evaluate(text: str, coords: dict) -> np.ndarray:
    """Parse and evaluate over coordinate arrays keyed by variable name."""
    if not coords:
        raise ValueError("coords must supply at least the x array")
    shapes = {np.asarray(v).shape for v in coords.values()}
    if len(shapes) != 1:
        raise ValueError("coordinate arrays must share one shape")
    arrays = {k: np.asarray(v, dtype=float) for k, v in coords.items()}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.asarray(_eval(parse(text), arrays), dtype=float)


def _coord_dict(grid, points) -> dict:
    names = ("x", "y")
    return {names[a]: points[a] for a in range(grid.dim)}


def evaluate_on_cells(text: str, grid) -> np.ndarray:
    """Evaluate at cell midpoints, the sampling used for exponents and weights."""
    return evaluate(text, _coord_dict(grid, grid.cell_midpoints()))


def evaluate_on_nodes(text: str, grid) -> np.ndarray:
    return evaluate(text, _coord_dict(grid, grid.node_coordinates()))
