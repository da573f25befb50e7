"""Norm calculus for Lebesgue spaces with a cell-wise variable exponent.

All quantities live on a fixed finite family of quadrature cells, so the
underlying measure is a weighted counting measure and every identity below
is exact up to floating point: no quadrature error enters the modular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

__all__ = [
    "ExponentField",
    "NormResult",
    "exponent_field",
    "constant_exponent",
    "product_exponent",
    "modular",
    "luxemburg_norm",
    "conjugate",
    "holder_constant",
]


@dataclass(frozen=True)
class ExponentField:
    """Exponent values sampled once per quadrature cell, all strictly > 1."""

    values: np.ndarray
    lo: float
    hi: float

    @property
    def is_constant(self) -> bool:
        return self.hi - self.lo <= 1e-14 * self.hi


def exponent_field(values) -> ExponentField:
    """Build an ExponentField, rejecting values that are not finite and > 1."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("exponent field needs at least one cell")
    if not np.all(np.isfinite(arr)):
        raise ValueError("exponent field contains non-finite values")
    if np.any(arr <= 1.0):
        bad = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ValueError(f"exponent must exceed 1 everywhere, offending cell {bad}")
    return ExponentField(arr, float(arr.min()), float(arr.max()))


def constant_exponent(value: float, shape) -> ExponentField:
    return exponent_field(np.full(shape, float(value)))


def product_exponent(a: ExponentField, b: ExponentField) -> ExponentField:
    """Cell-wise product a(x)b(x); exceeds 1 automatically since both factors do."""
    if a.values.shape != b.values.shape:
        raise ValueError("exponent fields have mismatched cell counts")
    return exponent_field(a.values * b.values)


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm with the number of power-sum evaluations behind it.

    `iterations` counts the Newton evaluations of the root kernel plus the
    exact modular checks that keep the norm on the upper side.
    """

    norm: float
    iterations: int


def _log_power_sum(log_c: np.ndarray, e: np.ndarray, s: float):
    """log sum(c * e^{e s}) and its s-derivative, shifted against overflow."""
    if log_c.size == 1:  # one term: its log is linear in s
        return log_c[0] + e[0] * s, e[0]
    z = log_c + e * s
    top = z.max()
    w = np.exp(z - top)
    total = w.sum()
    return top + np.log(total), np.dot(e, w) / total


def _power_sum_root(a, p, b, q, rtol: float = _EPS):
    """Root t > 0 of sum(a * t**p) = sum(b * t**q), with its evaluation count.

    Newton runs in s = log t on f(s) = log sum(a e^{p s}) - log sum(b e^{q s}),
    a difference of log-sum-exps (Boyd & Vandenberghe, sec. 3.1.5): each is
    convex, with the weighted mean exponent as slope and the weighted exponent
    variance (at most a quarter of the squared exponent range) as curvature.
    For a fixed target, b = [target] and q = [0], f is convex and Newton
    approaches the root from one side after its first step.  For two sums the
    callers order the exponents on every cell, so f is strictly monotone, and
    a step that leaves the bracket of signs seen so far becomes a bisection in
    s.  The loop stops once the step, or the error it is predicted to leave
    (curvature / (2 slope) * step**2), is within rtol of t or the float
    resolution of s.  Coefficients are finite and nonnegative, with a
    positive one on each side.
    """
    keep_a, keep_b = a > 0.0, b > 0.0
    la, p = np.log(a[keep_a]), p[keep_a]
    lb, q = np.log(b[keep_b]), q[keep_b]
    if not (la.size and lb.size):
        raise ValueError("power sums need a positive coefficient on each side")
    curvature = 0.25 * ((p.max() - p.min()) ** 2 + (q.max() - q.min()) ** 2)
    lo, hi, s = -np.inf, np.inf, 0.0
    for evals in range(1, 200):
        fa, da = _log_power_sum(la, p, s)
        fb, db = _log_power_sum(lb, q, s)
        slope = da - db
        step = (fb - fa) / slope if slope else np.nan
        if not np.isfinite(step):
            raise ValueError("power sums do not cross: exponents are not ordered")
        tol = max(rtol, _EPS * abs(s))
        if abs(step) <= tol or curvature * step * step <= 2.0 * abs(slope) * tol:
            return float(np.exp(s + step)), evals
        lo, hi = (s, hi) if step > 0.0 else (lo, s)
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    raise ValueError("power-sum root did not converge")


def _check_cells(u: np.ndarray, p: ExponentField, cell_volumes) -> np.ndarray:
    if u.shape != p.values.shape:
        raise ValueError(
            f"cell count mismatch: values {u.shape} vs exponent {p.values.shape}"
        )
    vol = np.asarray(cell_volumes, dtype=float)
    if vol.ndim and vol.shape != u.shape:
        raise ValueError(f"cell count mismatch: volumes {vol.shape} vs values {u.shape}")
    return vol


def modular(u, p: ExponentField, cell_volumes) -> float:
    """sum_c |u_c|^{p_c} vol_c, the convex modular of the discrete measure."""
    u = np.asarray(u, dtype=float)
    vol = _check_cells(u, p, cell_volumes)
    return float(np.sum(np.abs(u) ** p.values * vol))


def luxemburg_norm(u, p: ExponentField, cell_volumes, tol: float = 1e-12) -> NormResult:
    """Luxemburg norm inf{s > 0 : modular(u/s) <= 1} by the Newton power-sum kernel.

    With v = |u| / max|u| (scaled so no power overflows or wholly
    underflows), modular(u/s) = sum(vol * v**p * r**-p) for r = s / max|u|,
    so the kernel solves that sum = 1 to relative accuracy `tol`.  On this
    convex, decreasing target form Newton stays below the root, so the norm
    is raised by the factor 1 + tol, then in doubling steps from one ulp
    until modular(u/norm) <= 1 holds as `modular` evaluates it: the norm
    always lies on the upper side, about tol above the root.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("luxemburg_norm: input values must be finite")
    vol = _check_cells(u, p, cell_volumes)
    if not np.any(u):
        return NormResult(0.0, 0)

    top = float(np.max(np.abs(u)))
    a = (np.abs(u) / top) ** p.values * vol
    r, evals = _power_sum_root(a, -p.values, np.ones(1), np.zeros(1), tol)
    # the floor keeps subnormal inputs from a zero norm or a zero raise step
    norm, raise_by = max(top * r * (1.0 + tol), _TINY), 0.0
    evals += 1
    while modular(u / norm, p, vol) > 1.0:
        raise_by = max(2.0 * raise_by, _EPS * norm, _TINY)
        norm += raise_by
        evals += 1
    return NormResult(norm, evals)


def conjugate(p: ExponentField) -> ExponentField:
    """Cell-wise conjugate p/(p-1); finite since every value exceeds 1."""
    if np.any(p.values <= 1.0):
        raise ValueError("conjugate undefined for exponent values <= 1")
    return exponent_field(p.values / (p.values - 1.0))


def holder_constant(p: ExponentField) -> float:
    """1/inf(p) + 1/inf(p'), the constant in the two-exponent Hoelder bound.

    Lies in [1, 2): equals 1 exactly when p is constant.
    """
    return 1.0 / p.lo + 1.0 / conjugate(p).lo
