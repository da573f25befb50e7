"""Norm calculus for Lebesgue spaces with a cell-wise variable exponent.

All quantities live on a fixed finite family of quadrature cells, so the
underlying measure is a weighted counting measure and every identity below
is exact up to floating point: no quadrature error enters the modular.
"""

from __future__ import annotations

import math
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
        bad = tuple(map(int, np.unravel_index(int(np.argmin(arr)), arr.shape)))
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


def _log_power_sums(log_c: np.ndarray, e: np.ndarray, s: list):
    """Row-wise log sum(c * e^{e s}) and its s-derivative, as two lists.

    Row i of log_c (a 1-D log_c is shared by every row) holds the log
    coefficients of the sum at s[i], -inf for a zero coefficient, which
    enters as exp(-inf) = 0.  Each sum is shifted by its largest term
    against overflow.  The slope's weighted sum is np.vecdot, which hands
    each row to BLAS ddot: each row rounds as np.dot takes it alone.
    """
    # one row, as in every trial of a one-row descent (ball, sphere maximum, mountain pass):
    # plain 1-D sums round as the rows of a stack and save 4-5 us an evaluation (14 against
    # 19 us at 128 cells, 41 against 45 us at 7,680, one BLAS thread)
    if len(s) == 1:
        if log_c.ndim > 1:
            log_c, e = log_c.reshape(-1), e.reshape(-1)
        z = log_c + e * s[0]
        top = z.max()
        w = np.exp(z - top)
        total = w.sum()
        return [float(top + np.log(total))], [float(np.dot(e, w) / total)]
    z = log_c + e * np.array(s)[:, None]
    top = z.max(axis=1)
    w = np.exp(z - top[:, None])
    total = w.sum(axis=1)
    slope = np.vecdot(w, e) / total
    return (top + np.log(total)).tolist(), slope.tolist()


def _listed(x, k: int = 1) -> list:
    """Per-row values (a list, an array of them, or one scalar) as a list of floats.

    A scalar shared by k rows repeats.
    """
    if isinstance(x, list):
        return x
    if isinstance(x, float):  # np.float64 included
        return [x] * k
    x = np.asarray(x, dtype=float).tolist()
    return x if isinstance(x, list) else [x] * k


class _Side:
    """One side sum(c * t**e) of a power-sum equation, per row, in s = log t.

    A one-term side (a fixed target) is linear in s and is evaluated in
    Python floats; a sum of several terms goes through `_log_power_sums`.
    The exponent range counts only the cells with a positive coefficient,
    and each row needs one.
    """

    def __init__(self, c: np.ndarray, e: np.ndarray, k: int):
        keep = c > 0.0
        if keep.all():
            self.spread = e.max(axis=-1) - e.min(axis=-1) if c.shape[-1] > 1 else 0.0
            self.log_c, self.e = np.log(c), e
        elif keep.any(axis=-1).all():
            self.spread = (np.where(keep, e, -np.inf).max(axis=-1)
                           - np.where(keep, e, np.inf).min(axis=-1))
            with np.errstate(divide="ignore"):
                self.log_c, self.e = np.log(c), e
        else:
            raise ValueError("power sums need a positive coefficient on each side")
        self.linear = c.shape[-1] == 1
        if self.linear:  # log sum = log_c + e s, with slope e
            self.log_c, self.e = _listed(self.log_c[..., 0], k), _listed(e[..., 0], k)

    def at(self, s: list):
        """Values and s-derivatives of the log sums of the rows at s."""
        if self.linear:
            return [c + e * s_i for c, e, s_i in zip(self.log_c, self.e, s)], self.e
        return _log_power_sums(self.log_c, self.e, s)

    def keep(self, rows: list) -> None:
        """Keep only the given rows (a shared side stays as it is)."""
        if self.linear:
            self.log_c, self.e = [self.log_c[i] for i in rows], [self.e[i] for i in rows]
            return
        if self.log_c.ndim == 2:
            self.log_c = self.log_c[rows]
        if self.e.ndim == 2:
            self.e = self.e[rows]


def _power_sum_root(a, p, b, q, rtol: float = _EPS, s0=0.0):
    """Root t > 0 of sum(a * t**p) = sum(b * t**q), row by row, with evaluation counts.

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
    resolution of s.  The rounding of the log sums, not rtol, sets the floor
    of the result: two starts can end up to a few hundred
    eps * max(1, |log t|) apart in s.  Coefficients are finite and
    nonnegative, with a positive one on each side.

    a of shape (k, n) holds k equations, one per row, solved in lockstep:
    the sums of every unfinished row are evaluated in the same numpy calls,
    while each row keeps its own bracket and stops on its own test, and
    finished rows leave the stack; the result (t, evaluations) is two arrays
    of k.  A 1-D p, b or q is shared by every row.  Newton starts at s = s0, one
    float for every row or one per row: a caller that knows a nearby root
    (the previous point's) passes its log.
    """
    a = np.asarray(a, dtype=float)
    k = len(a)
    left = _Side(a, np.asarray(p, dtype=float), k)
    right = _Side(np.asarray(b, dtype=float), np.asarray(q, dtype=float), k)
    curvature = _listed(0.25 * (left.spread**2 + right.spread**2), k)
    roots, evals = [0.0] * k, [0] * k
    rows, s, lo, hi = list(range(k)), list(_listed(s0, k)), [-np.inf] * k, [np.inf] * k
    for count in range(1, 200):
        (fa, da), (fb, db) = left.at(s), right.at(s)
        keep = []
        for i in range(len(s)):
            slope = da[i] - db[i]
            step = (fb[i] - fa[i]) / slope if slope else math.nan
            if not math.isfinite(step):
                raise ValueError("power sums do not cross: exponents are not ordered")
            tol = max(rtol, _EPS * abs(s[i]))
            if abs(step) <= tol or curvature[i] * step * step <= 2.0 * abs(slope) * tol:
                roots[rows[i]], evals[rows[i]] = s[i] + step, count
                continue
            keep.append(i)
            lo[i], hi[i] = (s[i], hi[i]) if step > 0.0 else (lo[i], s[i])
            nxt = s[i] + step
            s[i] = nxt if lo[i] < nxt < hi[i] else 0.5 * (lo[i] + hi[i])
        if not keep:
            return np.exp(roots), np.array(evals)
        if len(keep) < len(s):  # finished rows leave the stack
            rows, s, lo, hi, curvature = ([x[i] for i in keep] for x in (rows, s, lo, hi, curvature))
            left.keep(keep)
            right.keep(keep)
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive (got {tol})")
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("luxemburg_norm: input values must be finite")
    return _luxemburg_norm(u, p, _check_cells(u, p, cell_volumes), tol)


def _luxemburg_norm(u: np.ndarray, p: ExponentField, vol, tol: float = 1e-12) -> NormResult:
    """`luxemburg_norm` of finite cell values u, with cell volumes vol that fit them."""
    top = float(np.abs(u).max())  # the methods skip np.max's and np.sum's Python wrappers
    if top == 0.0:
        return NormResult(0.0, 0)
    a = (np.abs(u) / top) ** p.values * vol
    r, evals = _power_sum_root(a.reshape(1, -1), -p.values.ravel(), np.ones(1), np.zeros(1), tol)
    r, evals = float(r[0]), int(evals[0])
    # the floor keeps subnormal inputs from a zero norm or a zero raise step
    norm, raise_by = max(top * r * (1.0 + tol), _TINY), 0.0
    evals += 1
    while float((np.abs(u / norm) ** p.values * vol).sum()) > 1.0:  # modular(u / norm, p, vol)
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
