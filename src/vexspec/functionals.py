"""Energies, gradients and spectral bookkeeping for the weighted problem.

The dual-power structure couples a gradient energy with cell exponent p(x)
to a weighted mass term with cell exponent q(x) and positive weight V(x).
Everything is assembled on the discrete measure of a StructuredGrid, so the
nodal gradients below are the exact derivatives of the discrete energies.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (
    StructuredGrid,
    _clear_boundary,
    _squared_norm,
    cell_values,
    cell_values_adjoint,
    gradient,
    gradient_adjoint,
    gradient_magnitude,
    require_dirichlet,
    riesz_solve,
)
from .spaces import (
    _EPS,
    ExponentField,
    _luxemburg_norm,
    _power_sum_root,
    conjugate,
    holder_constant,
    luxemburg_norm,
    product_exponent,
)

__all__ = [
    "ProblemData",
    "EnergySnapshot",
    "RayleighReport",
    "LambdaAlphaInfo",
    "make_problem",
    "is_superlinear",
    "energies",
    "grad_G",
    "grad_F",
    "grad_psi",
    "grad_phi",
    "residual",
    "lambda_alpha",
    "lambda_alpha_detail",
    "alpha_independent_threshold",
    "window_alpha",
    "embedding_constant",
    "rayleigh_extrema",
]

# Floor on |grad u| in the gradient weight where p < 2, which keeps it finite at grad u = 0.
GRAD_EPS = 1e-12

# The 1D descent metric's cell weight is floored at this fraction of its row's largest.
METRIC_FLOOR = 0.1

# make_problem's C_embed is this factor times the ascent estimate of `embedding_constant`.
EMBED_SAFETY = 2.0
# Line searches of an embedding ascent (none tried takes over 31) and of a survey descent.
EMBED_ITERS, SURVEY_ITERS = 250, 1000
# `window_alpha` picks a level whose window clears this multiple of lam.
WINDOW_MARGIN = 2.0


@dataclass(frozen=True)
class ProblemData:
    """Immutable bundle of grid, exponents, weight and certified constants.

    C_H is the two-exponent Hoelder constant of the weight pairing (built
    from s and its conjugate), C_embed a safety-scaled ascent estimate of
    the discrete embedding constant onto the s'(x)q(x)-norm, and V_norm the
    Luxemburg norm of the weight with exponent s(x).
    """

    grid: StructuredGrid
    p: ExponentField
    q: ExponentField
    s: ExponentField
    V: np.ndarray
    C_H: float
    C_embed: float
    V_norm: float

    @property
    def target_exponent(self) -> ExponentField:
        return product_exponent(conjugate(self.s), self.q)

    # exponent arrays every energy and profile evaluation reuses, computed once
    @cached_property
    def _p_minus_1(self) -> np.ndarray:
        return self.p.values - 1.0

    @cached_property
    def _half_p_minus_2(self) -> np.ndarray:
        return 0.5 * (self.p.values - 2.0)

    @cached_property
    def _grad_floor(self) -> np.ndarray:
        """GRAD_EPS^2 on the cells with p < 2, where it keeps the gradient weight finite; else 0."""
        return np.where(self.p.values < 2.0, GRAD_EPS**2, 0.0)

    @cached_property
    def _q_minus_1(self) -> np.ndarray:
        return self.q.values - 1.0

    @cached_property
    def _vol_over_p(self) -> np.ndarray:
        return self.grid.cell_volume / self.p.values

    @cached_property
    def _vol_over_q(self) -> np.ndarray:
        return self.grid.cell_volume / self.q.values


@dataclass(frozen=True)
class EnergySnapshot:
    """All four energies of one nodal function at one spectral parameter."""

    G: float
    F: float
    phi: float
    psi: float
    I_lambda: float
    lambda_used: float


@dataclass(frozen=True)
class LambdaAlphaInfo:
    value: float
    branch: str
    alpha: float


@dataclass(frozen=True)
class RayleighReport:
    """Certified upper bounds on four quotient infima, with their witnesses."""

    nu_star: float
    nu_sup: float
    lambda_star: float
    mu_star: float
    trials: int
    witnesses: dict


def _check_field(grid: StructuredGrid, e: ExponentField, name: str) -> None:
    if e.values.shape != grid.cell_shape:
        raise ValueError(f"{name} exponent shape {e.values.shape} != cells {grid.cell_shape}")


def _check_int(value, name: str, least: int) -> None:
    """Reject by name anything but an integer (not a bool) of at least `least`, 0 or 1."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
        if least == 0:
            raise ValueError(f"{name} must be a non-negative integer (got {value!r})")
        raise ValueError(f"{name} must be positive (got {value!r}) and an integer")


def make_problem(
    grid: StructuredGrid,
    p: ExponentField,
    q: ExponentField,
    s: ExponentField,
    V,
    *,
    C_H: float | None = None,
    C_embed: float | None = None,
    V_norm: float | None = None,
    embed_trials: int = 1,
    embed_seed: int = 0,
) -> ProblemData:
    """Validate the fields and fill in any constant not supplied explicitly.

    C_H defaults to `holder_constant(s)` and V_norm to the Luxemburg norm
    of V with exponent s.  C_embed defaults to EMBED_SAFETY (2) times
    `embedding_constant(pd, embed_trials, seed=embed_seed)`, the best of
    embed_trials ascents of the embedding ratio, run as one stack on the
    line search of every descent (one ascent by default, which folds on
    bitwise-symmetric 2D data).  That value is a certified lower bound
    on the discrete embedding constant; the safety factor makes it an
    upper bound in practice, not a certified one (another factor k is
    C_embed=k * embedding_constant(pd)).  All three constants must come
    out positive and finite.
    """
    for e, name in ((p, "p"), (q, "q"), (s, "s")):
        if not isinstance(e, ExponentField):
            raise TypeError(
                f"exponent {name} must be an ExponentField (build it with exponent_field or "
                f"constant_exponent), got {type(e).__name__}"
            )
        _check_field(grid, e, name)
    _check_int(embed_trials, "embed_trials", 1)
    _check_int(embed_seed, "embed_seed", 0)
    V = np.asarray(V, dtype=float)
    if V.shape != grid.cell_shape:
        raise ValueError(f"weight shape {V.shape} != cells {grid.cell_shape}")
    bad = ~(np.isfinite(V) & (V > 0.0))
    if np.any(bad):
        cell = tuple(map(int, np.unravel_index(int(np.argmax(bad)), V.shape)))
        raise ValueError(f"weight must be positive and finite everywhere, offending cell {cell}")
    if s.lo <= max(p.hi, q.hi):
        raise ValueError("inf s must exceed both sup p and sup q")

    if C_H is None:
        C_H = holder_constant(s)
    if V_norm is None:
        V_norm = luxemburg_norm(V, s, grid.cell_volume).norm
    pd = ProblemData(grid, p, q, s, V, float(C_H), np.nan, float(V_norm))
    if C_embed is None:
        C_embed = EMBED_SAFETY * embedding_constant(pd, embed_trials, seed=embed_seed)
    pd = dataclasses.replace(pd, C_embed=float(C_embed))
    _require_constants(pd)
    return pd


def _restricted(pd: ProblemData, extents: tuple, mirror: tuple) -> ProblemData:
    """pd on the corner of its grid at node 0 with these extents and mirror flags.

    A folded descent runs there.  The cell fields are cut to the corner's
    cells; the constants and the exponent bounds stay pd's, which
    mirror-symmetric data share with the corner that generates them.
    """
    grid = StructuredGrid(extents, pd.grid.spacing, mirror)
    cells = tuple(slice(0, n) for n in grid.cell_shape)

    def cut(e: ExponentField) -> ExponentField:
        return dataclasses.replace(e, values=np.ascontiguousarray(e.values[cells]))

    V = np.ascontiguousarray(pd.V[cells])
    return dataclasses.replace(pd, grid=grid, p=cut(pd.p), q=cut(pd.q), s=cut(pd.s), V=V)


def _symmetric_axes(pd: ProblemData, *more) -> list:
    """The axes without a mirror flag along which p, q, V and `more` are bitwise symmetric."""
    fields, grid = (pd.p.values, pd.q.values, pd.V) + more, pd.grid
    return [
        a
        for a in range(grid.dim)
        if not grid.mirror[a] and all(np.array_equal(f, np.flip(f, a)) for f in fields)
    ]


def _fold(pd: ProblemData, w: np.ndarray, *more) -> tuple:
    """Fold a 2D descent from seed w onto the corner of the grid its parity class fixes.

    An axis folds when its node count is odd (at least 5), so the mirror
    line is a node line, when p, q, V and the cell arrays `more` (s, for
    the embedding ascent) are bitwise mirror-symmetric along it and when w
    is bitwise even or odd along it, as every sine mode is, the default
    seed included.  The descent keeps that parity bit for bit, so
    it stays in the fixed-point subspace of the reflection (principle of
    symmetric criticality, Palais, Comm. Math. Phys. 69, 1979), whose
    functions are their values on the half next to node 0: an even class
    ends on a mirror-flagged axis with a free mirror node, an odd class on a
    Dirichlet node.  No cell straddles the mirror line, so every energy there
    is 2**-f times the full grid's for f folded axes, and its nodal
    gradients and Riesz solves are the full grid's restricted (gradients
    halved on the mirror lines).  Returns (pd, w, folds) on the folded grid,
    folds the (axis, class sign) pairs, or (pd, w, ()) when no axis folds.
    """
    grid, folds = pd.grid, []
    if grid.dim == 2:
        for axis in _symmetric_axes(pd, *more):
            if grid.extents[axis] % 2 == 0 or grid.extents[axis] < 5:
                continue
            flip = np.flip(w, axis)
            if np.array_equal(w, flip):
                folds.append((axis, 1.0))
            elif np.array_equal(w, -flip):
                folds.append((axis, -1.0))
    if not folds:
        return pd, w, ()
    extents, mirror = list(grid.extents), list(grid.mirror)
    for axis, sign in folds:
        extents[axis] = (extents[axis] + 1) // 2
        mirror[axis] = sign > 0.0
    nodes = tuple(slice(0, n) for n in extents)
    qpd = _restricted(pd, tuple(extents), tuple(mirror))
    return qpd, np.ascontiguousarray(w[nodes]), tuple(folds)


def _unfold(u: np.ndarray, folds: tuple) -> np.ndarray:
    """The full-grid function of a folded solve's u: each folded axis reflected with its sign."""
    for axis, sign in folds:
        u = np.moveaxis(u, axis, 0)
        u = np.moveaxis(np.concatenate([u, sign * u[-2::-1]]), 0, axis)
    return np.ascontiguousarray(u)


def is_superlinear(pd: ProblemData) -> bool:
    return bool(np.all(pd.p.values < pd.q.values))


def _finite(term: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(term)):
        bad = tuple(map(int, np.unravel_index(int(np.argmax(~np.isfinite(term))), term.shape)))
        raise OverflowError(f"non-finite {name} integrand at cell {bad}")
    return term


def _cell_sum(x: np.ndarray, grid: StructuredGrid):
    """Sum over the trailing cell (or node) axes of x, one sum per row of a stack.

    Each row is summed as one contiguous run, so it rounds exactly as np.sum
    of the row alone.
    """
    return x.reshape(x.shape[: x.ndim - grid.dim] + (-1,)).sum(axis=-1)


def _column(x: np.ndarray, grid: StructuredGrid) -> np.ndarray:
    """Per-row scalars x shaped to broadcast against a stack of grid arrays."""
    return x.reshape(x.shape + (1,) * grid.dim)


def _dot(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """<a, b> over the trailing dim axes of two stacks, one per row.

    np.vecdot hands each row pair to BLAS ddot, so every row rounds as
    np.vdot of the two rows alone.
    """
    if dim > 1:  # vecdot contracts the last axis alone
        lead = a.shape[: a.ndim - dim] + (-1,)
        a, b = a.reshape(lead), b.reshape(lead)
    return np.vecdot(a, b)


def _norm(a: np.ndarray, grid: StructuredGrid, primal: bool = False):
    """Euclidean norm of nodal vectors over the trailing grid axes, one per row.

    It is taken as np.linalg.norm takes it (sqrt of ddot).  On a grid with
    mirror flags the squares are weighted by `grid._mirror_weight`, the
    dual vectors' (nodal gradients) by it and the primal ones' (nodal
    functions) by its reciprocal, so the norm is the unfolded vector's up
    to the common factor 2**(-f/2), which cancels in every ratio of norms.
    """
    w = grid._mirror_weight
    if w is None:
        return np.sqrt(_dot(a, a, grid.dim))
    return np.sqrt(_dot(a, a / w if primal else a * w, grid.dim))


class _Point:
    """The one evaluator of a nodal function u, or a stack of them, and of its rays.

    The constructor takes the cell gradient g, its squared length |g|^2 and
    the cell values ub of u, each once; everything below derives from them.
    A stack u of shape (k,) + grid.shape is evaluated row by row in the
    same calls.  q, if given, replaces the mass exponent pd.q (one cell
    array, or one per row); like u it is fixed here.  Nothing here checks
    u: the public functions below validate outside input, and the descents
    evaluate only functions they built.

    - `ray`, `sphere_scale` and `crossing`, on stacks: the fibering maps
      t -> G(t u), F(t u) (Szulkin and Weth, The method of Nehari manifold,
      2010), from the profiles wg = vol |g|^p / p and wm = vol V |ub|^q / q,
      with G(t u) = sum(wg t^p) and F(t u) = sum(wm t^q) for every t > 0;
      `h10` gives the squared H^1_0 norm.  They are the one place where the
      energies of u, and of any rescaling t u, are computed.
    - `energy_rows` and `energies`: G, F, phi and psi of u, the ray at t = 1.
    - `grad_term`, `mass_term` and `metric_weight`: the nodal gradients and
      the step metric, from the power weight |g|^(p-2) (smoothed where
      p < 2) and the mass weight V |ub|^(q-1) sign ub.

    The weights and the profiles are each built on first use: a descent
    direction reads only the weights, a line-search trial and an energy
    evaluation only the profiles.
    """

    def __init__(self, u, pd: ProblemData, q=None):
        grid = pd.grid
        self.u, self.pd, self.q = u, pd, q
        self.g = gradient(u, grid)
        self.sq = _squared_norm(self.g)
        self.gm = np.sqrt(self.sq)  # gradient_magnitude(g), bit for bit
        self.ub = cell_values(u, grid)

    @cached_property
    def power_weight(self):
        """|g|^(p-2) per cell, smoothed to (|g|^2 + GRAD_EPS^2)^((p-2)/2) where p < 2."""
        return (self.sq + self.pd._grad_floor) ** self.pd._half_p_minus_2

    @cached_property
    def mass_weight(self):
        """V |ub|^(q-1) sign ub per cell."""
        q_minus_1 = self.pd._q_minus_1 if self.q is None else self.q - 1.0
        return self.pd.V * np.abs(self.ub) ** q_minus_1 * np.sign(self.ub)

    @cached_property
    def profiles(self):
        """(wg, wm), the cell weights of G(t u) = sum(wg t^p) and F(t u) = sum(wm t^q)."""
        pd, q = self.pd, self.q
        vol_over_q = pd._vol_over_q if q is None else pd.grid.cell_volume / q
        q = pd.q.values if q is None else q
        wg = _finite(self.gm**pd.p.values * pd._vol_over_p, "gradient")
        return wg, _finite(pd.V * np.abs(self.ub) ** q * vol_over_q, "mass")

    def energies(self, lam: float = 0.0) -> EnergySnapshot:
        G, F, phi, psi = map(float, self.energy_rows())
        return EnergySnapshot(G, F, phi, psi, G - lam * F, float(lam))

    def energy_rows(self):
        """(G, F, phi, psi) of `energies`, one of each per row of a stack: the ray at t = 1."""
        psi, phi = self.ray(None, self.pd.p.values, self.pd.q.values if self.q is None else self.q)
        return self.ray() + (phi, psi)

    def grad_term(self, scale=1.0) -> np.ndarray:
        """Nodal gradient of G, or of psi with scale = p."""
        grid, w = self.pd.grid, self.power_weight
        out = gradient_adjoint((w * scale)[..., None] * self.g * grid.cell_volume, grid)
        _clear_boundary(out, grid)
        return out

    def mass_term(self, scale=1.0) -> np.ndarray:
        """Nodal gradient of F, or of phi with scale = q."""
        grid = self.pd.grid
        out = cell_values_adjoint(self.mass_weight * scale * grid.cell_volume, grid)
        _clear_boundary(out, grid)
        return out

    def metric_weight(self):
        """Cell weight W of the metric a descent steps in from this point.

        W = (p - 1)|grad u|^(p-2) is the weight of the Hessian of G at u,
        vol * gradient_adjoint o W o gradient (the power weight, smoothed
        where p < 2), floored per row at METRIC_FLOOR of its largest value
        so the metric stays uniformly equivalent to
        P = gradient_adjoint o gradient (Karatson and Farago, SIAM J.
        Numer. Anal. 41, 2003): max W / min W <= 1 / METRIC_FLOOR.
        `riesz_solve` inverts it exactly in 1D and by a fixed Chebyshev
        iteration preconditioned by P in 2D, whose rate that ratio bounds.
        """
        grid = self.pd.grid
        w = self.pd._p_minus_1 * self.power_weight
        top = w.max(axis=tuple(range(-grid.dim, 0)), keepdims=True)
        return np.maximum(w, METRIC_FLOOR * top)

    def h10(self):
        """sum |grad u|^2 per row: the squared H^1_0 norm in the metric of `riesz_solve`."""
        return _cell_sum(self.sq, self.pd.grid)

    def ray(self, t=None, P=None, S=None):
        """Rows sum(P wg t^p) and sum(S wm t^q), one scale t per row (t None: u itself).

        Without the cell scales P and S these are G(t u) and F(t u); P = p
        and S = q give psi and phi.  Each row is summed as it would be alone.
        """
        pd, (wg, wm) = self.pd, self.profiles
        if t is not None:  # t None leaves the profiles themselves, as wg * 1**p would give them
            tc = _column(t, pd.grid)
            wg = wg * tc**pd.p.values
            wm = wm * tc ** (pd.q.values if self.q is None else self.q)
        if P is not None:
            wg = P * wg
        if S is not None:
            wm = S * wm
        return _cell_sum(wg, pd.grid), _cell_sum(wm, pd.grid)

    def sphere_scale(self, alpha: float, same=None):
        """Scale t per row with G(t u) = alpha, by the Newton power-sum kernel on wg.

        It solves to float resolution, relative to alpha at every scale of
        alpha; constant p collapses it to the closed form (alpha / G(u))^(1/p),
        in Python floats (the libm rounding of the scalar form).  The solve
        itself fails unless alpha > 0 and no row is the zero function.
        same, if given, names per row a row of the same function whose
        scale it takes, so a repeated row is solved once.
        """
        p, grid, wg = self.pd.p, self.pd.grid, self.profiles[0]
        if same is not None:
            own = sorted(set(same))
            wg, same = wg[own], [own.index(i) for i in same]
        undefined = "no sphere scale: alpha must be positive and no row the zero function"
        if p.is_constant:
            total = _cell_sum(wg, grid)
            if not (alpha > 0.0 and np.all(total)):
                raise ValueError(undefined)
            t = np.array([x ** (1.0 / p.lo) for x in (alpha / total).tolist()])
        else:
            rows, level = wg.reshape(len(wg), -1), np.array([float(alpha)])
            try:
                t = _power_sum_root(rows, p.values.ravel(), level, np.zeros(1))[0]
            except ValueError as exc:  # the kernel needs a positive term on each side
                raise ValueError(undefined) from exc
        return t if same is None else t[same]

    def crossing(self, lam: float, s0=0.0):
        """Positive tau per row where the ray derivative of I_lambda changes sign.

        tau * dI/dtau vanishes where sum(p wg tau^p) = lam sum(q wm tau^q).
        With the exponents ordered on every cell the log of the ratio of the
        two sums is strictly monotone in log tau, so the crossing is unique
        (the ray maximum in the superlinear regime, the ray minimum in the
        sublinear one) and the Newton power-sum kernel finds it, starting
        from log tau = s0.  Constant exponents admit a closed form, taken in
        Python floats as in `sphere_scale`.  The point must carry the
        problem's own q.
        """
        pd, (wg, wm) = self.pd, self.profiles
        grid, p, q = pd.grid, pd.p, pd.q
        a, b = p.values * wg, lam * q.values * wm
        psi, lam_phi = _cell_sum(a, grid), _cell_sum(b, grid)
        if np.any(psi == 0.0) or np.any(lam_phi == 0.0):
            raise ValueError("ray crossing undefined: an energy term vanished")
        if p.is_constant and q.is_constant:
            return np.array([x ** (1.0 / (q.lo - p.lo)) for x in (psi / lam_phi).tolist()])
        if not (q.lo >= p.hi or q.hi <= p.lo):
            raise ValueError("ray crossing needs exponents ordered on every cell")
        a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        return _power_sum_root(a, p.values.ravel(), b, q.values.ravel(), s0=s0)[0]


def energies(u, pd: ProblemData, lam: float = 0.0) -> EnergySnapshot:
    """Evaluate G, F and the unscaled modulars phi, psi, plus I = G - lam F.

    Like the nodal gradients below, a thin wrapper over one `_Point` of
    u, checked here for Dirichlet data.
    """
    return _Point(require_dirichlet(u, pd.grid), pd).energies(lam)


def grad_G(u, pd: ProblemData) -> np.ndarray:
    """Nodal gradient of G; equals the p(x)-Laplacian weak form row by row."""
    return _Point(require_dirichlet(u, pd.grid), pd).grad_term()


def grad_F(u, pd: ProblemData) -> np.ndarray:
    """Nodal gradient of F, i.e. the weighted q(x)-power mass term."""
    return _Point(require_dirichlet(u, pd.grid), pd).mass_term()


def grad_psi(u, pd: ProblemData) -> np.ndarray:
    return _Point(require_dirichlet(u, pd.grid), pd).grad_term(pd.p.values)


def grad_phi(u, pd: ProblemData) -> np.ndarray:
    return _Point(require_dirichlet(u, pd.grid), pd).mass_term(pd.q.values)


def residual(u, pd: ProblemData, lam: float) -> float:
    """Relative Euclidean defect of the weak eigenpair identity at (u, lam)."""
    return _residual_at(_Point(require_dirichlet(u, pd.grid), pd), lam)


def _residual_at(pt: _Point, lam: float) -> float:
    """`residual` at the function of pt, from its stencils."""
    if not np.any(pt.u):
        raise ValueError("residual undefined for the zero function")
    gG = pt.grad_term()
    den = float(np.linalg.norm(gG))
    if den == 0.0:
        raise ValueError("residual undefined: gradient term vanished")
    return float(np.linalg.norm(gG - lam * pt.mass_term()) / den)


# ---------------------------------------------------------------------------
# threshold of the certified eigenvalue window


def _require_constants(pd: ProblemData) -> None:
    for val, name in ((pd.C_H, "C_H"), (pd.C_embed, "C_embed"), (pd.V_norm, "V_norm")):
        if not np.isfinite(val) or val <= 0.0:
            raise ValueError(f"{name} must be a positive constant (got {val})")


def lambda_alpha_detail(pd: ProblemData, alpha: float) -> LambdaAlphaInfo:
    """Window threshold for sphere level alpha, with the active growth branch.

    The four candidate powers of alpha*sup(p) realize the worst case of the
    two-sided power bounds; which one wins depends on whether alpha*sup(p)
    lies above or below 1, and the value is alpha-independent exactly on the
    boundary regimes (sup q = inf p with alpha*sup(p) >= 1, or inf q = sup p
    with alpha*sup(p) < 1).
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive level (got {alpha})")
    _require_constants(pd)
    p, q = pd.p, pd.q
    base = alpha * p.hi
    powers = (q.lo / p.lo, q.lo / p.hi, q.hi / p.lo, q.hi / p.hi)
    worst = max(base**e for e in powers)
    c_star = max(pd.C_embed**q.lo, pd.C_embed**q.hi)
    value = alpha * q.lo / (2.0 * pd.C_H * c_star * worst * pd.V_norm)
    branch = "alpha_p_sup >= 1" if base >= 1.0 else "alpha_p_sup < 1"
    return LambdaAlphaInfo(float(value), branch, float(alpha))


def lambda_alpha(pd: ProblemData, alpha: float) -> float:
    return lambda_alpha_detail(pd, alpha).value


def alpha_independent_threshold(pd: ProblemData) -> float:
    """Window height on the boundary regimes, where alpha drops out."""
    _require_constants(pd)
    c_star = max(pd.C_embed**pd.q.lo, pd.C_embed**pd.q.hi)
    return pd.q.lo / (2.0 * pd.p.hi * pd.C_H * c_star * pd.V_norm)


def window_alpha(pd: ProblemData, lam: float) -> float:
    """Smallest convenient sphere level whose window clears WINDOW_MARGIN * lam.

    Inverts the active branch of lambda_alpha in closed form: the threshold
    grows with alpha when sup q < inf p (pick alpha large) and grows as
    alpha shrinks when inf q > sup p (pick alpha small).
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive (got {lam})")
    _require_constants(pd)
    p, q = pd.p, pd.q
    c_star = max(pd.C_embed**q.lo, pd.C_embed**q.hi)
    den = 2.0 * pd.C_H * c_star * pd.V_norm
    target = WINDOW_MARGIN * lam

    if q.hi < p.lo:
        expo = 1.0 - q.hi / p.lo
        k = q.lo * p.hi ** (-q.hi / p.lo) / den
        alpha = (target / k) ** (1.0 / expo)
        if alpha * p.hi < 1.0:
            expo = 1.0 - q.lo / p.hi
            k = q.lo * p.hi ** (-q.lo / p.hi) / den
            alpha = min((target / k) ** (1.0 / expo), 0.999 / p.hi)
    elif q.lo > p.hi:
        expo = 1.0 - q.lo / p.hi  # negative: threshold rises as alpha shrinks
        k = q.lo * p.hi ** (-q.lo / p.hi) / den
        alpha = min((target / k) ** (1.0 / expo), 0.5 / p.hi)
    else:
        raise ValueError("window_alpha needs a strict regime gap between p and q")

    if lambda_alpha(pd, alpha) < lam:
        raise ValueError("failed to clear the requested window margin")
    return float(alpha)


# ---------------------------------------------------------------------------
# embedding constant and Rayleigh quotient surveys


def _luxemburg_grad(v: np.ndarray, e: ExponentField, vol: float):
    """Norm N(v) and dN/dv by implicit differentiation of modular(v/N) = 1."""
    n = _luxemburg_norm(v, e, vol).norm
    if n == 0.0:
        return 0.0, np.zeros_like(v)
    scaled = np.abs(v) / n
    d = float((e.values * scaled**e.values).sum() * vol)
    dn = e.values * scaled ** (e.values - 1.0) * np.sign(v) * vol / d
    return n, dn


def _sup_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """max|u| / max|v| per row of two stacks: the length along v that moves u by max|u|."""
    return np.abs(u).reshape(len(u), -1).max(1) / np.abs(v).reshape(len(v), -1).max(1)


def _embedding_ratio_and_grad(u: np.ndarray, pd: ProblemData, num_exp: ExponentField, vol):
    """The embedding ratio at u and its nodal gradient, each cell of pd's grid of volume vol."""
    grid = pd.grid
    g = gradient(u, grid)
    gm = gradient_magnitude(g)
    n_den, dn_den_cells = _luxemburg_grad(gm, pd.p, vol)
    n_num, dn_num_cells = _luxemburg_grad(cell_values(u, grid), num_exp, vol)
    if n_den == 0.0 or n_num == 0.0:
        return 0.0, None
    unit = np.where(gm[..., None] > 0.0, g / np.maximum(gm, 1e-300)[..., None], 0.0)
    grad_den = gradient_adjoint(dn_den_cells[..., None] * unit, grid)
    grad_num = cell_values_adjoint(dn_num_cells, grid)
    ratio = n_num / n_den
    grad = (grad_num - ratio * grad_den) / n_den
    grad[grid.boundary_mask] = 0.0
    return ratio, grad


def embedding_constant(
    pd: ProblemData,
    trials: int = 1,
    *,
    seed: int = 0,
) -> float:
    """Ascent estimate of sup ||u||_{s'(x)q(x)} / ||grad u||_{p(x)}.

    Trial 0 starts from the first sine mode, bitwise even on every axis,
    trials 1.. from the H^1_0 Riesz map of Gaussian noise drawn from `seed`
    (`_starts`); by default only trial 0 runs.
    The trials are the rows of one `_sobolev_descent` stack on -ratio, so
    each takes the line search of every descent and ends where it would
    alone.  The step is riesz_solve(g, grid, W) for the gradient g of
    -ratio and W = `_Point.metric_weight` in 1D; in 2D W is None and the
    step the exact H^1_0 one, since in the metric a 2D ascent saves
    searches but no set-up time (see `direction` below).  A row's first
    search starts at 0.5 max|u| / max|step| (the first hook of
    `_sobolev_descent`), a move of half the row's size, with no cap at 1,
    unlike the mountain pass's: capped, the p=3, q=2 ascent at 513 nodes
    took 10 searches, not 8.  A trial is rescaled to
    max|u| = 1 (the ratio is 0-homogeneous), and only a strict increase of
    the ratio passes.  A row stops once a step gains at most 1e-12 of the
    ratio, when a search misses, or after EMBED_ITERS (250) searches.  In
    2D a 1-trial ascent folds like a solve (`_fold`), where s (read by s'q)
    is bitwise symmetric too; each folded cell counts 2**f times for f
    folded axes, so the norms, the ratio and the unfolded end point are the
    full grid's up to summation order.  Each ratio is realized by an
    explicit function, so the maximum is a
    certified lower bound on the discrete supremum; callers scale it by a
    safety factor (`make_problem`: EMBED_SAFETY) before trusting it as an
    upper bound.
    """
    _check_int(trials, "trials", 1)
    _check_int(seed, "seed", 0)
    u, folds = _starts(pd.grid, trials, seed), ()
    if trials == 1:  # only the first mode has a parity on every axis, and s'q reads s
        pd, w, folds = _fold(pd, u[0], pd.s.values)
        u = w[None]
    # Luxemburg norms do not scale by 2**-f: each folded cell counts for its 2**f images
    grid, num_exp, vol = pd.grid, pd.target_exponent, pd.grid.cell_volume * 2.0 ** len(folds)

    # a row's context: its ratio, the kernel's own gradient array at the trial (kept until the
    # next trial, rejected or not: freed, it would let the heap shrink and refault on every 2D
    # call), the max|u| its point is divided by and the relative gain of the step to it
    def admit(_, raw, ctx):
        point, value, new = np.empty_like(raw), np.full(len(raw), np.nan), np.empty_like(ctx)
        for i, (cand, (prev, *_)) in enumerate(zip(raw, ctx)):
            ratio, grad = _embedding_ratio_and_grad(cand, pd, num_exp, vol)
            new[i] = (ratio, grad, 1.0, math.inf)
            if ratio > prev:  # only a strict increase passes; a vanishing norm gives ratio 0
                size = float(np.abs(cand).max())
                np.divide(cand, size, out=point[i])
                value[i], new[i] = -ratio, (ratio, grad, size, (ratio - prev) / ratio)
        return point, value, -value, new

    def direction(u, ctx):  # the gradient of -ratio at the point, grad * size
        d = np.empty_like(u)
        for row, (_, grad, size, _) in zip(d, ctx):
            np.multiply(grad, -size, out=row)
        # a 2D ascent keeps the H^1_0 step: in the metric its 15 searches on the benchmark's
        # 81x97 rectangle fall to 10, but its set-up time does not, and its estimate would move
        weight = _Point(u, pd).metric_weight() if grid.dim == 1 else None
        return d, weight, np.array([c[3] for c in ctx])

    # every start has a positive ratio (a grid has interior nodes), and no step reached it
    ctx = np.empty(trials, dtype=object)
    for i, row in enumerate(u):
        ctx[i] = _embedding_ratio_and_grad(row, pd, num_exp, vol) + (1.0, math.inf)
    ratio = np.array([c[0] for c in ctx])
    start = (u, -ratio, ratio, ctx, lambda u, pdir: 0.5 * _sup_ratio(u, pdir))
    value = _sobolev_descent(start, admit, direction, grid, EMBED_ITERS, 1e-12)[1]
    return float(np.max(-value))


def _sine_mode(grid: StructuredGrid, freqs: tuple) -> np.ndarray:
    """Separable sine mode of frequency freqs[a] along each axis a, zero on the Dirichlet nodes.

    Each axis factor is (anti)symmetrized, so reflecting axis a maps the
    mode to exactly (-1)^(freqs[a]+1) times itself: the parity that pins a
    descent to its symmetry class and lets a 2D solve or ascent fold (`_fold`).
    """
    u = np.ones(grid.shape)
    for axis, m in enumerate(freqs):
        f = np.sin(m * np.pi * np.linspace(0.0, 1.0, grid.extents[axis]))
        f = 0.5 * (f + f[::-1]) if m % 2 else 0.5 * (f - f[::-1])
        u = u * f.reshape([f.size if a == axis else 1 for a in range(grid.dim)])
    u[grid.boundary_mask] = 0.0
    return u


def _starts(grid: StructuredGrid, k: int, seed: int, offset: int = 0) -> np.ndarray:
    """Sine mode 1, then the H^1_0 Riesz maps of Gaussian rows seeded [seed, offset + row].

    Every descent and ascent starts from smooth rows: a raw noise row
    spends a long search on its first concave stretch, and at large p a
    descent from it can stall far above its group's minimum.
    """
    u = np.empty((k,) + grid.shape)
    u[0] = _sine_mode(grid, (1,) * grid.dim)
    for row in range(1, k):
        u[row] = np.random.default_rng([seed, offset + row]).standard_normal(grid.shape)
    if k > 1:  # riesz_solve ignores the boundary values of the draws
        u[1:] = riesz_solve(u[1:], grid)
    return u


# sufficient-decrease fraction of the Armijo test in every descent
ARMIJO = 1e-4


# objective changes within this many ulps of the point's scale are rounding noise
_FLOAT_FLOOR_ULPS = 8.0


class _Row:
    """Control state of one row of a lockstep descent: its point's scalars and its search."""

    __slots__ = ("index", "value", "scale", "res", "step", "used", "terminal", "prev", "fresh",
                 "floor", "length", "left")

    def __init__(self, index, value, scale, res):
        self.index, self.value, self.scale, self.res = index, value, scale, res
        self.step, self.used, self.floor, self.length, self.left = 1.0, 0, 0.0, 0.0, 0
        self.terminal, self.prev, self.fresh = False, False, True


def _take(x, idx, n):
    """Rows idx of an n-row stack x; x itself for all rows or None."""
    if x is None or len(idx) == n:
        return x
    return x[idx]


def _put(x, idx, y, n):
    """x with rows idx replaced by y, as a new stack (x itself is never written)."""
    if x is None or len(idx) == n:
        return y
    x = x.copy()
    x[idx] = y
    return x


def _move(stack: dict, acc: list, n: int, **new) -> None:
    """Move the accepted rows acc of the stack to their new point and direction.

    Their old point, direction and step become the Barzilai-Borwein reference.
    """
    if len(acc) == n:
        stack.update(prev_u=stack["u"], prev_d=stack["d"], prev_pdir=stack["pdir"], **new)
        return
    for key in ("u", "d", "pdir"):
        stack["prev_" + key] = _put(stack["prev_" + key], acc, stack[key][acc], n)
    for key, rows in new.items():
        stack[key] = _put(stack[key], acc, rows, n)


def _retire(rows, stack, gone, out):
    """Write the finished rows `gone` to out and drop them from the stack."""
    n, idx = len(rows), [rows[i].index for i in gone]
    out[0][idx] = _take(stack["u"], gone, n)
    out[1][idx] = [rows[i].value for i in gone]
    if out[2] is not None:
        out[2][idx] = _take(stack["ctx"], gone, n)
    out[3][idx] = [rows[i].used for i in gone]
    keep = [i for i in range(n) if i not in gone]
    return [rows[i] for i in keep], {key: _take(x, keep, n) for key, x in stack.items()}


def _sobolev_descent(start, admit, direction, grid, iters, tol):
    """Monotone Sobolev descents of k starts in lockstep, each with a float-floor terminal phase.

    start = (u, value, scale, ctx) holds the k first points: u of shape
    (k,) + grid.shape, value and scale arrays of k, ctx an array (of
    objects, say) with a leading axis of k, or None.  A fifth entry, if
    given, is the hook first(u, pdir): called once, on the tick where the
    rows that did not stop at their start build their first steps pdir,
    it returns one first trial length per row of that stack (else each
    is 1).  One row is a stack of one: the callbacks take stacks of the
    unfinished rows and return per-row arrays.
    direction(u, ctx) gives the nodal gradients d, the metric weights W
    (`_Point.metric_weight`, or None for H^1_0) and the stop residuals.
    The step rule is the skeleton's: the Sobolev steps pdir =
    riesz_solve(d, grid, W), in the metric of G's Hessian at the point
    (exact in 1D, a fixed Chebyshev step in 2D), are built only at
    accepted points.  admit(u, raw, ctx) maps
    trials onto the feasible set as (point, value, scale, ctx), with value
    NaN where it rejects a trial; the ctx it is handed is that of the rows'
    current points, so per-row data carried in ctx (the survey's
    objective) follows each row as others leave the stack.

    Each row runs the descent it would run alone.  A search tries
    raw = u - s*pdir for the 60 lengths s = step/2^k, k = 0...59.  After the
    first search (which starts at the hook's length), step is the
    Barzilai-Borwein length <du, dd> / <dd, dp>
    of the last step's changes of u, d and pdir (in the metric of pdir),
    else 1.5 times the last hit's s; after a concave stretch
    (<du, dd> < 0 < <dd, dp>) it is at least the secant's length
    |<du, dd>| / <dd, dp>, so a row
    reaches the scale of the problem in one search, not by 1.5 times a
    search.  A trial is accepted on a strict Armijo decrease on
    <d, raw - u> = -s <d, pdir>.  A value
    within _FLOAT_FLOOR_ULPS ulps of scale is rounding noise: such a trial
    is accepted only if its residual is lower, and after the first such
    acceptance no other trial of the row is.  A
    zero trial has no image on the feasible set and is a miss.  A row
    stops at residual <= tol, when all 60 trials of a search miss, or after
    iters searches, and leaves the stack.  One tick gives every unfinished row its next trial:
    all trials go through one admit call, those that pass the value test
    through one direction call, and the rows that start a search through
    one riesz_solve call.  Every kernel under them works row by row, so a
    row's result does not depend on the rest of its batch.  Returns (u,
    value, ctx, searches), stacked like start.
    """
    u, value, scale, ctx, *first = start
    k, dim = len(u), u.ndim - 1
    out = (np.empty_like(u), np.empty(k), None if ctx is None else np.empty_like(ctx),
           np.zeros(k, dtype=int))
    d, aux, res = direction(u, ctx)
    # the step and the Barzilai-Borwein reference are placeholders until they are built
    stack = dict(u=u, ctx=ctx, d=d, aux=aux, pdir=d, prev_u=u, prev_d=d, prev_pdir=d)
    rows = list(map(_Row, range(k), value.tolist(), scale.tolist(), res.tolist()))
    while rows:
        n, stop, fresh = len(rows), [], []
        for i, r in enumerate(rows):
            if r.fresh:
                (stop if r.used >= iters or not r.res > tol else fresh).append(i)
            elif not r.left:  # every trial of its search missed
                stop.append(i)
        if stop:
            rows, stack = _retire(rows, stack, stop, out)
            continue
        if fresh:  # these rows start a search: their steps, trial counts and float floors
            pdir = riesz_solve(_take(stack["d"], fresh, n), grid, _take(stack["aux"], fresh, n))
            stack["pdir"] = _put(stack["pdir"], fresh, pdir, n)
            if first:  # the first searches: no row has stepped, so every row left is fresh
                for r, step in zip(rows, first.pop()(stack["u"], pdir), strict=True):
                    r.step = float(step)
            bb = [i for i in fresh if rows[i].prev]
            if bb:  # secants <du, dd> and curvatures <dd, dp>, in the metric the rows step in
                du, dd, dp = (_take(stack[key], bb, n) - _take(stack["prev_" + key], bb, n)
                              for key in ("u", "d", "pdir"))
                secant, curvature = _dot(du, dd, dim).tolist(), _dot(dd, dp, dim).tolist()
                for i, num, den in zip(bb, secant, curvature):
                    if den > 0.0:  # else the fallback, 1.5 times the last hit's s, stands
                        r, step = rows[i], num / den
                        if 0.0 < step < math.inf:
                            r.step = min(max(step, 1e-16), 1e12)
                        elif num < 0.0:  # a concave stretch: at least the secant's length
                            r.step = min(max(r.step, -step), 1e12)
            for i in fresh:
                r = rows[i]
                r.used, r.fresh, r.length, r.left = r.used + 1, False, r.step, 60
                r.floor = _FLOAT_FLOOR_ULPS * _EPS * r.scale
        lengths = [r.length for r in rows]
        for r in rows:
            r.length, r.left = 0.5 * r.length, r.left - 1
        # a zero trial has no image on the feasible set: u stands in for it and its
        # value is no number, and a tick of zero trials admits nothing
        u, column = stack["u"], (n,) + (1,) * dim
        raw = u - np.array(lengths).reshape(column) * stack["pdir"]
        live = raw.reshape(n, -1).any(axis=1).tolist()
        if False in live:
            if True not in live:
                continue
            raw = np.where(np.reshape(live, column), raw, u)
        point, cand, cand_scale, cand_ctx = admit(u, raw, stack["ctx"])
        cand = [c if ok else math.nan for c, ok in zip(cand.tolist(), live)]
        cand_scale = cand_scale.tolist()
        # the Armijo test on <d, raw - u> (taken once, for all rows, when one needs it),
        # else the float-floor test; rows that pass either have their direction taken
        armijo, tested, slopes = [], [], None
        for i, r in enumerate(rows):
            ok = not r.terminal and cand[i] < r.value
            if ok:
                slopes = slopes or _dot(stack["d"], raw - u, dim).tolist()
                ok = cand[i] <= r.value + ARMIJO * slopes[i]
            armijo.append(ok)
            if ok or abs(cand[i] - r.value) <= r.floor:
                tested.append(i)
        if not tested:
            continue
        nd, naux, nres = direction(_take(point, tested, n), _take(cand_ctx, tested, n))
        # at the float floor the energy test is noise: the residual decides
        acc, acc_t = [], []
        for j, (i, res) in enumerate(zip(tested, nres.tolist())):
            if armijo[i] or res < rows[i].res:
                acc.append(i)
                acc_t.append(j)
                r = rows[i]
                r.value, r.scale, r.res = cand[i], cand_scale[i], res
                r.terminal = r.terminal or not armijo[i]
                r.step, r.prev, r.fresh = min(1.5 * lengths[i], 1e12), True, True
        if acc:
            m = len(tested)
            _move(stack, acc, n, u=_take(point, acc, n), ctx=_take(cand_ctx, acc, n),
                  d=_take(nd, acc_t, m), aux=_take(naux, acc_t, m))
    return out


# the survey's sphere objectives, by the tag that ends each row's context
PSI_PHI, G_F, PSI_PHI_Q_P = 0, 1, 2


def _sphere_quotients(pd: ProblemData, alpha: float):
    """admit and direction of the survey's quotients Q on the sphere G = alpha (_sobolev_descent).

    Each row descends the ray function u -> Q(t(u) u), t(u) u on the sphere
    (Szulkin and Weth, The method of Nehari manifold, 2010); at v on the
    sphere its gradient, grad Q(v) - <grad Q(v), v> / <grad G(v), v> *
    grad G(v), is orthogonal to v, so a step needs no projection.
    A row's context ends in its objective tag: PSI_PHI (psi/phi), G_F (G/F)
    or PSI_PHI_Q_P (psi/phi with the mass exponent q replaced by p), which
    picks its `_Point`'s mass exponent; the starts come with only that
    column.  admit(_, raw, ctx, same=None) scales each trial onto the sphere
    by t = pt.sphere_scale(alpha, same) (same, if given, names per start a
    start of the same function, so a shared start is scaled once), and the
    point carries its quotient and its denominator (phi or F) before the
    tag, from pt.ray(t) with the ray profiles scaled by tag: P = p and S =
    q (or p) on psi/phi rows, P = S = 1 on G/F rows (exact, so each row
    rounds as its objective alone would).  The quotient is its own
    float-floor scale.  With grad = grad_term(P) -
    quotient * mass_term(S) over the denominator, the direction is the ray
    gradient grad - <grad, u> / <grad G, u> * grad G, and the stop residual
    is the length of the Euclidean tangent part of grad, relative to grad G.
    """
    grid, p, q = pd.grid, pd.p.values, pd.q.values
    ones = np.ones_like(p)
    exps = np.stack([q, q, p])  # by tag
    grad_scale, mass_scale = np.stack([p, ones, p]), np.stack([q, ones, p])

    def admit(_, raw, ctx, same=None):
        tag = ctx[..., -1].astype(int)
        pt = _Point(raw, pd, exps[tag])
        t = pt.sphere_scale(alpha, same)
        num, den = pt.ray(t, grad_scale[tag], mass_scale[tag])
        val = num / den
        return _column(t, grid) * raw, val, val, np.stack([val, den, tag], axis=-1)

    def direction(u, ctx):
        val, den, tag = ctx.T
        tag = tag.astype(int)
        pt = _Point(u, pd, exps[tag])
        gG = pt.grad_term()
        grad = pt.grad_term(grad_scale[tag]) - _column(val, grid) * pt.mass_term(mass_scale[tag])
        grad = grad / _column(den, grid)
        normal = _dot(gG, gG, grid.dim)
        tangent = grad - _column(_dot(grad, gG, grid.dim) / normal, grid) * gG
        ray = grad - _column(_dot(grad, u, grid.dim) / _dot(gG, u, grid.dim), grid) * gG
        return ray, pt.metric_weight(), _norm(tangent, grid) / np.sqrt(normal)

    return admit, direction


def rayleigh_extrema(
    pd: ProblemData,
    alpha: float,
    trials: int = 6,
    *,
    seed: int = 0,
) -> RayleighReport:
    """Survey the four quotient infima with a shared witness pool.

    Both sphere quotients are minimized over the same candidate pool, so the
    cell-wise weight bounds (inf q / sup p) * psi/phi <= G/F <= (sup q / inf p)
    * psi/phi transfer verbatim to the reported minima.  The ball infimum
    additionally exploits downward amplitude probes: scaling any candidate
    toward zero drives psi/phi below any positive level whenever inf p >
    sup q, which is exactly why that infimum degenerates to zero.  Pool
    members come from `_sobolev_descent` of each quotient along the rays of
    the sphere G = alpha (`_sphere_quotients`, in the point's metric W, in
    1D and 2D) to a tangent residual of 1e-10, at most SURVEY_ITERS (1000)
    searches each; each value is its witness's quotient, an upper bound.
    All 3*trials descents run as the rows of one lockstep stack, each with
    its own objective carried in its context (psi/phi and G/F from the pool
    starts, psi/phi with q = p from the mu starts); each row ends where it
    would end alone.  The G/F rows take the sphere scales of the psi/phi rows'
    starts, their own functions, so each distinct start is scaled once.
    Both start sets are `_starts`: the first sine mode, then the
    H^1_0 Riesz maps of Gaussian noise drawn from `seed` (the pool and the
    mu rows from different streams).  The pool members are evaluated as one stack,
    each row rounding as it would alone, and the 60 amplitude probes
    2^-k w, k = 1...60, of the psi/phi witness w as its ray; the kept
    probe's quotient is then taken at that probe itself, so every value
    is its witness's quotient bit for bit.
    """
    _check_int(trials, "trials", 1)
    _check_int(seed, "seed", 0)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive level (got {alpha})")
    grid = pd.grid

    u = _starts(grid, trials, seed)
    tags = np.repeat([PSI_PHI, G_F, PSI_PHI_Q_P], trials)[:, None]
    admit, direction = _sphere_quotients(pd, alpha)
    stack = np.concatenate([u, u, _starts(grid, trials, seed, 7919)])
    # the G/F rows start from the psi/phi rows' functions and take their sphere scales
    same = [*range(trials), *range(trials), *range(2 * trials, 3 * trials)]
    start = admit(None, stack, tags, same)
    done, vals = _sobolev_descent(start, admit, direction, grid, SURVEY_ITERS, 1e-10)[:2]
    pool = done[np.arange(2 * trials).reshape(2, trials).T.ravel()]  # psi/phi and G/F, paired
    G, F, phi, psi = (x.tolist() for x in _Point(pool, pd).energy_rows())

    def over_pool(quotients):
        k = int(np.argmin(quotients))
        return quotients[k], pool[k]

    nu_star, w_nu = over_pool([a / b for a, b in zip(psi, phi)])
    nu_sup, w_sup = over_pool([a / b for a, b in zip(G, F)])

    # Ball infimum: amplitude decay below the sphere witness, halved 60 times on its ray.
    lambda_star, w_ball = nu_star, w_nu
    if pd.q.hi < pd.p.lo:
        ts = 0.5 ** np.arange(1.0, 61.0)
        psi, phi = (x.tolist() for x in _Point(w_nu[None], pd).ray(ts, pd.p.values, pd.q.values))
        for t, a, b in zip(ts.tolist(), psi, phi):
            if b <= 0.0 or not math.isfinite(a / b) or a / b >= lambda_star:
                break
            lambda_star, w_ball = a / b, t * w_nu
        if w_ball is not w_nu:  # the value its witness realizes, as every survey value
            _, _, phi, psi = _Point(w_ball, pd).energy_rows()
            lambda_star = psi / phi

    # Free quotient with the mass exponent tied to p.
    mu_star, w_mu = np.inf, None
    for refined, val in zip(done[2 * trials :], vals[2 * trials :]):
        if val < mu_star:
            mu_star, w_mu = val, refined

    return RayleighReport(
        float(nu_star),
        float(nu_sup),
        float(lambda_star),
        float(mu_star),
        trials,
        {"nu_star": w_nu, "nu_sup": w_sup, "lambda_star": w_ball, "mu_star": w_mu},
    )
