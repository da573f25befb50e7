"""Energies, gradients and spectral bookkeeping for the weighted problem.

The dual-power structure couples a gradient energy with cell exponent p(x)
to a weighted mass term with cell exponent q(x) and positive weight V(x).
Everything is assembled on the discrete measure of a StructuredGrid, so the
nodal gradients below are the exact derivatives of the discrete energies.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, partial

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
    _listed,
    _power_sum_root,
    conjugate,
    exponent_field,
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
    "is_sublinear",
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

# Smoothing floor for the degenerate gradient weight; active only where p < 2.
GRAD_EPS = 1e-12


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
    def _p_minus_2(self) -> np.ndarray:
        return self.p.values - 2.0

    @cached_property
    def _weight_split(self) -> tuple:
        """Flat indices and weight exponents of the cells with p < 2 (smoothed) and the rest."""
        p = self.p.values.ravel()
        soft, hard = np.flatnonzero(p < 2.0), np.flatnonzero(p >= 2.0)
        return soft, 0.5 * (p[soft] - 2.0), hard, p[hard] - 2.0

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
    safety_factor: float = 2.0,
    embed_trials: int = 1,
    embed_iters: int = 250,
    embed_seed: int = 0,
) -> ProblemData:
    """Validate the fields and fill in any constant not supplied explicitly.

    C_H defaults to `holder_constant(s)` and V_norm to the Luxemburg norm
    of V with exponent s.  C_embed defaults to safety_factor times
    `embedding_constant(pd, embed_trials, embed_iters, seed=embed_seed)`,
    the best of embed_trials H^1_0 ascents of the embedding ratio, each
    stopped once an accepted step gains at most 1e-12 of the ratio or
    after embed_iters line searches (a cap).  That ascent value is realized
    by an explicit function, so it is a certified lower bound on the
    discrete embedding constant; the safety factor makes it an upper
    bound in practice, not a certified one.  All three constants must come
    out positive and finite.
    """
    for e, name in ((p, "p"), (q, "q"), (s, "s")):
        if not isinstance(e, ExponentField):
            raise TypeError(
                f"exponent {name} must be an ExponentField (build it with exponent_field or "
                f"constant_exponent), got {type(e).__name__}"
            )
        _check_field(grid, e, name)
    if not safety_factor > 0.0:
        raise ValueError(f"safety_factor must be positive (got {safety_factor})")
    for value, name in ((embed_trials, "embed_trials"), (embed_iters, "embed_iters")):
        if value < 1:
            raise ValueError(f"{name} must be positive (got {value})")
    V = np.asarray(V, dtype=float)
    if V.shape != grid.cell_shape:
        raise ValueError(f"weight shape {V.shape} != cells {grid.cell_shape}")
    if not np.all(np.isfinite(V)) or np.any(V <= 0.0):
        bad = np.unravel_index(int(np.argmin(V)), V.shape)
        raise ValueError(f"weight must be positive everywhere, offending cell {bad}")
    if s.lo <= max(p.hi, q.hi):
        raise ValueError("inf s must exceed both sup p and sup q")

    if C_H is None:
        C_H = holder_constant(s)
    if V_norm is None:
        V_norm = luxemburg_norm(V, s, grid.cell_volume).norm
    pd = ProblemData(grid, p, q, s, V, float(C_H), np.nan, float(V_norm))
    if C_embed is None:
        estimate = embedding_constant(pd, embed_trials, embed_iters, seed=embed_seed)
        C_embed = safety_factor * estimate
    pd = dataclasses.replace(pd, C_embed=float(C_embed))
    _require_constants(pd)
    return pd


def is_sublinear(pd: ProblemData) -> bool:
    return pd.q.hi <= pd.p.lo or pd.q.lo < pd.p.lo


def is_superlinear(pd: ProblemData) -> bool:
    return bool(np.all(pd.p.values < pd.q.values))


def _finite(term: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(term)):
        bad = np.unravel_index(int(np.argmax(~np.isfinite(term))), term.shape)
        raise OverflowError(f"non-finite {name} integrand at cell {bad}")
    return term


def _cell_sum(x: np.ndarray, grid: StructuredGrid):
    """Sum over the trailing cell (or node) axes of x, one sum per row of a stack.

    Each row is summed as one contiguous run, so it rounds exactly as np.sum
    of the row alone.
    """
    return x.reshape(x.shape[: x.ndim - grid.dim] + (-1,)).sum(axis=-1)


def _column(x, grid: StructuredGrid):
    """Per-row scalars x shaped to broadcast against a stack of grid arrays (a float stays)."""
    return x if isinstance(x, float) else x.reshape(x.shape + (1,) * grid.dim)


def _dot(a: np.ndarray, b: np.ndarray, dim: int):
    """<a, b> over the trailing dim axes: one dot for one array, one per row of a stack.

    np.vecdot hands each row pair to BLAS ddot, so every row rounds as
    np.vdot of the two rows alone.
    """
    if a.ndim == dim:
        return np.vdot(a, b)
    lead = a.shape[: a.ndim - dim] + (-1,)
    return np.vecdot(a.reshape(lead), b.reshape(lead))


def _norm(a: np.ndarray, dim: int):
    """Euclidean norm over the trailing dim axes, as np.linalg.norm takes it (sqrt of ddot)."""
    return np.sqrt(_dot(a, a, dim))


class _Point:
    """One nodal function u, or a stack of them, validated once, each stencil taken once.

    The gradient term (cell gradients g, |g| and the power weight
    |g|^(p-2)) and the mass term (cell values ub and the mass weight
    V |ub|^(q-1) sign ub) are each computed on first use.  The public
    energies and gradients and every descent direction read them here.
    A stack u of shape (k,) + grid.shape is evaluated row by row in the
    same calls, and the nodal terms carry the leading axis.
    """

    def __init__(self, u, pd: ProblemData):
        self.u, self.pd = require_dirichlet(u, pd.grid), pd

    @cached_property
    def grad_cells(self):
        pd = self.pd
        g = gradient(self.u, pd.grid)
        sq = _squared_norm(g)
        gm = np.sqrt(sq)  # gradient_magnitude(g), bit for bit
        if pd.p.lo >= 2.0:
            return g, gm, gm**pd._p_minus_2
        soft, soft_exp, hard, hard_exp = pd._weight_split
        flat = gm.shape[: gm.ndim - pd.grid.dim] + (-1,)
        w = np.empty(gm.shape).reshape(flat)  # smoothed where p < 2 to keep the weight finite
        w[..., soft] = (sq.reshape(flat).take(soft, axis=-1) + GRAD_EPS**2) ** soft_exp
        w[..., hard] = gm.reshape(flat).take(hard, axis=-1) ** hard_exp
        return g, gm, w.reshape(gm.shape)

    @cached_property
    def mass_cells(self):
        ub = cell_values(self.u, self.pd.grid)
        return ub, self.pd.V * np.abs(ub) ** self.pd._q_minus_1 * np.sign(ub)

    def energies(self, lam: float = 0.0) -> EnergySnapshot:
        p, q, vol = self.pd.p.values, self.pd.q.values, self.pd.grid.cell_volume
        grad_pow = _finite(self.grad_cells[1] ** p, "gradient")
        mass_pow = _finite(self.pd.V * np.abs(self.mass_cells[0]) ** q, "mass")
        psi, phi = float(np.sum(grad_pow) * vol), float(np.sum(mass_pow) * vol)
        G, F = float(np.sum(grad_pow / p) * vol), float(np.sum(mass_pow / q) * vol)
        return EnergySnapshot(G, F, phi, psi, G - lam * F, float(lam))

    def grad_term(self, scale=1.0) -> np.ndarray:
        """Nodal gradient of G, or of psi with scale = p."""
        (g, _, w), grid = self.grad_cells, self.pd.grid
        out = gradient_adjoint((w * scale)[..., None] * g * grid.cell_volume, grid)
        _clear_boundary(out, grid)
        return out

    def mass_term(self, scale=1.0) -> np.ndarray:
        """Nodal gradient of F, or of phi with scale = q."""
        grid = self.pd.grid
        out = cell_values_adjoint(self.mass_cells[1] * scale * grid.cell_volume, grid)
        _clear_boundary(out, grid)
        return out


def energies(u, pd: ProblemData, lam: float = 0.0) -> EnergySnapshot:
    """Evaluate G, F and the unscaled modulars phi, psi, plus I = G - lam F.

    Like the nodal gradients below, a thin wrapper over one `_Point` pass.
    """
    return _Point(u, pd).energies(lam)


def grad_G(u, pd: ProblemData) -> np.ndarray:
    """Nodal gradient of G; equals the p(x)-Laplacian weak form row by row."""
    return _Point(u, pd).grad_term()


def grad_F(u, pd: ProblemData) -> np.ndarray:
    """Nodal gradient of F, i.e. the weighted q(x)-power mass term."""
    return _Point(u, pd).mass_term()


def grad_psi(u, pd: ProblemData) -> np.ndarray:
    return _Point(u, pd).grad_term(pd.p.values)


def grad_phi(u, pd: ProblemData) -> np.ndarray:
    return _Point(u, pd).mass_term(pd.q.values)


def residual(u, pd: ProblemData, lam: float) -> float:
    """Relative Euclidean defect of the weak eigenpair identity at (u, lam)."""
    pt = _Point(u, pd)
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
    if alpha <= 0:
        raise ValueError("alpha must be positive")
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


def window_alpha(pd: ProblemData, lam: float, margin: float = 2.0) -> float:
    """Smallest convenient sphere level whose window clears margin*lam.

    Inverts the active branch of lambda_alpha in closed form: the threshold
    grows with alpha when sup q < inf p (pick alpha large) and grows as
    alpha shrinks when inf q > sup p (pick alpha small).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    _require_constants(pd)
    p, q = pd.p, pd.q
    c_star = max(pd.C_embed**q.lo, pd.C_embed**q.hi)
    den = 2.0 * pd.C_H * c_star * pd.V_norm
    target = margin * lam

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
    res = luxemburg_norm(v, e, vol)
    n = res.norm
    if n == 0.0:
        return 0.0, np.zeros_like(v)
    scaled = np.abs(v) / n
    d = float(np.sum(e.values * scaled**e.values) * vol)
    dn = e.values * scaled ** (e.values - 1.0) * np.sign(v) * vol / d
    return n, dn


def _embedding_ratio_and_grad(u: np.ndarray, pd: ProblemData, num_exp: ExponentField):
    grid = pd.grid
    vol = grid.cell_volume
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
    iters: int = 250,
    *,
    seed: int = 0,
) -> float:
    """Ascent estimate of sup ||u||_{s'(x)q(x)} / ||grad u||_{p(x)}.

    Trial 0 starts from the first sine mode, trials 1.. from Gaussian
    noise drawn from `seed`; by default only trial 0 runs (random starts
    gained under 1e-11 relative where tried, at several times the cost).
    Each trial ascends in the H^1_0 metric: the direction is d = P^-1 g
    for the nodal gradient g of the ratio and P = gradient_adjoint o
    gradient (`riesz_solve`), with Barzilai-Borwein lengths in the same
    metric through the shared `_line_search`.  The
    ratio is 0-homogeneous, so an accepted candidate is rescaled to
    max|u| = 1 with its ratio and gradient carried over.  A trial stops
    once an accepted step gains at most 1e-12 of the ratio, when the line
    search misses, or after `iters` searches.

    Every evaluated ratio is realized by an explicit candidate, so the
    returned maximum is a certified lower bound on the discrete supremum;
    callers scale it by a safety factor before trusting it as an upper
    bound.  Each trial's ascent is monotone: only strict increases of the
    ratio are accepted.
    """
    if trials < 1 or iters < 1:
        raise ValueError("trials and iters must be positive")
    grid = pd.grid
    num_exp = pd.target_exponent

    best = 0.0
    for trial in range(trials):
        if trial == 0:
            u = _first_mode(grid)
        else:
            u = np.random.default_rng([seed, trial]).standard_normal(grid.shape)
            u[grid.boundary_mask] = 0.0
        ratio, grad = _embedding_ratio_and_grad(u, pd, num_exp)
        if grad is None:  # a vanishing norm: the start carries no ratio
            continue
        d = riesz_solve(grad, grid)
        step = 0.5 * float(np.max(np.abs(u)) / np.max(np.abs(d)))
        prev_u = None
        for _ in range(iters):
            if prev_u is not None:  # ascent: BB on the gradient of -ratio
                step = _bb_step(u - prev_u, prev_g - grad, [step], prev_d - d, grid.dim)[0]

            def ascend_at(s):
                cand = u + s * d
                cand_ratio, cand_grad = _embedding_ratio_and_grad(cand, pd, num_exp)
                return (cand, cand_ratio, cand_grad) if cand_ratio > ratio else None

            hit, step = _line_search(ascend_at, step)
            if hit is None:
                break
            cand, cand_ratio, cand_grad = hit
            gain = cand_ratio - ratio
            scale = float(np.max(np.abs(cand)))
            prev_u, prev_g, prev_d = u, grad, d
            u, ratio, grad = cand / scale, cand_ratio, cand_grad * scale
            d = riesz_solve(grad, grid)
            if gain <= 1e-12 * ratio:
                break
        best = max(best, ratio)
    return float(best)


def _first_mode(grid: StructuredGrid) -> np.ndarray:
    coords = grid.node_coordinates()
    u = np.ones(grid.shape)
    for axis in range(grid.dim):
        u = u * np.sin(np.pi * coords[axis] / grid.lengths[axis])
    u[grid.boundary_mask] = 0.0
    return u


def _grad_profile(u: np.ndarray, pd: ProblemData) -> np.ndarray:
    """Per-cell weights w with G(t u) = sum(w * t**p) for every t > 0 (row-wise for a stack)."""
    gm = gradient_magnitude(gradient(u, pd.grid))
    return _finite(gm**pd.p.values * pd._vol_over_p, "gradient")


def _mass_profile(u: np.ndarray, pd: ProblemData) -> np.ndarray:
    """Per-cell weights m with F(t u) = sum(m * t**q) for every t > 0 (row-wise for a stack)."""
    ub = cell_values(u, pd.grid)
    return _finite(pd.V * np.abs(ub) ** pd.q.values * pd._vol_over_q, "mass")


def _profile_energies(wg: np.ndarray, wm: np.ndarray, t, pd: ProblemData):
    """(G, F, psi, phi) of t*u from the profiles of u: G = sum(wg t^p), psi = sum(p wg t^p).

    For stacked profiles t holds one scale per row and each energy is an
    array of k.
    """
    tc = _column(t, pd.grid)
    gt, mt = wg * tc**pd.p.values, wm * tc**pd.q.values
    G, F = _cell_sum(gt, pd.grid), _cell_sum(mt, pd.grid)
    return G, F, _cell_sum(pd.p.values * gt, pd.grid), _cell_sum(pd.q.values * mt, pd.grid)


def _rows_pow(base, e: float):
    """base**e in Python floats, row by row: the libm rounding of a scalar closed form."""
    if np.ndim(base) == 0:
        return float(base) ** e
    return np.array([b**e for b in base.tolist()])


def _profile_scale(w: np.ndarray, pd: ProblemData, alpha: float):
    """Solve sum(w * t**p) = alpha for t > 0 given a gradient profile w.

    A stack of profiles gives one t per row (an array), solved in lockstep
    by the row-wise power-sum kernel; a single profile gives a float.
    """
    grid = pd.grid
    if not pd.p.is_constant:  # the kernel rejects a vanished gradient energy itself
        rows = w.reshape(w.shape[: w.ndim - grid.dim] + (-1,))
        return _power_sum_root(rows, pd.p.values.ravel(), np.array([float(alpha)]), np.zeros(1))[0]
    total = _cell_sum(w, grid)
    if 0.0 in _listed(total):
        raise ValueError("gradient energy vanished; function is not admissible")
    return _rows_pow(alpha / total, 1.0 / pd.p.lo)


def _sphere_scale(u: np.ndarray, pd: ProblemData, alpha: float):
    """Scale factor t with G(t u) = alpha, by the Newton power-sum kernel.

    The map t -> G(t u) separates into per-cell powers of t, so the cell
    weights are computed once and the kernel solves the scalar equation to
    float resolution, relative to alpha at every scale of alpha; constant p
    collapses it to the closed form t = (alpha / G(u))^(1/p).  A stack of
    functions gives one scale per row.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not np.all(_cell_sum(u != 0.0, pd.grid)):
        raise ValueError("cannot project the zero function onto a sphere")
    return _profile_scale(_grad_profile(u, pd), pd, alpha)


def _bb_step(du: np.ndarray, dg: np.ndarray, fallback: list, pdg: np.ndarray, dim: int) -> list:
    """Spectral step <du, dg> / <dg, pdg> per row, clipped to a safe positive range.

    du, dg and pdg hold one grid array of dim axes, or a stack of them with
    one row per step; a row whose curvature <dg, pdg> or step is not
    positive and finite takes its fallback.  pdg is the matching change of
    the preconditioned direction: every descent measures its steps in the
    metric of P = gradient_adjoint o gradient.  Returns a list of floats.
    """
    steps = []
    for num, den, other in zip(_listed(_dot(du, dg, dim)), _listed(_dot(dg, pdg, dim)), fallback):
        step = num / den if den > 0.0 else math.nan
        steps.append(min(max(step, 1e-16), 1e12) if math.isfinite(step) and step > 0.0 else other)
    return steps


# sufficient-decrease fraction of the Armijo test in every descent
ARMIJO = 1e-4


def _trial_lengths(step):
    """The 120 trial lengths of one line search: step/2^k, then step*2^(k+1).

    Sixty halvings come first; sixty upward probes follow, because a
    spectral step can land far below the useful range, where every halving
    is a float no-op on the objective.
    """
    for s, factor in ((step, 0.5), (2.0 * step, 2.0)):
        for _ in range(60):
            yield s
            s = factor * s


def _line_search(trial, step):
    """First s of `_trial_lengths(step)` with trial(s) not None.

    Returns (hit, s), with hit None after all 120 tries missed.
    """
    for s in _trial_lengths(step):
        hit = trial(s)
        if hit is not None:
            return hit, s
    return None, s


def _tangent_step(d: np.ndarray, gG: np.ndarray, grid: StructuredGrid) -> np.ndarray:
    """P^-1 d minus its part along P^-1 gG, for P = gradient_adjoint o gradient.

    The result is orthogonal to gG, the sphere normal, and <d, result> >= 0
    by Cauchy-Schwarz in the P^-1 inner product.  Stacks of k directions and
    normals are stepped row by row through one `riesz_solve` of 2k columns.
    """
    single = d.ndim == grid.dim
    d, gG = d.reshape((-1,) + grid.shape), gG.reshape((-1,) + grid.shape)
    both = riesz_solve(np.concatenate([d, gG]), grid)
    pdir, n = both[: len(d)], both[len(d) :]
    num, den = pdir * gG, n * gG
    for axis in range(1, gG.ndim):  # mirror-symmetric sums keep reflections bit-exact
        rev = (slice(None),) * axis + (slice(None, None, -1),)
        num, den = num + num[rev], den + den[rev]
    out = pdir - _column(_cell_sum(num, grid) / _cell_sum(den, grid), grid) * n
    return out[0] if single else out


# objective changes within this many ulps of the point's scale are rounding noise
_FLOAT_FLOOR_ULPS = 8.0


class _Row:
    """Control state of one row of a lockstep descent: its point's scalars and its search."""

    __slots__ = ("index", "value", "scale", "res", "step", "used", "terminal", "prev", "fresh",
                 "floor", "lengths")

    def __init__(self, index, value, scale, res):
        self.index, self.value, self.scale, self.res = index, value, scale, res
        self.step, self.used, self.floor, self.lengths = 1.0, 0, 0.0, None
        self.terminal, self.prev, self.fresh = False, False, True


def _take(x, idx, n):
    """Rows idx of a stack of n rows: x itself when idx is every row, None for None."""
    return x if x is None or len(idx) == n else x[idx]


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
    """Write the finished rows `gone` to out and drop them from the stack.

    A stack left with one row is held as plain grid arrays from then on.
    """
    n, idx = len(rows), [rows[i].index for i in gone]
    out[0][idx] = _take(stack["u"], gone, n)
    out[1][idx] = [rows[i].value for i in gone]
    if out[2] is not None:
        out[2][idx] = _take(stack["ctx"], gone, n)
    out[3][idx] = [rows[i].used for i in gone]
    keep = [i for i in range(n) if i not in gone]
    if not keep:
        return [], stack
    index = keep[0] if len(keep) == 1 else keep  # the last row runs as plain arrays
    return [rows[i] for i in keep], {key: None if x is None else x[index] for key, x in stack.items()}


def _sobolev_descent(start, admit, direction, precondition, iters, tol):
    """Monotone H^1_0 descents of k starts in lockstep, each with a float-floor terminal phase.

    start = (u, value, scale, ctx) holds the k first points: u of shape
    (k,) + grid.shape, value and scale of k each, ctx an array with a
    leading axis of k, or None; for k = 1, value, scale and ctx are those
    of the one row, as the callbacks give them.  The callbacks take and
    return stacks of the unfinished rows, or plain grid arrays and scalars
    once one row is left (from the start when k = 1), so a caller that
    starts one row writes them for one row: direction(u, ctx) gives the nodal
    gradients d, an aux (or None) and the stop residuals; the H^1_0 steps
    pdir = precondition(d, aux) are built only at accepted points.
    admit(u, raw) maps trials onto the feasible set as (point, value,
    scale, ctx), with value NaN where it rejects a trial, or returns None
    to reject them all.

    Each row runs the descent it would run alone.  A search tries
    raw = u - s*pdir for s from `_trial_lengths(step)`, with step from
    Barzilai-Borwein in the metric of pdir (else 1.5 times the last hit's
    s); a trial is accepted on a strict Armijo decrease on <d, raw - u>.  A
    value within _FLOAT_FLOOR_ULPS ulps of scale is rounding noise: such a
    trial is accepted only if its residual is lower, and after the first
    such acceptance no other trial of the row is.  A row stops at residual
    <= tol, when all trials of a search miss, or after iters searches, and
    leaves the stack.  One tick gives every unfinished row its next trial:
    all trials go through one admit call, those that pass the value test
    through one direction call, and the rows that start a search through
    one precondition call.  Every kernel under them works row by row, and
    rounds a plain array as it rounds a row of a stack, so a row's result
    does not depend on the rest of its batch.  Returns (u, value, ctx,
    searches), stacked like start.
    """
    u, value, scale, ctx = start
    k, dim = len(u), u.ndim - 1
    out_ctx = None if ctx is None else np.empty((k,) + np.shape(ctx)[k > 1 :])  # ctx of one row
    out = (np.empty_like(u), np.empty(k), out_ctx, np.zeros(k, dtype=int))
    stack = {"u": u[0] if k == 1 else u, "ctx": ctx}
    d, aux, res = direction(stack["u"], ctx)
    # the step and the Barzilai-Borwein reference are placeholders until they are built
    stack.update(d=d, aux=aux, pdir=d, prev_u=stack["u"], prev_d=d, prev_pdir=d)
    rows = [_Row(i, *row) for i, row in enumerate(zip(_listed(value), _listed(scale), _listed(res)))]
    while rows:
        n, stop, fresh = len(rows), [], []
        for i, r in enumerate(rows):
            if r.fresh:
                (stop if r.used >= iters or not r.res > tol else fresh).append(i)
        if stop:
            rows, stack = _retire(rows, stack, stop, out)
            continue
        if fresh:  # these rows start a search: their steps, lengths and float floors
            pdir = precondition(_take(stack["d"], fresh, n), _take(stack["aux"], fresh, n))
            stack["pdir"] = _put(stack["pdir"], fresh, pdir, n)
            bb = [i for i in fresh if rows[i].prev]
            if bb:
                du, dd, dp = (
                    _take(stack[key], bb, n) - _take(stack["prev_" + key], bb, n)
                    for key in ("u", "d", "pdir")
                )
                for i, step in zip(bb, _bb_step(du, dd, [rows[i].step for i in bb], dp, dim)):
                    rows[i].step = step
            for i in fresh:
                r = rows[i]
                r.used, r.fresh, r.lengths = r.used + 1, False, _trial_lengths(r.step)
                r.floor = _FLOAT_FLOOR_ULPS * _EPS * r.scale
        lengths = [next(r.lengths, None) for r in rows]
        if None in lengths:  # every trial of these rows' searches missed
            rows, stack = _retire(rows, stack, [i for i, s in enumerate(lengths) if s is None], out)
            if not rows:
                break
            lengths, n = [s for s in lengths if s is not None], len(rows)
        # a zero trial has no image on the feasible set: a lone row skips it, and in a
        # stack u stands in for it and its value is no number
        u, live = stack["u"], None
        if u.ndim == dim:
            raw = u - lengths[0] * stack["pdir"]
            if not np.any(raw):
                continue
        else:
            column = (n,) + (1,) * dim
            raw = u - np.array(lengths).reshape(column) * stack["pdir"]
            live = raw.reshape(n, -1).any(axis=1)
            if not live.all():
                raw = np.where(live.reshape(column), raw, u)
        got = admit(u, raw)
        if got is None:
            continue
        point, cand, cand_scale, cand_ctx = got
        cand, cand_scale = _listed(cand), _listed(cand_scale)
        if live is not None:
            cand = [c if ok else math.nan for c, ok in zip(cand, live.tolist())]
        # the Armijo test on <d, raw - u> (taken once, for all rows, when one needs it),
        # else the float-floor test; rows that pass either have their direction taken
        armijo, tested, slopes = [], [], None
        for i, r in enumerate(rows):
            ok = not r.terminal and cand[i] < r.value
            if ok:
                slopes = slopes or _listed(_dot(stack["d"], raw - u, dim))
                ok = cand[i] <= r.value + ARMIJO * slopes[i]
            armijo.append(ok)
            if ok or abs(cand[i] - r.value) <= r.floor:
                tested.append(i)
        if not tested:
            continue
        nd, naux, nres = direction(_take(point, tested, n), _take(cand_ctx, tested, n))
        # at the float floor the energy test is noise: the residual decides
        acc, acc_t = [], []
        for j, (i, res) in enumerate(zip(tested, _listed(nres))):
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


def _sphere_descent(u, pd, alpha, value_at, direction, iters, tol):
    """`_sobolev_descent` of an objective over the sphere G = alpha, from a stack u on it.

    direction(u, ctx) returns nodal directions d, the sphere normals
    gG = grad_G(u) and the stop residuals at the stacked points u, from one
    `_Point`; the steps _tangent_step(d, gG) are built only at accepted
    points.  Trials raw are scaled onto the sphere by t = _profile_scale(wg),
    one per row, and value_at(raw, wg, t) returns the objective at t*raw
    (from the profiles of raw), its float-floor scale and the context for
    direction, one per row.  Returns (u, value, ctx, searches), stacked.
    """
    grid = pd.grid

    def admit(_, raw):
        wg = _grad_profile(raw, pd)
        t = _profile_scale(wg, pd, alpha)
        return (_column(t, grid) * raw,) + value_at(raw, wg, t)

    rows, t = (u[0], 1.0) if len(u) == 1 else (u, np.ones(len(u)))  # one row runs plain
    start = (u,) + value_at(rows, _grad_profile(rows, pd), t)
    tangent = partial(_tangent_step, grid=grid)
    return _sobolev_descent(start, admit, direction, tangent, iters, tol)


def _sphere_quotient(pd: ProblemData, moduli: bool):
    """value_at and direction of psi/phi (moduli) or G/F for _sphere_descent.

    The context of each row is its point's (G, F, psi, phi), taken from the
    trial's profiles; the quotient is its own float-floor scale, and the
    direction is the quotient gradient's component tangent to the sphere,
    with the tangent's length relative to grad G as the stop residual.
    """
    grid = pd.grid

    def value_at(raw, wg, t):
        snap = np.stack(_profile_energies(wg, _mass_profile(raw, pd), t, pd), axis=-1)
        val = snap[..., 2] / snap[..., 3] if moduli else snap[..., 0] / snap[..., 1]
        return val, val, snap

    def direction(u, snap):
        pt = _Point(u, pd)
        G, F, psi, phi = snap.T
        gG = pt.grad_term()
        if moduli:
            val = _column(psi / phi, grid)
            grad = (pt.grad_term(pd.p.values) - val * pt.mass_term(pd.q.values)) / _column(phi, grid)
        else:
            val = _column(G / F, grid)
            grad = (gG - val * pt.mass_term()) / _column(F, grid)
        normal = _dot(gG, gG, grid.dim)
        tangent = grad - _column(_dot(grad, gG, grid.dim) / normal, grid) * gG
        return tangent, gG, _norm(tangent, grid.dim) / np.sqrt(normal)

    return value_at, direction


def rayleigh_extrema(
    pd: ProblemData,
    alpha: float,
    trials: int = 6,
    *,
    iters: int = 1000,
    seed: int = 0,
) -> RayleighReport:
    """Survey the four quotient infima with a shared witness pool.

    Both sphere quotients are minimized over the same candidate pool, so the
    cell-wise weight bounds (inf q / sup p) * psi/phi <= G/F <= (sup q / inf p)
    * psi/phi transfer verbatim to the reported minima.  The ball infimum
    additionally exploits downward amplitude probes: scaling any candidate
    toward zero drives psi/phi below any positive level whenever inf p >
    sup q, which is exactly why that infimum degenerates to zero.  Pool
    members come from H^1_0 sphere descents (`_sphere_descent`) to a tangent
    residual of 1e-10, at most `iters` searches each; each value is its
    witness's quotient, an upper bound.  The descents run as three lockstep
    stacks of `trials` rows, one per objective (psi/phi and G/F from the pool
    starts, psi/phi with q = p from the mu starts); each row ends where it
    would end alone.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if iters < 1:
        raise ValueError(f"iters must be at least 1 (got {iters})")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive level (got {alpha})")
    grid = pd.grid

    def starts(offset):
        u = np.empty((trials,) + grid.shape)
        u[0] = _first_mode(grid)
        for trial in range(1, trials):
            u[trial] = np.random.default_rng([seed, offset + trial]).standard_normal(grid.shape)
        u[:, grid.boundary_mask] = 0.0
        return _column(_sphere_scale(u, pd, alpha), grid) * u

    def descend(u, pd_k, moduli):
        value_at, direction = _sphere_quotient(pd_k, moduli)
        return _sphere_descent(u, pd_k, alpha, value_at, direction, iters, 1e-10)[:2]

    u = starts(0)
    pool = [w for pair in zip(descend(u, pd, True)[0], descend(u, pd, False)[0]) for w in pair]
    snaps = [energies(u, pd) for u in pool]

    def over_pool(fn):
        vals = [fn(snap) for snap in snaps]
        k = int(np.argmin(vals))
        return vals[k], pool[k]

    nu_star, w_nu = over_pool(lambda snap: snap.psi / snap.phi)
    nu_sup, w_sup = over_pool(lambda snap: snap.G / snap.F)

    # Ball infimum: amplitude decay below the sphere witness.
    lambda_star, w_ball = nu_star, w_nu
    if pd.q.hi < pd.p.lo:
        u = w_nu
        for _ in range(60):
            u = 0.5 * u
            snap = energies(u, pd)
            if snap.phi <= 0.0 or not np.isfinite(snap.psi / snap.phi):
                break
            val = snap.psi / snap.phi
            if val >= lambda_star:
                break
            lambda_star, w_ball = val, u

    # Free quotient with the mass exponent tied to p.
    pd_p = dataclasses.replace(pd, q=pd.p)
    mu_star, w_mu = np.inf, None
    for refined, val in zip(*descend(starts(7919), pd_p, True)):
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
