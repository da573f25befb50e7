"""Energies, gradients and spectral bookkeeping for the weighted problem.

The dual-power structure couples a gradient energy with cell exponent p(x)
to a weighted mass term with cell exponent q(x) and positive weight V(x).
Everything is assembled on the discrete measure of a StructuredGrid, so the
nodal gradients below are the exact derivatives of the discrete energies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .mesh import (
    StructuredGrid,
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
    ExponentField,
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


class _Point:
    """One nodal function u, validated once, with each stencil taken once.

    The gradient term (cell gradients g, |g| and the power weight
    |g|^(p-2)) and the mass term (cell values ub and the mass weight
    V |ub|^(q-1) sign ub) are each computed on first use.  The public
    energies and gradients and every descent direction read them here.
    """

    def __init__(self, u, pd: ProblemData):
        self.u, self.pd = require_dirichlet(u, pd.grid), pd

    @cached_property
    def grad_cells(self):
        g, p = gradient(self.u, self.pd.grid), self.pd.p.values
        sq, soft = _squared_norm(g), p < 2.0
        gm = np.sqrt(sq)  # gradient_magnitude(g), bit for bit
        if not soft.any():
            return g, gm, gm ** (p - 2.0)
        w = np.empty_like(gm)  # smoothed where p < 2 to keep the weight finite
        w[soft] = (sq[soft] + GRAD_EPS**2) ** (0.5 * (p[soft] - 2.0))
        w[~soft] = gm[~soft] ** (p[~soft] - 2.0)
        return g, gm, w

    @cached_property
    def mass_cells(self):
        ub = cell_values(self.u, self.pd.grid)
        return ub, self.pd.V * np.abs(ub) ** (self.pd.q.values - 1.0) * np.sign(ub)

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
        out[grid.boundary_mask] = 0.0
        return out

    def mass_term(self, scale=1.0) -> np.ndarray:
        """Nodal gradient of F, or of phi with scale = q."""
        grid = self.pd.grid
        out = cell_values_adjoint(self.mass_cells[1] * scale * grid.cell_volume, grid)
        out[grid.boundary_mask] = 0.0
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
                step = _bb_step(u - prev_u, prev_g - grad, step, prev_d - d)

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
    """Per-cell weights w with G(t u) = sum(w * t**p) for every t > 0."""
    gm = gradient_magnitude(gradient(u, pd.grid))
    return _finite(gm ** pd.p.values * (pd.grid.cell_volume / pd.p.values), "gradient")


def _mass_profile(u: np.ndarray, pd: ProblemData) -> np.ndarray:
    """Per-cell weights m with F(t u) = sum(m * t**q) for every t > 0."""
    ub = cell_values(u, pd.grid)
    return _finite(pd.V * np.abs(ub) ** pd.q.values * (pd.grid.cell_volume / pd.q.values), "mass")


def _profile_energies(wg: np.ndarray, wm: np.ndarray, t: float, pd: ProblemData):
    """Snapshot of t*u from the profiles of u: G = sum(wg t^p), psi = sum(p wg t^p)."""
    gt, mt = wg * t**pd.p.values, wm * t**pd.q.values
    G, F = float(gt.sum()), float(mt.sum())
    psi, phi = float((pd.p.values * gt).sum()), float((pd.q.values * mt).sum())
    return EnergySnapshot(G, F, phi, psi, G, 0.0)


def _profile_scale(w: np.ndarray, pd: ProblemData, alpha: float):
    """Solve sum(w * t**p) = alpha for t > 0 given a gradient profile w."""
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("gradient energy vanished; function is not admissible")
    if pd.p.is_constant:
        return float((alpha / total) ** (1.0 / pd.p.lo))
    return _power_sum_root(w, pd.p.values, np.array([float(alpha)]), np.zeros(1))[0]


def _sphere_scale(u: np.ndarray, pd: ProblemData, alpha: float):
    """Scale factor t with G(t u) = alpha, by the Newton power-sum kernel.

    The map t -> G(t u) separates into per-cell powers of t, so the cell
    weights are computed once and the kernel solves the scalar equation to
    float resolution, relative to alpha at every scale of alpha; constant p
    collapses it to the closed form t = (alpha / G(u))^(1/p).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not np.any(u):
        raise ValueError("cannot project the zero function onto a sphere")
    return _profile_scale(_grad_profile(u, pd), pd, alpha)


def _bb_step(du: np.ndarray, dg: np.ndarray, fallback: float, pdg: np.ndarray) -> float:
    """Spectral step length <du, dg> / <dg, pdg>, clipped to a safe positive range.

    pdg is the matching change of the preconditioned direction: every
    descent measures its steps in the metric of P = gradient_adjoint o gradient.
    """
    denom = float(np.vdot(dg, pdg))
    if denom <= 0.0:
        return fallback
    step = float(np.vdot(du, dg)) / denom
    if not np.isfinite(step) or step <= 0.0:
        return fallback
    return min(max(step, 1e-16), 1e12)


# sufficient-decrease fraction of the Armijo test in every descent
ARMIJO = 1e-4


def _line_search(trial, step):
    """First s with trial(s) not None: s = step/2^k, then step*2^(k+1).

    Sixty halving tries come first; sixty upward probes follow, because a
    spectral step can land far below the useful range, where every halving
    is a float no-op on the objective.  Returns (hit, s), with hit None
    after all 120 tries missed.
    """
    for s, upward in ((step, False), (2.0 * step, True)):
        for _ in range(60):
            hit = trial(s)
            if hit is not None:
                return hit, s
            s = 2.0 * s if upward else 0.5 * s
    return None, s


def _tangent_step(d: np.ndarray, gG: np.ndarray, grid: StructuredGrid) -> np.ndarray:
    """P^-1 d minus its part along P^-1 gG, for P = gradient_adjoint o gradient.

    The result is orthogonal to gG, the sphere normal, and <d, result> >= 0
    by Cauchy-Schwarz in the P^-1 inner product.
    """
    pdir, n = riesz_solve(np.stack([d, gG]), grid)
    num, den = pdir * gG, n * gG
    for axis in range(gG.ndim):  # mirror-symmetric sums keep reflections bit-exact
        rev = (slice(None),) * axis + (slice(None, None, -1),)
        num, den = num + num[rev], den + den[rev]
    return pdir - (np.sum(num) / np.sum(den)) * n


# objective changes within this many ulps of the point's scale are rounding noise
_FLOAT_FLOOR_ULPS = 8.0


def _sobolev_descent(start, admit, direction, precondition, iters, tol):
    """Monotone H^1_0 descent with a float-floor terminal phase.

    start = (u, value, scale, ctx) is the first point.  direction(u, ctx)
    returns the nodal gradient d, an aux and the stop residual; the H^1_0
    step pdir = precondition(d, aux) is built only at accepted points.
    A search tries raw = u - s*pdir, s from Barzilai-Borwein in the metric
    of pdir (else 1.5 times the last hit's s); admit(u, raw) maps raw onto
    the feasible set as (point, value, scale, ctx), or None.  A trial is
    accepted on a strict Armijo decrease on <d, raw - u>.  A value within
    _FLOAT_FLOOR_ULPS ulps of scale is rounding noise: such a trial is
    accepted only if its residual is lower, and after the first such
    acceptance no other trial is.  Stops at residual <= tol, on a line-search
    miss or after iters searches; returns (u, value, ctx, searches).
    """
    u, val, scale, ctx = start
    d, aux, res = direction(u, ctx)
    step = 1.0
    prev_u = prev_d = prev_pdir = None
    terminal = False
    used = 0
    while used < iters and res > tol:
        used += 1
        pdir = precondition(d, aux)
        if prev_u is not None:
            step = _bb_step(u - prev_u, d - prev_d, step, pdir - prev_pdir)
        floor = _FLOAT_FLOOR_ULPS * np.finfo(float).eps * scale

        def descend_at(s):
            raw = u - s * pdir
            got = admit(u, raw) if np.any(raw) else None
            if got is None:
                return None
            point, cand_val, _, cand_ctx = got
            armijo = (
                not terminal
                and cand_val < val
                and cand_val <= val + ARMIJO * float(np.vdot(d, raw - u))
            )
            if not (armijo or abs(cand_val - val) <= floor):
                return None
            nxt = direction(point, cand_ctx)
            # at the float floor the energy test is noise: the residual decides
            if armijo or nxt[2] < res:
                return got, nxt, not armijo
            return None

        hit, s = _line_search(descend_at, step)
        if hit is None:
            break
        prev_u, prev_d, prev_pdir = u, d, pdir
        (u, val, scale, ctx), (d, aux, res), at_floor = hit
        terminal = terminal or at_floor
        step = min(1.5 * s, 1e12)
    return u, val, ctx, used


def _sphere_descent(u, pd, alpha, value_at, direction, iters, tol):
    """`_sobolev_descent` of an objective over the sphere G = alpha, from u on it.

    direction(u, ctx) returns a nodal direction d, the sphere normal
    gG = grad_G(u) and the stop residual at u, from one `_Point`; the step
    _tangent_step(d, gG) is built only at accepted points.  A trial raw is
    scaled onto the sphere by t = _profile_scale(wg), and value_at(raw, wg,
    t) returns the objective at t*raw (from the profiles of raw), its
    float-floor scale and the context for direction.  Returns (u, value,
    ctx, searches).
    """

    def admit(_, raw):
        wg = _grad_profile(raw, pd)
        t = _profile_scale(wg, pd, alpha)
        return (t * raw,) + value_at(raw, wg, t)

    start = (u,) + value_at(u, _grad_profile(u, pd), 1.0)
    tangent = partial(_tangent_step, grid=pd.grid)
    return _sobolev_descent(start, admit, direction, tangent, iters, tol)


def _sphere_quotient(pd: ProblemData, moduli: bool):
    """value_at and direction of psi/phi (moduli) or G/F for _sphere_descent.

    The context is the energy snapshot of the point, taken from the trial's
    profiles; the quotient is its own float-floor scale, and the direction
    is the quotient gradient's component tangent to the sphere, with the
    tangent's length relative to grad G as the stop residual.
    """

    def ratio(snap):
        return snap.psi / snap.phi if moduli else snap.G / snap.F

    def value_at(raw, wg, t):
        snap = _profile_energies(wg, _mass_profile(raw, pd), t, pd)
        val = ratio(snap)
        return val, val, snap

    def direction(u, snap):
        pt = _Point(u, pd)
        gG, val = pt.grad_term(), ratio(snap)
        if moduli:
            grad = (pt.grad_term(pd.p.values) - val * pt.mass_term(pd.q.values)) / snap.phi
        else:
            grad = (gG - val * pt.mass_term()) / snap.F
        tangent = grad - (np.vdot(grad, gG) / np.vdot(gG, gG)) * gG
        return tangent, gG, float(np.linalg.norm(tangent) / np.linalg.norm(gG))

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
    residual of 1e-10; each value is its witness's quotient, an upper bound.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    grid = pd.grid

    def start(trial, offset):
        if trial == 0:
            u = _first_mode(grid)
        else:
            u = np.random.default_rng([seed, offset + trial]).standard_normal(grid.shape)
            u[grid.boundary_mask] = 0.0
        return _sphere_scale(u, pd, alpha) * u

    def descend(u, pd_k, moduli):
        value_at, direction = _sphere_quotient(pd_k, moduli)
        return _sphere_descent(u, pd_k, alpha, value_at, direction, iters, 1e-10)[:2]

    pool = []
    for trial in range(trials):
        u = start(trial, 0)
        pool += [descend(u, pd, moduli)[0] for moduli in (True, False)]

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
    for trial in range(trials):
        refined, val = descend(start(trial, 7919), pd_p, True)
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
