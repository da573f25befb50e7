"""Variational eigenpair solvers on the discrete energy landscape.

Three mechanisms produce certified eigenpairs: constrained minimization of
I_lambda over a gradient-energy ball (sub-homogeneous regime), maximization
of F over a sphere (its first-eigenvalue dual), and the mountain pass as the
lowest ridge crossing (super-homogeneous regime): the infimum over rays of
the along-ray maximum of I_lambda, certified at the crossing.  Each accepted
pair carries the relative residual of the weak eigenpair identity as its
certificate.  All three, like the Rayleigh survey in functionals, run one
monotone Sobolev (H^1_0) descent with a float-floor terminal phase,
`_sobolev_descent`: the ball directly, sphere maximization and the mountain
pass through its sphere form `_sphere_descent`.  Each supplies only its
feasible-set map, its objective and its nodal descent direction.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functionals import (
    EnergySnapshot,
    ProblemData,
    _cell_sum,
    _first_mode,
    _grad_profile,
    _mass_profile,
    _Point,
    _profile_scale,
    _rows_pow,
    _sobolev_descent,
    _sphere_descent,
    _sphere_scale,
    alpha_independent_threshold,
    energies,
    grad_G,
    is_superlinear,
    lambda_alpha,
    residual,
    window_alpha,
)
from .mesh import apply_dirichlet, gradient, gradient_magnitude, require_dirichlet, riesz_solve
from .spaces import _power_sum_root, luxemburg_norm

__all__ = [
    "SolverConfig",
    "EigenPair",
    "SweepRow",
    "SweepReport",
    "BALL_MIN",
    "SPHERE_MAX",
    "MOUNTAIN_PASS",
    "project_to_sphere",
    "mode_seed",
    "bump_seed",
    "solve_sublinear",
    "solve_sphere_max",
    "solve_mountain_pass",
    "spectrum_sweep",
    "eigenfamily",
    "rescale_constant_exponent",
]

BALL_MIN = "ball_min"
SPHERE_MAX = "sphere_max"
MOUNTAIN_PASS = "mountain_pass"


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        iters = self.max_iters
        if not (isinstance(iters, numbers.Integral) and not isinstance(iters, bool) and iters >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1 (got {iters!r})")
        tol = self.grad_tol
        if not (isinstance(tol, numbers.Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"grad_tol must be a finite positive number (got {tol!r})")


@dataclass(frozen=True)
class EigenPair:
    lam: float
    u: np.ndarray
    residual: float
    snapshot: EnergySnapshot
    mechanism: str
    converged: bool
    iterations: int
    alpha: float


@dataclass(frozen=True)
class SweepRow:
    lam: float
    residual: float
    u_norm: float
    I_value: float
    iterations: int
    mechanism: str
    converged: bool
    alpha: float


@dataclass(frozen=True)
class SweepReport:
    rows: list
    pairs: list = field(repr=False, default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)


def project_to_sphere(u, pd: ProblemData, alpha: float, tol: float = 1e-10):
    """Return (t, t*u) with |G(t*u)/alpha - 1| <= tol.

    The scale is resolved to float resolution by the Newton power-sum
    kernel; the relative defect is then checked and a miss raises.
    """
    u = require_dirichlet(u, pd.grid)
    t = _sphere_scale(u, pd, alpha)
    v = t * u
    if not abs(energies(v, pd).G / alpha - 1.0) <= tol:
        raise ValueError(f"sphere projection missed the relative tolerance {tol:g}")
    return t, v


def mode_seed(pd: ProblemData, k=1) -> np.ndarray:
    """Separable sine mode; k is the first-axis frequency or one per axis.

    Each axis factor is explicitly (anti)symmetrized, so grid reflections
    map the seed to exactly plus or minus itself in floating point.
    Elementwise descent updates preserve that parity bit for bit, which
    pins a family run to its own symmetry class on symmetric problem data.
    """
    grid = pd.grid
    if np.isscalar(k):
        freqs = (int(k),) + (1,) * (grid.dim - 1)
    else:
        freqs = tuple(int(m) for m in k)
    if len(freqs) != grid.dim or any(m < 1 for m in freqs):
        raise ValueError("mode frequencies must be positive, one per axis")
    u = np.ones(grid.shape)
    for axis, m in enumerate(freqs):
        f = np.sin(m * np.pi * np.linspace(0.0, 1.0, grid.extents[axis]))
        f = 0.5 * (f + f[::-1]) if m % 2 else 0.5 * (f - f[::-1])
        shape = [1] * grid.dim
        shape[axis] = f.size
        u = u * f.reshape(shape)
    u[grid.boundary_mask] = 0.0
    return u


def _mode_tuples(dim: int, count: int) -> list:
    """First `count` per-axis frequency tuples, ordered by total frequency."""
    top = count + 1
    cands = sorted(itertools.product(range(1, top), repeat=dim), key=lambda t: (sum(t), t))
    return cands[:count]


def bump_seed(pd: ProblemData, center: float, width: float) -> np.ndarray:
    """Tent bump at a fractional position along the first axis.

    Localized seeds let a family run explore separate energy wells; the
    remaining axes carry a first sine mode so the bump vanishes on the
    whole boundary.
    """
    if not 0.0 < center < 1.0 or width <= 0.0:
        raise ValueError("bump seed needs 0 < center < 1 and width > 0")
    grid = pd.grid
    coords = grid.node_coordinates()
    x = coords[0] / grid.lengths[0]
    u = np.maximum(0.0, 1.0 - np.abs(x - center) / width)
    for axis in range(1, grid.dim):
        u = u * np.sin(np.pi * coords[axis] / grid.lengths[axis])
    u = u.copy()
    u[grid.boundary_mask] = 0.0
    return u


def _x_norm(u, pd: ProblemData) -> float:
    gm = gradient_magnitude(gradient(u, pd.grid))
    return luxemburg_norm(gm, pd.p, pd.grid.cell_volume).norm


def _pair(u, pd, lam, mechanism, iterations, alpha, grad_tol) -> EigenPair:
    """Certify the final iterate; the flag follows the certificate alone.

    Ball and mountain-pass iterates are first moved onto the ray crossing,
    where the imposed lam closes the level identity psi = lam * phi, so the
    residual (and with it the flag) belongs to the function returned.
    """
    if mechanism in (BALL_MIN, MOUNTAIN_PASS):
        try:
            wg = _grad_profile(u, pd)
            wm = _mass_profile(u, pd)
            u = _ray_crossing(wg, wm, pd, lam) * u
        except ValueError:
            pass
    res = residual(u, pd, lam)
    return EigenPair(
        float(lam),
        u,
        res,
        energies(u, pd, lam),
        mechanism,
        res <= grad_tol,
        int(iterations),
        float(alpha),
    )


def _negative_seed(pd: ProblemData, alpha: float, lam: float, v0=None) -> np.ndarray:
    """Start at the ray minimum of I_lambda through the seed, inside the ball.

    Seeding at the deepest point of the ray keeps localized seeds inside
    their own energy well; a small-amplitude start would crawl for
    thousands of iterations and could drift into a neighbouring well.
    """
    w = _first_mode(pd.grid) if v0 is None else require_dirichlet(v0, pd.grid)
    if not np.any(w):
        raise ValueError("seed function is identically zero")
    wg = _grad_profile(w, pd)
    wm = _mass_profile(w, pd)
    try:
        t = _ray_crossing(wg, wm, pd, lam)
    except ValueError:
        t = _sphere_scale(w, pd, 0.5 * alpha)
    t = min(t, _profile_scale(wg, pd, alpha))
    for _ in range(200):
        if energies(t * w, pd, lam).I_lambda < 0.0:
            return t * w
        t *= 0.5
    raise ValueError("no negative-energy seed found; regime looks non-sublinear")


def solve_sublinear(
    pd: ProblemData,
    alpha: float,
    lam: float,
    cfg: SolverConfig,
    *,
    v0=None,
) -> EigenPair:
    """Minimize I_lambda over the ball G <= alpha by projected Sobolev descent.

    `_sobolev_descent` steps along the H^1_0 gradient riesz_solve(g) of
    I_lambda, so the iteration count stays bounded as the mesh is refined;
    trials that leave the ball are rescaled onto the sphere G = alpha.
    I_lambda never rises beyond rounding: steps pass an Armijo test until
    I_lambda is flat to a few ulps of max(G, lam*F), and from then on a
    trial must lower the certificate residual.  The accepted minimizer is
    an interior critical point whenever lam sits inside the certified
    window.
    """
    if not pd.q.lo < pd.p.lo:
        raise ValueError("ball minimization needs inf q < inf p")
    if alpha <= 0 or lam <= 0:
        raise ValueError("alpha and lam must be positive")
    if lam >= lambda_alpha(pd, alpha):
        warnings.warn(
            "lam sits at or above the certified window; attempting anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    # the descent runs one row, so the callbacks see plain arrays and return floats
    def admit(u, raw):
        # moves beyond twice the iterate scale scramble localized iterates
        if np.linalg.norm(raw - u) > 2.0 * np.linalg.norm(u):
            return None
        wg = _grad_profile(raw, pd)
        wm = _mass_profile(raw, pd)
        G = float(np.sum(wg))
        if G > alpha:
            t = _profile_scale(wg, pd, alpha)
            raw = t * raw
            G = float(np.sum(wg * t**pd.p.values))
            F = float(np.sum(wm * t**pd.q.values))
        else:
            F = float(np.sum(wm))
        return raw, G - lam * F, max(G, lam * F), None

    def direction(w, _):
        pt = _Point(w, pd)
        gG = pt.grad_term()
        g = gG - lam * pt.mass_term()
        return g, None, float(np.linalg.norm(g) / np.linalg.norm(gG))

    def precondition(g, _):
        return riesz_solve(g, pd.grid)

    u = _negative_seed(pd, alpha, lam, v0)
    snap = energies(u, pd, lam)
    start = (u[None], [snap.I_lambda], [max(snap.G, lam * snap.F)], None)
    u, _, _, iterations = _sobolev_descent(
        start, admit, direction, precondition, cfg.max_iters, cfg.grad_tol
    )
    return _pair(u[0], pd, lam, BALL_MIN, iterations[0], alpha, cfg.grad_tol)


def solve_sphere_max(
    pd: ProblemData,
    alpha: float,
    cfg: SolverConfig,
    *,
    v0=None,
) -> EigenPair:
    """Maximize F on the sphere G = alpha by projected Sobolev descent of -F.

    Steps follow the H^1_0 tangent of grad F (`_sphere_descent`), so their
    count stays bounded under mesh refinement.  F never falls beyond
    rounding: steps must raise it (Armijo) until it is flat to a few ulps,
    and then must lower the residual.  The accepted pair reports
    lam = psi/phi, the reciprocal of the first constrained level ratio;
    snapshot.F is that level.  Without v0 the seed is a standard normal
    draw.
    """
    if not pd.q.hi <= pd.p.lo:
        raise ValueError("sphere maximization needs sup q <= inf p")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if v0 is not None:
        u = apply_dirichlet(v0, pd.grid)
    else:
        u = np.random.default_rng(cfg.seed).standard_normal(pd.grid.shape)
        u[pd.grid.boundary_mask] = 0.0
    if not np.any(u):
        raise ValueError("seed function is identically zero")

    # the descent runs one row, so the callbacks see plain arrays and return floats
    def value_at(raw, wg, t):
        F = float(np.sum(_mass_profile(raw, pd) * t**pd.q.values))
        return -F, F, None

    def direction(w, _):
        pt = _Point(w, pd)
        snap, gG, gF = pt.energies(), pt.grad_term(), pt.mass_term()
        lam = snap.psi / snap.phi
        tangent = gF - (np.vdot(gF, gG) / np.vdot(gG, gG)) * gG
        return -tangent, gG, float(np.linalg.norm(gG - lam * gF) / np.linalg.norm(gG))

    u = _sphere_scale(u, pd, alpha) * u
    u, _, _, iterations = _sphere_descent(
        u[None], pd, alpha, value_at, direction, cfg.max_iters, cfg.grad_tol
    )
    snap = energies(u[0], pd)
    return _pair(u[0], pd, snap.psi / snap.phi, SPHERE_MAX, iterations[0], alpha, cfg.grad_tol)


def _ray_crossing(wg: np.ndarray, wm: np.ndarray, pd: ProblemData, lam: float):
    """Positive tau where the ray derivative of I_lambda changes sign.

    Works on the per-cell scale profiles: tau * dI/dtau vanishes where
    sum(p*wg*tau^p) = lam*sum(q*wm*tau^q).  With the exponents ordered on
    every cell the log of the ratio of the two sums is strictly monotone in
    log tau, so the crossing is unique (the ray maximum in the superlinear
    regime, the ray minimum in the sublinear one) and the Newton power-sum
    kernel finds it.  Constant exponents admit a closed form.  Stacked
    profiles give one tau per row (an array), a single profile a float.
    """
    grid = pd.grid
    a = pd.p.values * wg
    b = lam * pd.q.values * wm
    psi, lam_phi = _cell_sum(a, grid), _cell_sum(b, grid)
    if np.any(psi == 0.0) or np.any(lam_phi == 0.0):
        raise ValueError("ray crossing undefined: an energy term vanished")
    if pd.p.is_constant and pd.q.is_constant:
        return _rows_pow(psi / lam_phi, 1.0 / (pd.q.lo - pd.p.lo))
    if not (pd.q.lo >= pd.p.hi or pd.q.hi <= pd.p.lo):
        raise ValueError("ray crossing needs exponents ordered on every cell")
    rows = np.shape(psi) + (-1,)
    p, q = pd.p.values.ravel(), pd.q.values.ravel()
    return _power_sum_root(a.reshape(rows), p, b.reshape(rows), q)[0]


def solve_mountain_pass(
    pd: ProblemData,
    alpha: float,
    lam: float,
    cfg: SolverConfig,
    *,
    v0=None,
) -> EigenPair:
    """Find the mountain-pass eigenpair as the lowest ridge crossing.

    With p < q on every cell each ray through the origin carries exactly
    one maximum of I_lambda, so the mountain-pass level is the infimum over
    rays of that ray maximum (Willem, Minimax Theorems, 1996, Thm 4.2;
    Szulkin and Weth, 2010).  The ray maximum is invariant along rays, so
    the seed direction is descended on the sphere G = alpha to that
    infimum along H^1_0 tangents (the ray maximum never rises beyond
    rounding), and the pair is certified at the ridge crossing of the final
    direction.
    """
    if not is_superlinear(pd):
        raise ValueError("mountain pass needs p(x) < q(x) on every cell")
    if pd.q.lo < pd.p.hi:
        raise ValueError("mountain pass needs inf q >= sup p")
    if alpha <= 0 or lam <= 0:
        raise ValueError("alpha and lam must be positive")
    if lam >= lambda_alpha(pd, alpha):
        warnings.warn(
            "lam sits at or above the certified window; attempting anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    w0 = _first_mode(pd.grid) if v0 is None else require_dirichlet(v0, pd.grid)
    if not np.any(w0):
        raise ValueError("seed function is identically zero")

    # the descent runs one row, so the callbacks see plain arrays and return floats
    def value_at(raw, wg, t):
        wm = _mass_profile(raw, pd)
        tau = _ray_crossing(wg, wm, pd, lam)
        G, F = float(np.sum(wg * tau**pd.p.values)), float(np.sum(wm * tau**pd.q.values))
        return G - lam * F, max(G, lam * F), tau / t

    def direction(w, tau):  # the residual lives at tau*w, the sphere normal at w
        normal, x = grad_G(w, pd), _Point(tau * w, pd)
        gG = x.grad_term()
        g = tau * (gG - lam * x.mass_term())
        return g, normal, float(np.linalg.norm(g) / (tau * np.linalg.norm(gG)))

    w = _sphere_scale(w0, pd, alpha) * w0
    w, _, tau, iterations = _sphere_descent(
        w[None], pd, alpha, value_at, direction, cfg.max_iters, cfg.grad_tol
    )
    return _pair(tau[0] * w[0], pd, lam, MOUNTAIN_PASS, iterations[0], alpha, cfg.grad_tol)


def _sweep_one(pd, lam, alpha_base, cfg, index):
    cfg_i = dataclasses.replace(cfg, seed=cfg.seed + index)
    try:
        alpha = window_alpha(pd, lam)
    except ValueError:
        alpha = alpha_base
    try:
        if pd.q.hi < pd.p.lo:
            pair = solve_sublinear(pd, alpha, lam, cfg_i)
        else:
            pair = solve_mountain_pass(pd, alpha, lam, cfg_i)
    except (ValueError, OverflowError) as exc:
        warnings.warn(f"sweep row {index} (lam={lam}) failed: {exc}", RuntimeWarning)
        return None
    return pair


def spectrum_sweep(
    pd: ProblemData,
    lambdas,
    alpha: float,
    cfg: SolverConfig,
) -> SweepReport:
    """Solve one eigenpair per requested lam, never aborting on a bad row.

    The sphere level is re-chosen per row so each lam sits inside its
    certified window (it grows with lam in the sub-homogeneous regime and
    shrinks in the super-homogeneous one); `alpha` is the fallback level
    used only if the closed-form choice fails.
    """
    if not (pd.q.hi < pd.p.lo or (pd.q.lo > pd.p.hi and is_superlinear(pd))):
        raise ValueError("sweep needs a strict regime; boundary cases go to eigenfamily")
    rows, pairs = [], []
    for i, lam in enumerate(float(l) for l in lambdas):
        try:
            pair = _sweep_one(pd, lam, alpha, cfg, i)
        except Exception as exc:  # row isolation: a bad row must not abort the sweep
            warnings.warn(f"sweep row {i} raised: {exc}", RuntimeWarning)
            pair = None
        if pair is None:
            rows.append(SweepRow(lam, np.nan, np.nan, np.nan, 0, "none", False, np.nan))
            pairs.append(None)
        else:
            rows.append(
                SweepRow(
                    pair.lam,
                    pair.residual,
                    _x_norm(pair.u, pd),
                    pair.snapshot.I_lambda,
                    pair.iterations,
                    pair.mechanism,
                    pair.converged,
                    pair.alpha,
                )
            )
            pairs.append(pair)
    return SweepReport(rows, pairs)


def eigenfamily(
    pd: ProblemData,
    mu: float,
    radii,
    cfg: SolverConfig,
) -> list:
    """One eigenpair per sphere level, all sharing the eigenvalue mu.

    Boundary regimes only: ball minimization when sup q = inf p (with inf q
    strictly below), the mountain pass (lowest ridge crossing) when
    inf q = sup p.  The level-k run
    is seeded with the k-th separable sine mode (ordered by total
    frequency); on reflection-symmetric problem data each mode keeps its
    own exact parity class throughout the descent, so distinct levels land
    on genuinely different critical points.  Distinctness is certified by
    pairwise nodal gaps exceeding 10 * grad_tol (a warning is issued for
    any pair that collapses onto one function).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")

    tol = 1e-9
    ball_regime = abs(pd.q.hi - pd.p.lo) <= tol * pd.p.lo and pd.q.lo < pd.p.lo - tol
    pass_regime = abs(pd.q.lo - pd.p.hi) <= tol * pd.p.hi and is_superlinear(pd)
    if not (ball_regime or pass_regime):
        raise ValueError("eigenfamily needs a boundary regime (sup q = inf p or inf q = sup p)")

    window = alpha_independent_threshold(pd)
    if mu >= window:
        warnings.warn(
            f"mu={mu} is outside the level-independent window (0, {window}); attempting anyway",
            RuntimeWarning,
            stacklevel=2,
        )

    count = len(radii)
    modes = _mode_tuples(pd.grid.dim, count)
    pairs = []
    for k, alpha in enumerate(radii):
        cfg_k = dataclasses.replace(cfg, seed=cfg.seed + k)
        seed_fn = mode_seed(pd, modes[k])
        if ball_regime:
            if alpha * pd.p.hi < 1.0:
                warnings.warn(
                    "level-independence needs alpha*sup(p) >= 1 in the ball regime",
                    RuntimeWarning,
                )
            pairs.append(solve_sublinear(pd, alpha, mu, cfg_k, v0=seed_fn))
        else:
            if alpha * pd.p.hi >= 1.0:
                warnings.warn(
                    "level-independence needs alpha*sup(p) < 1 in the path regime",
                    RuntimeWarning,
                )
            pairs.append(solve_mountain_pass(pd, alpha, mu, cfg_k, v0=seed_fn))

    gap_floor = 10.0 * cfg.grad_tol
    for i in range(count):
        for j in range(i + 1, count):
            gap = float(np.linalg.norm(pairs[i].u - pairs[j].u))
            if gap <= gap_floor:
                warnings.warn(
                    f"radii {radii[i]} and {radii[j]} landed on one function "
                    f"(nodal gap {gap:.3e} <= {gap_floor:.3e})",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return pairs


def rescale_constant_exponent(
    pair: EigenPair,
    lam_new: float,
    pd: ProblemData,
    tol: float = 1e-5,
) -> EigenPair:
    """Map an eigenpair to a new eigenvalue via the homogeneity of constant exponents.

    For constant p and q, (u, lam) solves the weak identity iff
    (t u, t^{p-q} lam) does; choosing t = (lam/lam_new)^{1/(q-p)} lands on
    lam_new exactly, so the rescaled pair certifies it independently.
    """
    if not (pd.p.is_constant and pd.q.is_constant):
        raise ValueError("rescaling requires constant exponents")
    if lam_new <= 0:
        raise ValueError("lam_new must be positive")
    p_val, q_val = pd.p.lo, pd.q.lo
    t = (pair.lam / lam_new) ** (1.0 / (q_val - p_val))
    u = t * pair.u
    res = residual(u, pd, lam_new)
    return EigenPair(
        float(lam_new),
        u,
        res,
        energies(u, pd, lam_new),
        pair.mechanism,
        res <= tol,
        pair.iterations,
        energies(u, pd).G,
    )
