"""Variational eigenpair solvers on the discrete energy landscape.

Three mechanisms produce certified eigenpairs: constrained minimization of
I_lambda over a gradient-energy ball (sub-homogeneous regime), maximization
of F over a sphere (its first-eigenvalue dual), and the mountain pass as the
lowest ridge crossing (super-homogeneous regime): the infimum over rays of
the along-ray maximum of I_lambda, certified at the crossing.  Each accepted
pair carries the relative residual of the weak eigenpair identity as its
certificate.  All three, like the Rayleigh survey in functionals, call one
monotone Sobolev descent with a float-floor terminal phase,
`_sobolev_descent`, directly.
Each supplies only its feasible-set map, its objective and its nodal
descent direction, and reads every energy, nodal gradient and ray map
(the sphere scale, the ridge crossing, the energies along a ray) from
one `_Point` per stack of functions.  Sphere maximization and the
mountain pass descend a function of the ray through u alone (Szulkin and
Weth, The method of Nehari manifold, 2010): -F where the ray meets
G = alpha, and the ray maximum of I_lambda; their direction is the
gradient of that ray function, orthogonal to u, so a step needs no
projection.

Every descent, like the embedding-constant ascent of `make_problem`,
takes one step rule, which `_sobolev_descent` applies itself: the Riesz
column riesz_solve(d, grid, W) of its direction d, with W from
`_Point.metric_weight`: the metric of G's Hessian at the point the step
leaves, gradient_adjoint o W o gradient.  This variable preconditioning
(Karatson and Farago, SIAM J. Numer. Anal. 41, 2003) keeps the mesh
independence of the H^1_0 step of P = gradient_adjoint o gradient and
cuts the searches.  On 1D grids `riesz_solve` inverts it exactly in O(n);
in 2D, where the exact solve diagonalizes only constant coefficients, it
takes a fixed Chebyshev step of three exact P solves, and the 2D searches
about halve (the 81x97 pass family of the benchmark, with first searches
at length 1: 27 instead of 52; with the pass's capped first search,
`solve_mountain_pass`, the count gate reads 26 searches and 26 trials).
The embedding ascent alone keeps the H^1_0 step in 2D.

A 2D solve whose seed is bitwise even or odd along
an axis with an odd node count (the default seed, the first sine mode,
is even along both), on data p, q and V bitwise symmetric along it,
descends on the half of the grid its parity class fixes (a
quarter when both axes fold; `_fold`), at a fraction of the array work,
and is unfolded by reflection before `_pair` certifies it on the full
grid.  1D solves do not fold: their half-line would end on a free node,
which the weighted flux solve of `riesz_solve` does not take.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functionals import (
    EnergySnapshot,
    ProblemData,
    _check_int,
    _column,
    _fold,
    _norm,
    _Point,
    _residual_at,
    _sine_mode,
    _sobolev_descent,
    _sup_ratio,
    _symmetric_axes,
    _unfold,
    alpha_independent_threshold,
    energies,
    is_superlinear,
    lambda_alpha,
    residual,
    window_alpha,
)
from .mesh import gradient, gradient_magnitude, require_dirichlet
from .spaces import luxemburg_norm

__all__ = [
    "SolverConfig",
    "EigenPair",
    "SweepRow",
    "SweepReport",
    "BALL_MIN",
    "SPHERE_MAX",
    "MOUNTAIN_PASS",
    "mode_seed",
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

# two levels of a family are distinct when their relative gap (`_family_gaps`) exceeds this
FAMILY_GAP_FLOOR = 1e-3

# the mountain pass's first trial moves w by at most this fraction of max|w| (and its length
# is at most 1): on the 2D boundary-regime passes length 1 moves w far further, and each
# halving back costs a ray crossing; at 0.5 the 81x97 pass family took 28 searches, not 26
PASS_FIRST_MOVE = 0.25


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_int(self.max_iters, "max_iters", 1)
        tol = self.grad_tol
        if not (isinstance(tol, numbers.Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"grad_tol must be a finite positive number (got {tol!r})")
        _check_int(self.seed, "seed", 0)


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


def mode_seed(pd: ProblemData, k=1) -> np.ndarray:
    """Separable sine mode (`_sine_mode`); k is the first-axis frequency or one per axis.

    Grid reflections map it to exactly plus or minus itself, and descent
    updates keep that parity bit for bit, which pins a run to its own
    symmetry class on symmetric data.  mode_seed(pd, 1) is the default
    seed of every solve and the first start of the embedding ascent and
    the survey.
    """
    grid = pd.grid
    freqs = (int(k),) + (1,) * (grid.dim - 1) if np.isscalar(k) else tuple(map(int, k))
    if len(freqs) != grid.dim or any(m < 1 for m in freqs):
        raise ValueError("mode frequencies must be positive, one per axis")
    return _sine_mode(grid, freqs)


def _mode_tuples(dim: int, count: int) -> list:
    """First `count` per-axis frequency tuples, ordered by total frequency."""
    top = count + 1
    cands = sorted(itertools.product(range(1, top), repeat=dim), key=lambda t: (sum(t), t))
    return cands[:count]


def _sweep_row(pair: EigenPair, pd: ProblemData) -> SweepRow:
    """The report row of a pair; u_norm is the p(x)-Luxemburg norm of |grad u|."""
    gm = gradient_magnitude(gradient(pair.u, pd.grid))
    u_norm = luxemburg_norm(gm, pd.p, pd.grid.cell_volume).norm
    return SweepRow(
        pair.lam,
        pair.residual,
        u_norm,
        pair.snapshot.I_lambda,
        pair.iterations,
        pair.mechanism,
        pair.converged,
        pair.alpha,
    )


def _check_level(pd: ProblemData, alpha: float, lam: float) -> None:
    """Reject alpha or lam unless finite and positive; warn when lam is outside the window."""
    if not (np.isfinite(alpha) and alpha > 0 and np.isfinite(lam) and lam > 0):
        raise ValueError(f"alpha and lam must be finite and positive (got {alpha}, {lam})")
    if lam >= lambda_alpha(pd, alpha):
        warnings.warn(
            "lam sits at or above the certified window; attempting anyway",
            RuntimeWarning,
            stacklevel=3,
        )


def _seed(pd: ProblemData, v0) -> np.ndarray:
    """mode_seed(pd, 1), or the caller's v0 checked for Dirichlet data; a zero seed raises."""
    w = mode_seed(pd) if v0 is None else require_dirichlet(v0, pd.grid)
    if not np.any(w):
        raise ValueError("seed function is identically zero")
    return w


def _pair(u, pd, lam, mechanism, iterations, alpha, grad_tol) -> EigenPair:
    """Certify the final iterate; the flag follows the certificate alone.

    Ball and mountain-pass iterates are first moved onto the ray crossing,
    where the imposed lam closes the level identity psi = lam * phi, so the
    residual (and with it the flag) belongs to the function returned.  A
    sphere maximizer takes lam = psi/phi of its own (lam is not read).  lam,
    the residual and the snapshot come from the stencils of one `_Point`.
    """
    if mechanism in (BALL_MIN, MOUNTAIN_PASS):
        try:
            u = _Point(u[None], pd).crossing(lam)[0] * u
        except ValueError:
            pass
    pt = _Point(u, pd)
    if mechanism == SPHERE_MAX:
        _, _, phi, psi = pt.energy_rows()
        lam = psi / phi
    res = _residual_at(pt, lam)
    return EigenPair(
        float(lam),
        u,
        res,
        pt.energies(lam),
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
    w = _seed(pd, v0)
    pt = _Point(w[None], pd)
    try:
        t = pt.crossing(lam)[0]
    except ValueError:
        t = pt.sphere_scale(0.5 * alpha)[0]
    t = min(t, pt.sphere_scale(alpha)[0])
    for _ in range(200):
        G, F = pt.ray(np.array([t]))
        if G[0] - lam * F[0] < 0.0:
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

    `_sobolev_descent` steps along the Sobolev gradient riesz_solve(g) of
    I_lambda, so the iteration count stays bounded as the mesh is refined.
    The step is taken in the metric of G's Hessian at the point,
    riesz_solve(g, grid, W) with W = `_Point.metric_weight` (11 searches
    per row of the 513-node p = 3, q = 2 sweep instead of 41-45 in the
    H^1_0 metric; 97 instead of 428 for p = 1.4, q = 1.2 on a 41x49
    square).  Trials that
    leave the ball are rescaled onto the sphere G = alpha.
    I_lambda never rises beyond rounding: steps pass an Armijo test until
    I_lambda is flat to a few ulps of max(G, lam*F), and from then on a
    trial must lower the certificate residual.  The accepted minimizer is
    an interior critical point whenever lam sits inside the certified
    window.  The seed is v0, else mode_seed(pd, 1), scaled to the ray
    minimum (halved, on its own ray, until I_lambda < 0) and evaluated as
    a trial is; on bitwise-symmetric 2D data the default folds (`_fold`).
    """
    if not pd.q.lo < pd.p.lo:
        raise ValueError("ball minimization needs inf q < inf p")
    _check_level(pd, alpha, lam)

    # on a fold the descent runs on the folded grid, where G is 2**-f times the full one
    qpd, u, folds = _fold(pd, _negative_seed(pd, alpha, lam, v0))
    grid, level = qpd.grid, alpha * 0.5 ** len(folds)

    # the callbacks take stacks of rows and return one value per row
    def admit(u, raw, _):
        # moves beyond twice the iterate scale scramble localized iterates: rejected, with
        # u standing in for them
        far = _norm(raw - u, grid, primal=True) > 2.0 * _norm(u, grid, primal=True)
        rejected = np.count_nonzero(far)
        if rejected:
            raw = np.where(_column(far, grid), u, raw)
        pt = _Point(raw, qpd)
        G, F = pt.ray()
        over = G > level
        if np.count_nonzero(over):  # onto the sphere G = level; t = 1 keeps the rest exactly
            t = np.where(over, pt.sphere_scale(level), 1.0)
            raw = _column(t, grid) * raw
            G, F = pt.ray(t)
        lam_F = lam * F
        value = G - lam_F
        if rejected:
            value[far] = np.nan
        return raw, value, np.maximum(G, lam_F), None

    def direction(w, _):
        pt = _Point(w, qpd)
        gG = pt.grad_term()
        g = gG - lam * pt.mass_term()
        return g, pt.metric_weight(), _norm(g, grid) / _norm(gG, grid)

    u = u[None]
    u, _, _, iterations = _sobolev_descent(
        admit(u, u, None), admit, direction, grid, cfg.max_iters, cfg.grad_tol
    )
    return _pair(_unfold(u[0], folds), pd, lam, BALL_MIN, iterations[0], alpha, cfg.grad_tol)


def solve_sphere_max(
    pd: ProblemData,
    alpha: float,
    cfg: SolverConfig,
    *,
    v0=None,
) -> EigenPair:
    """Maximize F on the sphere G = alpha by Sobolev descent of -F along rays.

    `_sobolev_descent` descends the ray function u -> -F(t(u) u), with t(u)
    u on the sphere (`_Point.sphere_scale`); its gradient at u on the sphere,
    (phi/psi) (grad_G - (psi/phi) grad_F), is orthogonal to u, so a step
    needs no projection, and is the certificate's defect scaled; the step
    is its Riesz column in the metric of G's Hessian at the point, so the
    step count stays bounded under mesh refinement.  F never falls beyond
    rounding: steps must raise it (Armijo) until it is flat to a few ulps,
    and then must lower the residual.  The accepted pair reports
    lam = psi/phi, the reciprocal of the first constrained level ratio;
    snapshot.F is that level.  The seed is v0, else mode_seed(pd, 1); on
    bitwise-symmetric 2D data the default folds (`_fold`) and the pair is
    certified on the full grid.
    """
    if not pd.q.hi <= pd.p.lo:
        raise ValueError("sphere maximization needs sup q <= inf p")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite positive level (got {alpha})")

    # on a fold the descent runs on the folded grid, where G is 2**-f times the full one
    qpd, u, folds = _fold(pd, _seed(pd, v0))
    grid, level = qpd.grid, alpha * 0.5 ** len(folds)

    # the callbacks take stacks of rows and return one value per row
    def admit(_, raw, ctx):
        pt = _Point(raw, qpd)
        t = pt.sphere_scale(level)
        F = pt.ray(t)[1]
        return _column(t, grid) * raw, -F, F, None

    # the ray gradient of -F at w on the sphere, -gF + (phi/psi) gG, is the certificate's
    # defect scaled by phi/psi
    def direction(w, _):
        pt = _Point(w, qpd)
        _, _, phi, psi = pt.energy_rows()
        gG = pt.grad_term()
        defect = gG - _column(psi / phi, grid) * pt.mass_term()
        res = _norm(defect, grid) / _norm(gG, grid)
        return _column(phi / psi, grid) * defect, pt.metric_weight(), res

    u, _, _, iterations = _sobolev_descent(
        admit(None, u[None], None), admit, direction, grid, cfg.max_iters, cfg.grad_tol
    )
    return _pair(_unfold(u[0], folds), pd, None, SPHERE_MAX, iterations[0], alpha, cfg.grad_tol)


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
    rays of that ray maximum (Willem, Minimax Theorems, 1996, Thm 4.2).
    The ray maximum is invariant along rays, so any sphere can chart the
    rays (Szulkin and Weth, The method of Nehari manifold, 2010); the
    descent runs on the H^1_0 sphere through the seed.  The seed is scaled
    onto G = alpha, which fixes the radius: r^2 = sum |grad w|^2.  A trial
    is put back on the sphere by the closed form t = r / |grad raw|, from
    `_Point.h10` of the gradient its ray profiles take anyway; its ray
    crossing (`_Point.crossing`) is found by Newton started at the current
    point's crossing.  The direction tau (grad_G - lam grad_F) at the
    crossing tau*w is the gradient of the ray maximum, and the step is its
    one Riesz column riesz_solve(d, grid, W), with W the metric weight at
    tau*w: the metric of G's Hessian there.  The first search starts at
    min(1, PASS_FIRST_MOVE max|w| / max|pdir|) for the first step pdir
    (the first hook of `_sobolev_descent`): length 1, cut back so that the
    first trial moves w by at most a quarter of max|w|.  On the 81x97 pass
    family that is 0.059, 2.3e-4 and 1.9e-4 by level, and the family takes
    26 trials instead of 51.  On the 1D passes tried the cap picks length
    1; without it the p=2, q=4 pass at 129 nodes took 9 searches, not 7.
    The ray maximum never rises beyond rounding, and the pair is certified
    at the ridge crossing of the final direction.  The seed is v0, else
    mode_seed(pd, 1); on bitwise-symmetric 2D data the default folds.
    """
    if not is_superlinear(pd):
        raise ValueError("mountain pass needs p(x) < q(x) on every cell")
    if pd.q.lo < pd.p.hi:
        raise ValueError("mountain pass needs inf q >= sup p")
    _check_level(pd, alpha, lam)

    # on a fold the descent runs on the folded grid, where G is 2**-f times the full one
    qpd, w0, folds = _fold(pd, _seed(pd, v0))
    grid = qpd.grid

    # the callbacks take stacks of rows and return one value per row; a point's
    # context is its crossing tau, the scale that puts tau*w on the ridge
    def at_crossing(pt, s0):
        tau = pt.crossing(lam, s0)
        G, F = pt.ray(tau)
        return G - lam * F, np.maximum(G, lam * F), tau

    def admit(_, raw, tau):
        pt = _Point(raw, qpd)
        t = np.sqrt(r2 / pt.h10())  # correctly rounded, as math.sqrt
        # Newton starts at each row's current crossing; math.log, as np.log need not round as libm
        s0 = [math.log(x) for x in (t * tau).tolist()]
        value, scale, tau_raw = at_crossing(pt, s0)
        return _column(t, grid) * raw, value, scale, tau_raw / t

    def direction(w, tau):  # the residual lives at tau*w
        tc = _column(tau, grid)
        x = _Point(tc * w, qpd)
        gG = x.grad_term()
        g = tc * (gG - lam * x.mass_term())
        return g, x.metric_weight(), _norm(g, grid) / (tau * _norm(gG, grid))

    def first(w, pdir):  # length 1, or the length that moves w by PASS_FIRST_MOVE max|w|
        return np.minimum(1.0, PASS_FIRST_MOVE * _sup_ratio(w, pdir))

    w0 = w0[None]
    w = _column(_Point(w0, qpd).sphere_scale(alpha * 0.5 ** len(folds)), grid) * w0
    pt = _Point(w, qpd)
    r2 = pt.h10()
    start = (w,) + at_crossing(pt, 0.0) + (first,)
    w, _, tau, iterations = _sobolev_descent(
        start, admit, direction, grid, cfg.max_iters, cfg.grad_tol
    )
    u = _unfold(tau[0] * w[0], folds)
    return _pair(u, pd, lam, MOUNTAIN_PASS, iterations[0], alpha, cfg.grad_tol)


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
    solve = solve_sublinear if pd.q.hi < pd.p.lo else solve_mountain_pass
    rows, pairs = [], []
    for i, lam in enumerate(float(l) for l in lambdas):
        try:  # row isolation: a bad row must not abort the sweep
            try:
                level = window_alpha(pd, lam)
            except ValueError:
                level = alpha
            pair = solve(pd, level, lam, cfg)
            rows.append(_sweep_row(pair, pd))
        except Exception as exc:
            warnings.warn(f"sweep row {i} (lam={lam}) failed: {exc}", RuntimeWarning)
            pair = None
            rows.append(SweepRow(lam, np.nan, np.nan, np.nan, 0, "none", False, np.nan))
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
    on genuinely different critical points.  Each 2D level then descends
    on the quarter (or half) of the grid that its parity class fixes and
    is certified on the full grid (`_fold`).  Two levels are distinct when
    their relative gap up to sign and to the symmetries of the data
    (`_family_gaps`) exceeds FAMILY_GAP_FLOOR; a warning is issued for any
    pair that is not.
    """
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive (got {mu})")
    radii = [float(r) for r in radii]
    if not radii or not all(np.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"radii must be finite and positive (got {radii})")

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
        seed_fn = mode_seed(pd, modes[k])
        if ball_regime:
            if alpha * pd.p.hi < 1.0:
                warnings.warn(
                    "level-independence needs alpha*sup(p) >= 1 in the ball regime",
                    RuntimeWarning,
                )
            pairs.append(solve_sublinear(pd, alpha, mu, cfg, v0=seed_fn))
        else:
            if alpha * pd.p.hi >= 1.0:
                warnings.warn(
                    "level-independence needs alpha*sup(p) < 1 in the path regime",
                    RuntimeWarning,
                )
            pairs.append(solve_mountain_pass(pd, alpha, mu, cfg, v0=seed_fn))

    for row in _family_gaps(pairs, pd):
        if not row["distinct"]:
            i, j = row["levels"]
            warnings.warn(
                f"radii {radii[i]} and {radii[j]} landed on one function up to sign and "
                f"symmetry (relative gap {row['gap']:.3e} <= {FAMILY_GAP_FLOOR:g})",
                RuntimeWarning,
                stacklevel=2,
            )
    return pairs


def _family_gaps(pairs: list, pd: ProblemData) -> list:
    """One row per pair of levels i < j of a family: its gap, |dI_lambda| and distinctness.

    The gap is min ||u_i - s R u_j|| / max(||u_i||, ||u_j||) over the signs
    s = +-1 and the reflections R of the grid, and their compositions,
    under which p, q and V are bitwise invariant (`_symmetric_axes`).
    I_lambda is even and such a reflection maps critical points to critical
    points, so a small gap means the two levels found one critical point,
    whatever their nodal distance.  The levels are distinct when the gap
    exceeds FAMILY_GAP_FLOOR.
    """
    axes = _symmetric_axes(pd)
    group = [r for k in range(len(axes) + 1) for r in itertools.combinations(axes, k)]
    rows = []
    for i, j in itertools.combinations(range(len(pairs)), 2):
        a, b = pairs[i], pairs[j]
        dist = min(np.linalg.norm(a.u - s * np.flip(b.u, r)) for r in group for s in (1.0, -1.0))
        gap = float(dist / max(np.linalg.norm(a.u), np.linalg.norm(b.u)))
        d_value = abs(a.snapshot.I_lambda - b.snapshot.I_lambda)
        rows.append(
            {"levels": [i, j], "gap": gap, "dI_lambda": d_value, "distinct": gap > FAMILY_GAP_FLOOR}
        )
    return rows


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
    if not (np.isfinite(lam_new) and lam_new > 0):
        raise ValueError(f"lam_new must be finite and positive (got {lam_new})")
    p_val, q_val = pd.p.lo, pd.q.lo
    t = (pair.lam / lam_new) ** (1.0 / (q_val - p_val))
    u = t * pair.u
    res = residual(u, pd, lam_new)
    snap = energies(u, pd, lam_new)
    return EigenPair(
        float(lam_new), u, res, snap, pair.mechanism, res <= tol, pair.iterations, snap.G
    )
