"""Eigenpair mechanisms: ball minimization, sphere maximization, path saddle.

Oracles come first: the quadratic case has closed-form discrete eigenvalues,
constant exponents admit an exact scaling map between eigenvalues, and every
accepted pair must satisfy the level identity psi = lam * phi to 1e-8.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import vexspec.functionals as fn
import vexspec.solvers as solvers
from vexspec import (
    SolverConfig,
    eigenfamily,
    energies,
    interval_grid,
    lambda_alpha,
    mode_seed,
    rayleigh_extrema,
    rectangle_grid,
    rescale_constant_exponent,
    residual,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
    window_alpha,
)
from vexspec.cli import build_problem
from vexspec.functionals import _Point
from vexspec.mesh import riesz_solve
from vexspec.solvers import (
    BALL_MIN,
    MOUNTAIN_PASS,
    SPHERE_MAX,
    _mode_tuples,
    _pair,
    _sweep_row,
)

from conftest import (
    family_ball_problem,
    family_ball_problem_1d,
    family_pass_problem,
    family_pass_problem_1d,
    make_pd,
)


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def level_identity_defect(pair):
    snap = pair.snapshot
    return abs(pair.lam * snap.phi - snap.psi) / snap.psi


def test_solver_config_validation():
    cfg = SolverConfig()
    assert cfg.max_iters == 20000 and cfg.grad_tol == 1e-6
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    for seed in (-3, 1.5, True):  # numpy's own error would not name the key
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.int64(7)).seed == 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": float("inf")},
        {"grad_tol": float("nan")},
        {"grad_tol": -1e-6},
        {"grad_tol": "1e-6"},
        {"grad_tol": True},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_iters": "100"},
    ],
    ids=["tol-inf", "tol-nan", "tol-negative", "tol-str", "tol-bool", "iters-float", "iters-bool",
         "iters-str"],
)
def test_solver_config_rejects_values_that_void_the_certificate(kwargs):
    """grad_tol = inf certified the undescended seed after 0 iterations; nan returned it too."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolverConfig(**kwargs)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5  # numpy integers are integers


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_ray_crossing_rows_equal_single_crossings(variable, rng):
    """A stack gives one crossing per row, each bit for bit the row's own."""
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.0 + 0.3 * x if variable else 2.0, 3.0 + x if variable else 4.0,
                 C_embed=1.0)
    u = rng.standard_normal((4,) + grid.shape)
    u[:, grid.boundary_mask] = 0.0
    taus = _Point(u, pd).crossing(0.7)
    assert taus.shape == (4,)
    for k in range(4):
        (tau,) = _Point(u[k : k + 1], pd).crossing(0.7)
        assert taus[k] == tau
        # the crossing closes the level identity psi = lam * phi on the ray
        snap = energies(tau * u[k], pd)
        assert snap.psi == pytest.approx(0.7 * snap.phi, rel=1e-12)


def test_project_to_sphere(rng):
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.0 + x, 2.0, C_embed=1.0)
    u = rng.standard_normal(grid.shape)
    u[grid.boundary_mask] = 0.0
    (t,) = _Point(u[None], pd).sphere_scale(0.7)
    assert energies(t * u, pd).G == pytest.approx(0.7, abs=1e-9)

    pdc = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    (t,) = _Point(u[None], pdc).sphere_scale(1.3)
    closed = (1.3 / energies(u, pdc).G) ** (1.0 / 3.0)
    assert t == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError, match="zero function"):
        _Point(np.zeros((1,) + grid.shape), pd).sphere_scale(1.0)
    with pytest.raises(ValueError, match="positive"):
        _Point(u[None], pd).sphere_scale(-1.0)


def test_project_to_sphere_is_relative_at_every_level(rng):
    """G(t u) = alpha to 1e-12 relative accuracy for alpha from 1e-13 to 1e3."""
    grid = interval_grid(65)
    x = grid.cell_midpoints()[0]
    for p in (2.0 + x, 3.4 - 1.2 * x * x, 1.3 + 0.2 * np.sin(7.0 * x)):
        pd = make_pd(grid, p, 1.1, C_embed=1.0)
        for alpha in np.logspace(-13.0, 3.0, 17):
            u = rng.standard_normal(grid.shape)
            u[grid.boundary_mask] = 0.0
            (t,) = _Point(u[None], pd).sphere_scale(alpha)
            assert abs(energies(t * u, pd).G / alpha - 1.0) <= 1e-12


def test_mode_seed_parity_is_exact():
    grid = interval_grid(17)
    pd = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    even = mode_seed(pd, 1)
    odd = mode_seed(pd, 2)
    assert np.array_equal(even, even[::-1])
    assert np.array_equal(odd, -odd[::-1])
    assert even[0] == even[-1] == 0.0

    from vexspec import rectangle_grid

    grid2 = rectangle_grid((10, 11), (1.0, 2.0))
    pd2 = make_pd(grid2, 3.0, 2.0, C_embed=1.0)
    u = mode_seed(pd2, (2, 3))
    assert np.array_equal(u, -u[::-1, :])
    assert np.array_equal(u, u[:, ::-1])
    # the default seed of the solves and the first start of the ascent and the survey
    for p in (pd, pd2):
        first = mode_seed(p, 1)
        for u in (solvers._seed(p, None), fn._starts(p.grid, 3, 0)[0]):
            assert u.tobytes() == first.tobytes()
            assert all(np.array_equal(u, np.flip(u, axis)) for axis in range(p.grid.dim))
    with pytest.raises(ValueError, match="one per axis"):
        mode_seed(pd2, (1, 2, 3))
    # a frequency is a positive integer: no zero, fraction, bool or NaN is truncated to one
    for bad, grid_pd in ((0, pd), (2.5, pd), (True, pd), (math.nan, pd), ((1, 1.5), pd2)):
        with pytest.raises(ValueError, match="positive integers, one per axis"):
            mode_seed(grid_pd, bad)


def test_mode_tuple_ordering():
    assert _mode_tuples(1, 3) == [(1,), (2,), (3,)]
    assert _mode_tuples(2, 3) == [(1, 1), (1, 2), (2, 1)]
    assert _mode_tuples(2, 5) == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]


# ---------------------------------------------------------------------------
# ball minimization


@pytest.fixture(scope="module")
def sublinear_pd():
    return make_pd(interval_grid(129, 1.0), 3.0, 2.0)


def test_sublinear_example_certificate(sublinear_pd):
    pd = sublinear_pd
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = solve_sublinear(pd, 1.0, 0.2, cfg)
    assert pair.mechanism == BALL_MIN
    assert pair.converged
    assert pair.residual < 1e-6
    assert pair.snapshot.G <= 1.0 + 1e-12
    assert pair.snapshot.I_lambda < 0.0
    assert level_identity_defect(pair) <= 1e-8
    assert residual(pair.u, pd, pair.lam) == pair.residual


def test_sublinear_scaling_map(sublinear_pd):
    pd = sublinear_pd
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    pair = solve_sublinear(pd, 1.0, 0.2, cfg)
    mapped = rescale_constant_exponent(pair, 0.4, pd)
    assert mapped.lam == 0.4
    assert mapped.residual < 1e-6
    assert mapped.converged
    # q - p = -1, so the amplitude doubles when lam does
    assert np.allclose(mapped.u, 2.0 * pair.u, rtol=1e-12)
    for bad in (-0.4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam_new must be finite and positive"):
            rescale_constant_exponent(pair, bad, pd)


def test_rescale_needs_constant_exponents(rng):
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 3.0 + x, 2.0, C_embed=1.0)
    cfg = SolverConfig(max_iters=5000, grad_tol=1e-4)
    pair = solve_sublinear(pd, 1.0, 0.05, cfg)
    with pytest.raises(ValueError, match="constant"):
        rescale_constant_exponent(pair, 0.1, pd)


def test_sublinear_window_warning(sublinear_pd):
    pd = sublinear_pd
    lam_bad = 2.0 * lambda_alpha(pd, 1.0)
    cfg = SolverConfig(max_iters=2000, grad_tol=1e-4)
    with pytest.warns(RuntimeWarning, match="window"):
        solve_sublinear(pd, 1.0, lam_bad, cfg)


def test_sublinear_trials_that_leave_the_ball_are_rescaled_onto_it(monkeypatch):
    """Above the window the descent pushes out of the ball, and admit scales those trials
    back onto the sphere G = alpha (`_Point.sphere_scale`).

    lam = 50 sits far above lambda_alpha = 0.54: 137 trials are rescaled,
    and after 8 searches every trial of a search misses at residual 0.84.
    """
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 3.0, 2.0 + 2.0 * x)
    inside, levels = [False], []
    scale, descend = _Point.sphere_scale, solvers._sobolev_descent

    def spy_scale(self, level):
        if inside[0]:
            levels.append(level)
        return scale(self, level)

    def spy_descent(start, admit, *rest):
        def spy_admit(*args):
            inside[0] = True
            try:
                return admit(*args)
            finally:
                inside[0] = False

        return descend(start, spy_admit, *rest)

    monkeypatch.setattr(_Point, "sphere_scale", spy_scale)
    monkeypatch.setattr(solvers, "_sobolev_descent", spy_descent)
    with pytest.warns(RuntimeWarning, match="lam sits at or above the certified window"):
        pair = solve_sublinear(pd, 1.0, 50.0, SolverConfig(max_iters=3000, grad_tol=1e-8))
    assert levels and set(levels) == {1.0}
    assert pair.converged is False and pair.residual > 1e-8
    assert pair.snapshot.G <= 1.0 + 1e-12


def test_sublinear_argument_validation(sublinear_pd):
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="positive"):
        solve_sublinear(sublinear_pd, -1.0, 0.2, cfg)
    with pytest.raises(ValueError, match="positive"):
        solve_sublinear(sublinear_pd, 1.0, 0.0, cfg)
    for alpha, lam in ((float("nan"), 0.2), (1.0, float("nan")), (float("inf"), 0.2)):
        with pytest.raises(ValueError, match="positive"):
            solve_sublinear(sublinear_pd, alpha, lam, cfg)
    grid = interval_grid(17)
    pd_super = make_pd(grid, 2.0, 4.0, C_embed=1.0)
    with pytest.raises(ValueError, match="inf q < inf p"):
        solve_sublinear(pd_super, 1.0, 0.1, cfg)
    with pytest.raises(ValueError, match="identically zero"):
        solve_sublinear(sublinear_pd, 1.0, 0.2, cfg, v0=np.zeros(sublinear_pd.grid.shape))


def test_pair_flag_follows_the_certificate(sublinear_pd):
    """The flag is read off the final residual: a non-critical iterate is never converged."""
    pd = sublinear_pd
    u = mode_seed(pd, 1)
    pair = _pair(u, pd, 0.2, BALL_MIN, 7, 1.0, 1e-6)
    assert pair.residual > 1e-6
    assert pair.converged is False
    loose = _pair(u, pd, 0.2, BALL_MIN, 7, 1.0, 2.0 * pair.residual)
    assert loose.converged is True and loose.residual == pair.residual


SWEEP_4 = [0.1, 1.0, 10.0, 100.0]


@pytest.mark.parametrize(
    "n, p, q, lams",
    [
        (129, 3.0, 2.0, SWEEP_4),
        (257, 3.0, 2.0, SWEEP_4),
        (513, 3.0, 2.0, SWEEP_4),
        (1025, 3.0, 2.0, SWEEP_4),
        (257, 3.0, 2.0, list(np.geomspace(0.1, 100.0, 8))),
        # p < 2: the gradient weight |grad u|^(p-2) is singular at critical cells
        (129, 1.6, 1.3, [0.1, 1.0, 10.0]),
    ],
    ids=["129", "257", "513", "1025", "257-dense", "129-degenerate"],
)
def test_sublinear_sweep_is_mesh_independent(n, p, q, lams):
    """The H^1_0-preconditioned descent converges in a bounded number of iterations."""
    pd = make_pd(interval_grid(n, 1.0), p, q)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    report = spectrum_sweep(pd, lams, 1.0, cfg)
    for row in report.rows:
        assert row.converged and row.residual <= 1e-6
        assert row.iterations <= 150


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
def test_sublinear_with_crossing_exponents(alpha):
    """inf q < inf p, yet q > p near x = 1: the ray crossing is undefined there.

    The seed and the final pair then take their fallbacks instead of the
    ray crossing; the solve must still certify its pair, in a bounded
    number of iterations at every level.  At alpha = 1 that bound needs the
    search after a hit to start from 1.5 times the accepted step, not from
    the last BB length.
    """
    grid = interval_grid(65, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 3.0, 2.0 + 1.5 * x)
    assert pd.q.lo < pd.p.lo and pd.q.hi > pd.p.hi
    cfg = SolverConfig(max_iters=2000, grad_tol=1e-6, seed=0)
    pair = solve_sublinear(pd, alpha, 0.5, cfg)
    assert pair.converged and pair.residual <= 1e-6
    assert pair.converged == (pair.residual <= cfg.grad_tol)
    assert pair.iterations <= 200


# ---------------------------------------------------------------------------
# sphere maximization


def test_sphere_max_quadratic_oracle():
    grid = interval_grid(65, 1.0)
    pd = make_pd(grid, 2.0, 2.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    pair = solve_sphere_max(pd, 1.0, cfg)
    h = grid.spacing[0]
    discrete = (4.0 / h**2) * np.tan(np.pi * h / 2.0) ** 2
    assert pair.mechanism == SPHERE_MAX
    assert abs(pair.lam - discrete) <= 1e-8
    assert abs(pair.lam - np.pi**2) <= 0.01 * np.pi**2
    assert level_identity_defect(pair) <= 1e-12
    assert pair.snapshot.G == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [129, 257, 513, 1025])
def test_sphere_max_is_mesh_independent(n):
    """The sphere descent needs a bounded number of steps on the strong instance.

    From the first mode it takes 10, 11, 24 and 18 searches from 129 to 1025
    nodes (17, 23, 26 and 27 from a Gaussian draw).
    """
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0))
    assert pair.converged and pair.residual <= 1e-5
    assert pair.iterations <= 40


def test_one_dimensional_descents_step_in_the_point_metric():
    """Search counts of the benchmark's 1D sphere and ball operations.

    Stepping in the metric of G's Hessian at the point, sphere maximization
    on the strong instance takes 10 searches (30 in the H^1_0 metric) and
    each row of the 513-node p = 3, q = 2 sweep 11 (41-45).
    """
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0))
    assert pair.converged and pair.iterations <= 20
    pd = make_pd(interval_grid(513, 1.0), 3.0, 2.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    for row in spectrum_sweep(pd, SWEEP_4, 1.0, cfg).rows:
        assert row.converged and row.iterations <= 15


def test_sphere_max_multistart_agreement():
    """The first mode and nine smoothed noise starts (`_starts`) reach one lam."""
    grid = interval_grid(49, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.3 + 0.2 * np.cos(2 * np.pi * x), 2.0 - 0.3 * x * (1 - x))
    cfg = SolverConfig(max_iters=30000, grad_tol=1e-5)
    lams = np.array([solve_sphere_max(pd, 1.0, cfg, v0=v0).lam for v0 in fn._starts(grid, 10, 0)])
    assert np.max(lams) - np.min(lams) <= 1e-4 * np.median(lams)


def test_sphere_max_dominates_quotient_survey():
    grid = interval_grid(49, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.5 + 0.3 * x, 1.8 + 0.2 * x)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=30000, grad_tol=1e-5, seed=0))
    rep = rayleigh_extrema(pd, 1.0, trials=4, seed=0)
    assert pair.lam >= rep.nu_star - 1e-8


def test_sphere_max_regime_and_arguments():
    grid = interval_grid(17)
    pd_super = make_pd(grid, 2.0, 4.0, C_embed=1.0)
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="sup q <= inf p"):
        solve_sphere_max(pd_super, 1.0, cfg)
    pd = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            solve_sphere_max(pd, alpha, cfg)


def test_entry_points_validate_outside_input(rng):
    grid = interval_grid(17)
    pd_sub = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    pd_super = make_pd(grid, 2.0, 4.0, C_embed=1.0)
    cfg = SolverConfig(max_iters=10)
    with pytest.raises(ValueError, match="does not match grid"):
        solve_sublinear(pd_sub, 1.0, 0.1, cfg, v0=np.ones(5))
    not_finite = np.zeros(grid.shape)
    not_finite[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_mountain_pass(pd_super, 0.1, 0.1, cfg, v0=not_finite)
    with pytest.raises(ValueError, match="finite"):
        solve_sphere_max(pd_sub, 1.0, cfg, v0=not_finite)
    for solve in (
        lambda v0: solve_sublinear(pd_sub, 1.0, 0.1, cfg, v0=v0),
        lambda v0: solve_mountain_pass(pd_super, 0.1, 0.1, cfg, v0=v0),
        lambda v0: solve_sphere_max(pd_sub, 1.0, cfg, v0=v0),
    ):
        with pytest.raises(ValueError, match="vanish"):
            solve(rng.standard_normal(grid.shape))
        with pytest.raises(ValueError, match="identically zero"):
            solve(np.zeros(grid.shape))


def test_sphere_max_validates_only_the_callers_seed(monkeypatch):
    """The default seed of solve_sphere_max, the first mode, is the solver's own and goes
    unchecked; a caller's v0 is checked for Dirichlet data once."""
    pd = make_pd(interval_grid(33), 2.0, 2.0, C_embed=1.0)
    calls, check = [], solvers.require_dirichlet

    def spy(u, grid):
        calls.append(u)
        return check(u, grid)

    monkeypatch.setattr(solvers, "require_dirichlet", spy)
    monkeypatch.setattr(fn, "require_dirichlet", spy)
    cfg = SolverConfig(max_iters=2000, grad_tol=1e-6, seed=0)
    assert solve_sphere_max(pd, 1.0, cfg).converged
    assert len(calls) == 0
    assert solve_sphere_max(pd, 1.0, cfg, v0=mode_seed(pd, 1)).converged
    assert len(calls) == 1


@pytest.mark.parametrize("n", [129, 257, 513, 1025, 2049])
def test_sphere_max_certifies_at_large_p(n):
    """At p = 8, q = 6 the default solve certifies at 1e-8 in a bounded number of searches.

    From the first mode it takes 23, 28, 39, 53 and 74 searches from 129 to
    2049 nodes, and lam falls from 721.96 to 721.59.  A Gaussian draw
    certified at 129 nodes only: at 257 it stopped after 2 searches at
    lam = 4.3e16, and from 513 nodes on it spent 3000 searches at residual
    1.1-1.2.
    """
    pd = make_pd(interval_grid(n, 1.0), 8.0, 6.0, C_embed=1.0)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=3000, grad_tol=1e-8))
    assert pair.converged and pair.residual <= 1e-8
    assert pair.iterations <= 100
    assert pair.lam == pytest.approx(721.8, rel=1e-3)


def test_sphere_max_fold_matches_the_unfolded_solve(monkeypatch):
    """A folded 2D sphere solve (see `test_default_seed_is_mode_one_and_folds`) matches
    its run on the full grid.

    Both take the same 10 searches on 41x49 nodes (17 in the H^1_0 metric);
    their sums run in another order, so they agree to rounding.
    """
    pd, _ = family_ball_problem((41, 49))
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8)
    folded = solve_sphere_max(pd, 1.0, cfg)
    monkeypatch.setattr(solvers, "_fold", lambda pd, w: (pd, w, ()))
    plain = solve_sphere_max(pd, 1.0, cfg)
    assert folded.converged and plain.converged and plain.iterations == folded.iterations
    assert folded.lam == pytest.approx(plain.lam, rel=1e-13)
    assert np.linalg.norm(folded.u - plain.u) <= 1e-13 * np.linalg.norm(plain.u)


# ---------------------------------------------------------------------------
# mountain pass


@pytest.fixture(scope="module")
def superlinear_pd():
    return make_pd(interval_grid(65, 1.0), 2.0, 4.0)


def test_mountain_pass_certificate(superlinear_pd):
    pd = superlinear_pd
    alpha = window_alpha(pd, 1.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0)
    pair = solve_mountain_pass(pd, alpha, 1.0, cfg)
    assert pair.mechanism == MOUNTAIN_PASS
    assert pair.residual < 1e-4
    c = pair.snapshot.I_lambda
    assert c > 0.0
    assert alpha * pd.p.hi < 1.0
    assert c >= alpha / 2.0 - 1e-8
    assert level_identity_defect(pair) <= 1e-8
    # superlinear growth guarantees a negative-energy endpoint along the ray
    t, found = 1.0, False
    for _ in range(60):
        t *= 2.0
        if energies(t * pair.u, pd, 1.0).I_lambda < 0.0:
            found = True
            break
    assert found


def test_mountain_pass_scaling_map(superlinear_pd):
    pd = superlinear_pd
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0)
    pair = solve_mountain_pass(pd, window_alpha(pd, 0.1), 0.1, cfg)
    mapped = rescale_constant_exponent(pair, 1.0, pd, tol=1e-4)
    assert mapped.residual < 1e-4
    assert mapped.lam == 1.0


def test_mountain_pass_regime_errors(superlinear_pd):
    cfg = SolverConfig()
    grid = interval_grid(17)
    pd_sub = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    with pytest.raises(ValueError, match="every cell"):
        solve_mountain_pass(pd_sub, 0.1, 1.0, cfg)
    # cellwise superlinear but the exponent bands overlap: inf q < sup p
    x = grid.cell_midpoints()[0]
    pd_overlap = make_pd(grid, 2.0 + 0.5 * x, 2.2 + 0.5 * x, C_embed=1.0)
    with pytest.raises(ValueError, match="inf q >= sup p"):
        solve_mountain_pass(pd_overlap, 0.1, 1.0, cfg)
    for alpha, lam in ((-0.1, 1.0), (float("nan"), 1.0), (0.1, float("nan"))):
        with pytest.raises(ValueError, match="positive"):
            solve_mountain_pass(superlinear_pd, alpha, lam, cfg)


def test_mountain_pass_certifies_a_tight_tolerance():
    # the criterion-08 problem at grad_tol 1e-8: the pair returned must be
    # the certified ridge crossing
    pd = make_pd(interval_grid(129, 1.0), 2.0, 4.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    pair = solve_mountain_pass(pd, window_alpha(pd, 1.0), 1.0, cfg)
    assert pair.residual <= 1e-6


def test_mountain_pass_reaches_a_tight_residual():
    # the criterion-08 problem at grad_tol 1e-8: every lam converges, which
    # needs the float-floor terminal phase once the ray maximum is flat
    pd = make_pd(interval_grid(129, 1.0), 2.0, 4.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    for lam in (0.1, 1.0, 10.0):
        pair = solve_mountain_pass(pd, window_alpha(pd, lam), lam, cfg)
        assert pair.converged and pair.residual <= 1e-8


def test_mountain_pass_steps_on_the_h10_sphere(monkeypatch):
    """One Riesz column per search, in the point's metric, and no root-find per trial.

    The 1D steps take the cell weight of the point's metric.  Only the
    seed is scaled onto G = alpha (one `_Point.sphere_scale`); the trials are
    rescaled onto the H^1_0 sphere through it in closed form.
    """
    pd, mu = family_pass_problem_1d()
    columns, weights, scales = [], [], []

    def riesz(d, grid, weight=None):
        columns.append(len(d.reshape((-1,) + grid.shape)))
        weights.append(weight)
        return riesz_solve(d, grid, weight)

    def scale(*args):
        scales.append(args)
        return sphere_scale(*args)

    riesz_solve, sphere_scale = fn.riesz_solve, _Point.sphere_scale
    monkeypatch.setattr(fn, "riesz_solve", riesz)
    monkeypatch.setattr(_Point, "sphere_scale", scale)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    pair = solve_mountain_pass(pd, 0.05, mu, cfg, v0=mode_seed(pd, 2))
    assert pair.converged
    assert columns == [1] * pair.iterations
    assert all(w.shape == (1,) + pd.grid.cell_shape and np.all(w > 0.0) for w in weights)
    assert len(scales) == 1


def first_search(monkeypatch, name):
    """Start w, first step pdir, first trial raw and admit calls to the first hit of a pass.

    The pass is the one `vexspec solve-superlinear` runs on scripts/configs/<name>.json; the
    hit is the first trial taken in direction (one per tick, a trial of the only row).
    """
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    pd, cfg = build_problem(config), SolverConfig(**config["solver"])
    columns, trials, hits = [], [], []
    descend, riesz = solvers._sobolev_descent, fn.riesz_solve

    def spy_descent(start, admit, direction, *rest):
        def spy_admit(u, raw, ctx):
            trials.append((u, raw))
            return admit(u, raw, ctx)

        def spy_direction(u, ctx):
            hits.append(len(trials))
            return direction(u, ctx)

        return descend(start, spy_admit, spy_direction, *rest)

    def spy_riesz(d, grid, weight=None):
        columns.append(riesz(d, grid, weight))
        return columns[-1]

    monkeypatch.setattr(solvers, "_sobolev_descent", spy_descent)
    monkeypatch.setattr(fn, "riesz_solve", spy_riesz)
    assert solve_mountain_pass(pd, config["alpha"], config["lambda"], cfg).converged
    (w, raw), pdir = trials[0], columns[0]
    return w, pdir, raw, hits[1]


def test_mountain_pass_first_search_moves_a_quarter_at_most(monkeypatch):
    """The pass's first trial is w - s pdir, s = min(1, PASS_FIRST_MOVE max|w| / max|pdir|).

    On the 41x49 boundary-regime rectangle length 1 moves w many times its
    size, and its first search missed 7 times before it hit; the scaled first
    trial hits within 2.  On the p=2, q=4 line the cap picks length 1, the
    length of a descent with no first hook.
    """
    w, pdir, raw, hit = first_search(monkeypatch, "pass_rectangle")
    assert hit <= 2
    s = solvers.PASS_FIRST_MOVE * np.abs(w).max() / np.abs(pdir).max()
    assert s < 1.0 and np.array_equal(raw, w - s * pdir)
    w, pdir, raw, _ = first_search(monkeypatch, "pass_tight")
    assert np.array_equal(raw, w - pdir)


# lam * I_lambda of the p=2, q=4 crest at 2049 nodes (the same for every lam),
# the 1D ladder's reference
PASS_CREST_2049 = 15.7560741725884


@pytest.mark.parametrize("n, rel", [(129, 5e-4), (513, 3e-5), (2049, 1e-9)])
def test_mountain_pass_mesh_ladder(n, rel):
    """The pass certifies grad_tol 1e-8 in a bounded number of searches at every mesh.

    The crest value lam * I_lambda moves by 2.3e-4 relative from 129 to
    2049 nodes and by 1.4e-5 from 513; each rung's bound is about twice its
    measured gap.  Every lam takes 6-9 searches.
    """
    pd = make_pd(interval_grid(n, 1.0), 2.0, 4.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    for lam in (0.1, 1.0, 10.0):
        pair = solve_mountain_pass(pd, window_alpha(pd, lam), lam, cfg)
        assert pair.converged and pair.residual <= 1e-8
        assert pair.iterations <= 12
        assert lam * pair.snapshot.I_lambda == pytest.approx(PASS_CREST_2049, rel=rel)


@pytest.mark.parametrize("n", [129, 513, 2049])
def test_mountain_pass_variable_exponent_ladder(n):
    """p = 2.2+0.3x, q = 3.5+0.5x: every lam certifies grad_tol 1e-10 in at most 25 searches.

    In the point's metric W the searches stay within 14-19 at every mesh;
    in the H^1_0 metric they were 32-87, and the 2049-node lam = 1 solve
    ran out of trials at residual 1.1e-10.
    """
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.2 + 0.3 * x, 3.5 + 0.5 * x)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-10, seed=0)
    for lam in (0.1, 1.0, 10.0):
        pair = solve_mountain_pass(pd, window_alpha(pd, lam), lam, cfg)
        assert pair.converged and pair.residual <= 1e-10
        assert pair.iterations <= 25


def test_mountain_pass_window_warning(superlinear_pd):
    pd = superlinear_pd
    alpha = 0.1
    lam_bad = 2.0 * lambda_alpha(pd, alpha)
    cfg = SolverConfig(max_iters=4000, grad_tol=1e-3)
    with pytest.warns(RuntimeWarning, match="window"):
        solve_mountain_pass(pd, alpha, lam_bad, cfg)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_reproduces_single_solve(sublinear_pd):
    pd = sublinear_pd
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=3)
    report = spectrum_sweep(pd, [0.7], 1.0, cfg)
    direct = solve_sublinear(pd, window_alpha(pd, 0.7), 0.7, cfg)
    assert len(report.rows) == 1
    assert report.rows[0] == _sweep_row(direct, pd)
    assert report.rows[0].u_norm > 0.0
    assert np.array_equal(report.pairs[0].u, direct.u)
    assert report.all_converged


def test_sweep_dispatch_and_determinism(superlinear_pd):
    pd = superlinear_pd
    cfg = SolverConfig(max_iters=40000, grad_tol=1e-4, seed=0)
    lams = [0.5, 1.0]
    first = spectrum_sweep(pd, lams, 1.0, cfg)
    assert all(r.mechanism == MOUNTAIN_PASS for r in first.rows)
    again = spectrum_sweep(pd, lams, 1.0, cfg)
    assert first.rows == again.rows
    for a, b in zip(first.pairs, again.pairs):
        assert np.array_equal(a.u, b.u)


def test_sweep_isolates_bad_rows(sublinear_pd):
    cfg = SolverConfig(max_iters=4000, grad_tol=1e-4, seed=0)
    with pytest.warns(RuntimeWarning, match="failed"):
        report = spectrum_sweep(sublinear_pd, [0.5, -1.0], 1.0, cfg)
    good, bad = report.rows
    assert good.converged and good.mechanism == BALL_MIN
    assert not bad.converged and bad.mechanism == "none"
    assert np.isnan(bad.residual)
    assert not report.all_converged


def test_sweep_isolates_a_row_that_raises_any_exception(sublinear_pd, monkeypatch):
    cfg = SolverConfig(max_iters=4000, grad_tol=1e-4, seed=0)
    solve = solvers.solve_sublinear

    def flaky(pd, alpha, lam, cfg, **kwargs):
        if lam == 2.0:
            raise FloatingPointError("overflow in a stencil")
        return solve(pd, alpha, lam, cfg, **kwargs)

    monkeypatch.setattr(solvers, "solve_sublinear", flaky)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = spectrum_sweep(sublinear_pd, [0.5, 2.0], 1.0, cfg)
    failed = [w for w in caught if "failed" in str(w.message)]
    assert len(failed) == 1
    assert "row 1 (lam=2.0) failed: overflow in a stencil" in str(failed[0].message)
    good, bad = report.rows
    assert good.converged and good.mechanism == BALL_MIN
    assert bad.mechanism == "none" and not bad.converged and bad.iterations == 0
    assert all(np.isnan(x) for x in (bad.residual, bad.u_norm, bad.I_value, bad.alpha))
    assert report.pairs[1] is None and report.pairs[0] is not None


def test_sweep_rejects_boundary_regime():
    pd, _ = family_ball_problem_1d(33)
    with pytest.raises(ValueError, match="boundary cases"):
        spectrum_sweep(pd, [0.1], 1.0, SolverConfig())


# ---------------------------------------------------------------------------
# families at a shared eigenvalue


def test_family_ball_regime_parity_classes():
    pd, mu = family_ball_problem_1d()
    cfg = SolverConfig(max_iters=40000, grad_tol=1e-6, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = eigenfamily(pd, mu, [1.0, 2.0], cfg)
    assert [pair.lam for pair in fam] == [mu, mu]
    for pair in fam:
        assert pair.mechanism == BALL_MIN
        assert pair.converged and pair.residual <= 1e-5
        assert level_identity_defect(pair) <= 1e-8
    even, odd = fam[0].u, fam[1].u
    assert np.array_equal(even, even[::-1])
    assert np.array_equal(odd, -odd[::-1])
    assert float(np.linalg.norm(even - odd)) > 10.0 * cfg.grad_tol


def test_family_pass_regime_parity_classes():
    pd, mu = family_pass_problem_1d()
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = eigenfamily(pd, mu, [0.05, 0.1], cfg)
    for pair in fam:
        assert pair.mechanism == MOUNTAIN_PASS
        assert pair.lam == mu
        assert pair.converged and pair.residual <= 1e-8
        assert pair.iterations <= 25
        assert pair.snapshot.I_lambda > 0.0
    even, odd = fam[0].u, fam[1].u
    assert np.array_equal(even, even[::-1])
    assert np.array_equal(odd, -odd[::-1])
    assert float(np.linalg.norm(even - odd)) > 10.0 * cfg.grad_tol


def test_family_pass_regime_parity_classes_2d():
    """The global H^1_0 scale of the pass keeps each 2D mode in its parity class, bit for bit."""
    pd, mu = family_pass_problem((41, 49))
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-8, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = eigenfamily(pd, mu, [0.05, 0.1, 0.2], cfg)
    # the seeds are the (1,1), (1,2) and (2,1) modes: sign under x and y reflection
    for pair, (sx, sy) in zip(fam, [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)]):
        assert pair.mechanism == MOUNTAIN_PASS and pair.lam == mu
        assert pair.converged and pair.residual <= 1e-8
        assert np.array_equal(pair.u, sx * pair.u[::-1, :])
        assert np.array_equal(pair.u, sy * pair.u[:, ::-1])
    for i in range(3):
        for j in range(i + 1, 3):
            assert float(np.linalg.norm(fam[i].u - fam[j].u)) > 10.0 * cfg.grad_tol


# I_lambda of the three crests of the 81x97 pass family (radii 0.05, 0.1, 0.2),
# the 2D ladder's reference
PASS_FAMILY_81 = (215.99740662820523, 15167.344811871146, 28091.72428314278)


@pytest.mark.parametrize(
    "extents, rel",
    [
        ((41, 49), 5e-2),
        ((81, 97), 1e-9),
        ((161, 193), 3e-3),
    ],
    ids=["41x49", "81x97", "161x193"],
)
def test_pass_family_mesh_ladder(extents, rel):
    """The 2D pass family converges in a bounded number of searches at every mesh.

    From 41x49 to 81x97 the crest values move by up to 3.4% relative
    (4.2e-3, 2.4e-2, 3.4e-2 by level), and from 81x97 to 161x193 by up to
    1.7e-3 (1.4e-3, 1.7e-3, 6.6e-4); each bound is about 1.5 to 2 times that.
    Stepping in the metric of the point, every level takes 7-10 searches
    (13-20 in the H^1_0 metric).
    """
    pd, mu = family_pass_problem(extents)
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = eigenfamily(pd, mu, [0.05, 0.1, 0.2], cfg)
    for pair, ref in zip(fam, PASS_FAMILY_81):
        assert pair.converged and pair.residual <= 1e-5
        assert pair.iterations <= 16
        assert pair.snapshot.I_lambda == pytest.approx(ref, rel=rel)


@pytest.mark.parametrize("extents", [(41, 49), (81, 97), (161, 193)],
                         ids=lambda e: "x".join(map(str, e)))
def test_ball_family_mesh_ladder(extents):
    """The criterion-09 ball family takes a number of searches that does not grow with the mesh.

    Stepping in the metric of the point its levels take 20/49/54, 21/49/58
    and 23/58/66 searches at 41x49, 81x97 and 161x193 (51/114/142,
    56/138/145 and 62/156/199 in the H^1_0 metric).
    """
    pd, mu = family_ball_problem(extents)
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-6, seed=0)
    fam = eigenfamily(pd, mu, [1.0, 2.0, 4.0], cfg)
    for pair in fam:
        assert pair.mechanism == BALL_MIN and pair.lam == mu
        assert pair.converged and pair.residual <= 1e-6
        assert pair.iterations <= 80


@pytest.mark.parametrize(
    "mechanism, p, q, extents, searches",
    [
        ("ball", 1.4, 1.2, (21, 25), 65),
        ("ball", 1.4, 1.2, (41, 49), 97),
        ("ball", 1.4, 1.2, (81, 97), 196),
        ("pass", 1.3, 1.6, (21, 25), 131),
        ("pass", 1.3, 1.6, (41, 49), 487),
    ],
    ids=["ball-21x25", "ball-41x49", "ball-81x97", "pass-21x25", "pass-41x49"],
)
def test_2d_solves_certify_where_p_is_below_2(mechanism, p, q, extents, searches):
    """2D ball and pass solves with p < 2 certify at grad_tol 1e-6 within 2,000 searches.

    The level is `window_alpha` at lam = 1 on the unit square.  Stepping
    in the floored metric of the point they take `searches` (the pass at
    81x97 still runs out of budget); in the H^1_0 metric the ball took
    168/428/1207 and the pass 406 at 21x25 and ran out at 41x49.
    """
    pd = make_pd(rectangle_grid(extents), p, q)
    solve = solve_sublinear if mechanism == "ball" else solve_mountain_pass
    cfg = SolverConfig(max_iters=2000, grad_tol=1e-6, seed=0)
    pair = solve(pd, window_alpha(pd, 1.0), 1.0, cfg)
    assert pair.converged and pair.residual <= 1e-6
    assert pair.iterations <= 1.5 * searches


@pytest.mark.parametrize("extents", [(21, 25), (41, 49)], ids=lambda e: "x".join(map(str, e)))
def test_2d_pass_with_p_2_steps_in_a_constant_metric(extents):
    """At p = 2 the metric weight is one constant, the Chebyshev step is the H^1_0 step over it,
    and a q = 4 pass certifies at grad_tol 1e-8 in 10 searches, as in the H^1_0 metric."""
    pd = make_pd(rectangle_grid(extents), 2.0, 4.0)
    pt = _Point(mode_seed(pd, 1)[None], pd)
    weight, d = pt.metric_weight(), pt.grad_term()
    assert np.all(weight == weight.flat[0])
    step = riesz_solve(d, pd.grid, weight)
    plain = riesz_solve(d, pd.grid) / weight.flat[0]
    assert np.linalg.norm(step - plain) <= 1e-13 * np.linalg.norm(plain)
    cfg = SolverConfig(max_iters=2000, grad_tol=1e-8, seed=0)
    pair = solve_mountain_pass(pd, window_alpha(pd, 1.0), 1.0, cfg)
    assert pair.converged and pair.residual <= 1e-8
    assert pair.iterations <= 12


def test_pass_family_folds_onto_the_quarter_grid(monkeypatch):
    """Each level of the 81x97 pass family folds both axes and matches its unfolded run.

    Its data are mirror-symmetric bit for bit and its seeds are sine modes
    of exact parity, so every descent runs on 41x49 stacks and only the
    certificate sees the full grid.  With the fold declined the same
    family runs on the full grid; sums then run in another order, so the
    two agree to rounding, not bit for bit.
    """
    pd, mu = family_pass_problem()
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-5, seed=0)
    radii = [0.05, 0.1, 0.2]
    shapes, inside = [], []
    descent, grad = solvers._sobolev_descent, fn.gradient

    def spy_descent(*args):
        inside.append(True)
        try:
            return descent(*args)
        finally:
            inside.pop()

    def spy_gradient(u, grid):
        shapes.append((bool(inside), np.shape(u)))
        return grad(u, grid)

    monkeypatch.setattr(solvers, "_sobolev_descent", spy_descent)
    monkeypatch.setattr(fn, "gradient", spy_gradient)
    folded = eigenfamily(pd, mu, radii, cfg)
    in_descent = [shape for flag, shape in shapes if flag]
    assert in_descent and all(len(shape) == 3 and shape[1:] == (41, 49) for shape in in_descent)
    assert (False, (81, 97)) in shapes  # the certificate

    monkeypatch.setattr(solvers, "_fold", lambda pd, w: (pd, w, ()))
    plain = eigenfamily(pd, mu, radii, cfg)
    for a, b in zip(folded, plain):
        assert a.converged and b.converged
        assert a.snapshot.I_lambda == pytest.approx(b.snapshot.I_lambda, rel=1e-10)
        assert np.linalg.norm(a.u - b.u) <= 1e-8 * np.linalg.norm(b.u)
        assert abs(a.iterations - b.iterations) <= 2


def sphere_solve(pd, alpha, _, cfg, **kwargs):
    return solve_sphere_max(pd, alpha, cfg, **kwargs)


@pytest.mark.parametrize("mechanism", ["ball", "sphere", "pass"])
def test_default_seed_is_mode_one_and_folds(monkeypatch, mechanism):
    """A default-seeded 2D ball, sphere or pass solve on bitwise-symmetric data folds both
    axes and returns the pair of v0 = mode_seed(pd, 1) bit for bit: that mode is its seed."""
    build, solve, alpha = {
        "ball": (family_ball_problem, solve_sublinear, 1.0),
        "sphere": (family_ball_problem, sphere_solve, 1.0),
        "pass": (family_pass_problem, solve_mountain_pass, 0.05),
    }[mechanism]
    pd, mu = build((41, 49))
    folds, fold = [], solvers._fold

    def spy(pd, w):
        out = fold(pd, w)
        folds.append([axis for axis, _ in out[2]])
        return out

    monkeypatch.setattr(solvers, "_fold", spy)
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-6, seed=0)
    default = solve(pd, alpha, mu, cfg)
    seeded = solve(pd, alpha, mu, cfg, v0=mode_seed(pd, 1))
    assert folds == [[0, 1], [0, 1]]
    assert default.converged
    assert default.u.tobytes() == seeded.u.tobytes()
    assert default.iterations == seeded.iterations and default.residual == seeded.residual
    assert default.snapshot == seeded.snapshot


def test_family_rejects_strict_regimes(sublinear_pd):
    with pytest.raises(ValueError, match="boundary regime"):
        eigenfamily(sublinear_pd, 0.1, [1.0], SolverConfig())
    grid = interval_grid(17)
    pd_const = make_pd(grid, 2.5, 2.5, C_embed=1.0)
    with pytest.raises(ValueError, match="boundary regime"):
        eigenfamily(pd_const, 0.1, [1.0], SolverConfig())


def test_family_input_validation_and_window_warning():
    pd, mu = family_ball_problem_1d(49)
    cfg = SolverConfig(max_iters=3000, grad_tol=1e-4)
    for bad_mu in (-mu, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            eigenfamily(pd, bad_mu, [1.0], cfg)
    for radii in ([], [1.0, -2.0], [1.0, float("nan")]):
        with pytest.raises(ValueError, match="radii"):
            eigenfamily(pd, mu, radii, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eigenfamily(pd, 10.0 * mu, [1.0], cfg)
    assert any("outside the level-independent window" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eigenfamily(pd, mu, [0.2], cfg)
    assert any("alpha*sup(p) >= 1" in str(w.message) for w in caught)
