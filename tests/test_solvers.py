"""Eigenpair mechanisms: ball minimization, sphere maximization, path saddle.

Oracles come first: the quadratic case has closed-form discrete eigenvalues,
constant exponents admit an exact scaling map between eigenvalues, and every
accepted pair must satisfy the level identity psi = lam * phi to 1e-8.
"""

import warnings

import numpy as np
import pytest

from vexspec import (
    SolverConfig,
    bump_seed,
    eigenfamily,
    energies,
    interval_grid,
    lambda_alpha,
    mode_seed,
    project_to_sphere,
    rayleigh_extrema,
    rescale_constant_exponent,
    residual,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
    window_alpha,
)
from vexspec.functionals import _grad_profile, _mass_profile
from vexspec.solvers import BALL_MIN, MOUNTAIN_PASS, SPHERE_MAX, _mode_tuples, _pair, _ray_crossing

from conftest import (
    family_ball_problem_1d,
    family_pass_problem_1d,
    make_pd,
)


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": float("inf")},
        {"grad_tol": float("nan")},
        {"grad_tol": -1e-6},
        {"grad_tol": "1e-6"},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_iters": "100"},
    ],
    ids=["tol-inf", "tol-nan", "tol-negative", "tol-str", "iters-float", "iters-bool", "iters-str"],
)
def test_solver_config_rejects_values_that_void_the_certificate(kwargs):
    """grad_tol = inf certified the undescended seed after 0 iterations; nan returned it too."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolverConfig(**kwargs)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5  # numpy integers are integers


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
def test_ray_crossing_rows_equal_single_crossings(variable, rng):
    """Stacked profiles give one crossing per row, each bit for bit the row's own."""
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.0 + 0.3 * x if variable else 2.0, 3.0 + x if variable else 4.0,
                 C_embed=1.0)
    u = rng.standard_normal((4,) + grid.shape)
    u[:, grid.boundary_mask] = 0.0
    wg, wm = _grad_profile(u, pd), _mass_profile(u, pd)
    taus = _ray_crossing(wg, wm, pd, 0.7)
    assert taus.shape == (4,)
    for k in range(4):
        tau = _ray_crossing(wg[k], wm[k], pd, 0.7)
        assert isinstance(tau, float) and taus[k] == tau
        # the crossing closes the level identity psi = lam * phi on the ray
        snap = energies(tau * u[k], pd)
        assert snap.psi == pytest.approx(0.7 * snap.phi, rel=1e-12)


def test_project_to_sphere(rng):
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.0 + x, 2.0, C_embed=1.0)
    u = rng.standard_normal(grid.shape)
    u[grid.boundary_mask] = 0.0
    t, v = project_to_sphere(u, pd, 0.7)
    assert np.array_equal(v, t * u)
    assert energies(v, pd).G == pytest.approx(0.7, abs=1e-9)

    pdc = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    t, v = project_to_sphere(u, pdc, 1.3)
    closed = (1.3 / energies(u, pdc).G) ** (1.0 / 3.0)
    assert t == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError, match="zero function"):
        project_to_sphere(grid.zero_function(), pd, 1.0)
    with pytest.raises(ValueError, match="positive"):
        project_to_sphere(u, pd, -1.0)


def test_project_to_sphere_is_relative_at_every_level(rng):
    """G(t u) = alpha to 1e-12 relative accuracy for alpha from 1e-13 to 1e3."""
    grid = interval_grid(65)
    x = grid.cell_midpoints()[0]
    for p in (2.0 + x, 3.4 - 1.2 * x * x, 1.3 + 0.2 * np.sin(7.0 * x)):
        pd = make_pd(grid, p, 1.1, C_embed=1.0)
        for alpha in np.logspace(-13.0, 3.0, 17):
            u = rng.standard_normal(grid.shape)
            u[grid.boundary_mask] = 0.0
            _, v = project_to_sphere(u, pd, alpha, tol=1e-12)
            assert abs(energies(v, pd).G / alpha - 1.0) <= 1e-12


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
    with pytest.raises(ValueError, match="one per axis"):
        mode_seed(pd2, (1, 2, 3))
    with pytest.raises(ValueError, match="positive"):
        mode_seed(pd, 0)


def test_mode_tuple_ordering():
    assert _mode_tuples(1, 3) == [(1,), (2,), (3,)]
    assert _mode_tuples(2, 3) == [(1, 1), (1, 2), (2, 1)]
    assert _mode_tuples(2, 5) == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]


def test_bump_seed():
    grid = interval_grid(41)
    pd = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    u = bump_seed(pd, 0.25, 0.1)
    assert u[grid.boundary_mask].max() == 0.0
    assert np.argmax(u) == pytest.approx(10, abs=1)
    with pytest.raises(ValueError, match="center"):
        bump_seed(pd, 0.0, 0.1)
    with pytest.raises(ValueError, match="width"):
        bump_seed(pd, 0.5, 0.0)


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
    with pytest.raises(ValueError, match="positive"):
        rescale_constant_exponent(pair, -0.4, pd)


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


def test_sublinear_argument_validation(sublinear_pd):
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="positive"):
        solve_sublinear(sublinear_pd, -1.0, 0.2, cfg)
    with pytest.raises(ValueError, match="positive"):
        solve_sublinear(sublinear_pd, 1.0, 0.0, cfg)
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
    """The H^1_0 sphere descent needs a bounded number of steps on the strong instance."""
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0))
    assert pair.converged and pair.residual <= 1e-5
    assert pair.iterations <= 300


def test_sphere_max_multistart_agreement():
    grid = interval_grid(49, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.3 + 0.2 * np.cos(2 * np.pi * x), 2.0 - 0.3 * x * (1 - x))
    lams = []
    for seed in range(10):
        cfg = SolverConfig(max_iters=30000, grad_tol=1e-5, seed=seed)
        lams.append(solve_sphere_max(pd, 1.0, cfg).lam)
    lams = np.array(lams)
    assert np.max(lams) - np.min(lams) <= 1e-4 * np.median(lams)


def test_sphere_max_dominates_quotient_survey():
    grid = interval_grid(49, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.5 + 0.3 * x, 1.8 + 0.2 * x)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=30000, grad_tol=1e-5, seed=0))
    rep = rayleigh_extrema(pd, 1.0, trials=4, iters=600, seed=0)
    assert pair.lam >= rep.nu_star - 1e-8


def test_sphere_max_regime_and_arguments():
    grid = interval_grid(17)
    pd_super = make_pd(grid, 2.0, 4.0, C_embed=1.0)
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="sup q <= inf p"):
        solve_sphere_max(pd_super, 1.0, cfg)
    pd = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    with pytest.raises(ValueError, match="positive"):
        solve_sphere_max(pd, 0.0, cfg)


def test_entry_points_validate_outside_input(rng):
    grid = interval_grid(17)
    pd_sub = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    pd_super = make_pd(grid, 2.0, 4.0, C_embed=1.0)
    cfg = SolverConfig(max_iters=10)
    live_boundary = rng.standard_normal(grid.shape)
    with pytest.raises(ValueError, match="vanish"):
        project_to_sphere(live_boundary, pd_sub, 1.0)
    with pytest.raises(ValueError, match="does not match grid"):
        solve_sublinear(pd_sub, 1.0, 0.1, cfg, v0=np.ones(5))
    not_finite = grid.zero_function()
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
        with pytest.raises(ValueError, match="identically zero"):
            solve(grid.zero_function())


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
    with pytest.raises(ValueError, match="positive"):
        solve_mountain_pass(superlinear_pd, -0.1, 1.0, cfg)


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
    assert report.rows[0].lam == direct.lam
    assert report.rows[0].residual == direct.residual
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
        assert pair.snapshot.I_lambda > 0.0
    even, odd = fam[0].u, fam[1].u
    assert np.array_equal(even, even[::-1])
    assert np.array_equal(odd, -odd[::-1])
    assert float(np.linalg.norm(even - odd)) > 10.0 * cfg.grad_tol


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
    with pytest.raises(ValueError, match="positive"):
        eigenfamily(pd, -mu, [1.0], cfg)
    with pytest.raises(ValueError, match="radii"):
        eigenfamily(pd, mu, [], cfg)
    with pytest.raises(ValueError, match="radii"):
        eigenfamily(pd, mu, [1.0, -2.0], cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eigenfamily(pd, 10.0 * mu, [1.0], cfg)
    assert any("outside the level-independent window" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eigenfamily(pd, mu, [0.2], cfg)
    assert any("alpha*sup(p) >= 1" in str(w.message) for w in caught)
