"""Energies, nodal gradients, window thresholds and quotient surveys."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vexspec.functionals as fn
import vexspec.solvers as solvers
from vexspec import (
    alpha_independent_threshold,
    embedding_constant,
    energies,
    grad_F,
    grad_G,
    interval_grid,
    lambda_alpha,
    lambda_alpha_detail,
    make_problem,
    rayleigh_extrema,
    rectangle_grid,
    residual,
    window_alpha,
)
from vexspec.functionals import grad_phi, grad_psi, is_superlinear
from vexspec.mesh import (
    StructuredGrid,
    cell_values,
    cell_values_adjoint,
    gradient,
    gradient_adjoint,
    riesz_solve,
)
from vexspec.spaces import constant_exponent

from conftest import family_ball_problem_1d, family_pass_problem, make_pd


def loop_energies(u, pd, lam):
    """Per-cell recomputation with explicit loops; independent of the stencils."""
    grid = pd.grid
    vol = grid.cell_volume
    G = F = psi = phi = 0.0
    if grid.dim == 1:
        h = grid.spacing[0]
        for c in range(grid.cell_shape[0]):
            gm = abs(u[c + 1] - u[c]) / h
            ub = 0.5 * (u[c] + u[c + 1])
            pc, qc = pd.p.values[c], pd.q.values[c]
            G += gm**pc / pc * vol
            psi += gm**pc * vol
            F += pd.V[c] * abs(ub) ** qc / qc * vol
            phi += pd.V[c] * abs(ub) ** qc * vol
    else:
        hx, hy = grid.spacing
        mx, my = grid.cell_shape
        for i in range(mx):
            for j in range(my):
                gx = 0.5 * ((u[i + 1, j] - u[i, j]) + (u[i + 1, j + 1] - u[i, j + 1])) / hx
                gy = 0.5 * ((u[i, j + 1] - u[i, j]) + (u[i + 1, j + 1] - u[i + 1, j])) / hy
                gm = np.hypot(gx, gy)
                ub = 0.25 * (u[i, j] + u[i + 1, j] + u[i, j + 1] + u[i + 1, j + 1])
                pc, qc = pd.p.values[i, j], pd.q.values[i, j]
                G += gm**pc / pc * vol
                psi += gm**pc * vol
                F += pd.V[i, j] * abs(ub) ** qc / qc * vol
                phi += pd.V[i, j] * abs(ub) ** qc * vol
    return G, F, psi, phi, G - lam * F


def interior_noise(grid, rng, scale=1.0):
    u = scale * rng.standard_normal(grid.shape)
    u[grid.boundary_mask] = 0.0
    return u


@pytest.mark.parametrize("dim", [1, 2])
def test_energies_match_loop_recomputation(dim, rng):
    grid = interval_grid(14, 1.7) if dim == 1 else rectangle_grid((7, 9), (1.2, 0.8))
    m = grid.cell_shape
    pd = make_pd(grid, 2.0 + rng.random(m), 1.5 + 0.4 * rng.random(m), V=0.5 + rng.random(m))
    u = interior_noise(grid, rng)
    snap = energies(u, pd, 0.7)
    G, F, psi, phi, I = loop_energies(u, pd, 0.7)
    assert snap.G == pytest.approx(G, rel=1e-13)
    assert snap.F == pytest.approx(F, rel=1e-13)
    assert snap.psi == pytest.approx(psi, rel=1e-13)
    assert snap.phi == pytest.approx(phi, rel=1e-13)
    assert snap.I_lambda == pytest.approx(I, rel=1e-12, abs=1e-14)
    assert snap.lambda_used == 0.7


def test_euler_identities(rng):
    """The power structure ties each gradient pairing to its modular."""
    grid = rectangle_grid((8, 7))
    m = grid.cell_shape
    pd = make_pd(grid, 2.0 + 0.8 * rng.random(m), 1.6 + 0.3 * rng.random(m))
    u = interior_noise(grid, rng)
    snap = energies(u, pd)
    assert float(np.vdot(grad_G(u, pd), u)) == pytest.approx(snap.psi, rel=1e-12)
    assert float(np.vdot(grad_F(u, pd), u)) == pytest.approx(snap.phi, rel=1e-12)
    psi_pair = float(np.vdot(grad_psi(u, pd), u))
    phi_pair = float(np.vdot(grad_phi(u, pd), u))
    wg, wm = fn._Point(u, pd).profiles
    lo = float(np.sum(pd.p.values**2 * wg))
    assert psi_pair == pytest.approx(lo, rel=1e-12)
    assert phi_pair == pytest.approx(float(np.sum(pd.q.values**2 * wm)), rel=1e-12)


def exponent_specs(grid):
    x = grid.cell_midpoints()[0]
    return {
        "1.5": np.full(grid.cell_shape, 1.5),
        "2": np.full(grid.cell_shape, 2.0),
        "3": np.full(grid.cell_shape, 3.0),
        "2+x": 2.0 + x,
    }


@pytest.mark.parametrize("p_key,q_key", [("1.5", "3"), ("2", "2+x"), ("3", "1.5"), ("2+x", "2")])
def test_gradients_match_central_differences(p_key, q_key, rng):
    grid = interval_grid(21, 1.0)
    specs = exponent_specs(grid)
    pd = make_pd(grid, specs[p_key], specs[q_key], V=0.5 + rng.random(grid.cell_shape))
    eps = 1e-6
    for _ in range(5):
        u = interior_noise(grid, rng)
        v = interior_noise(grid, rng)
        num_G = (energies(u + eps * v, pd).G - energies(u - eps * v, pd).G) / (2 * eps)
        num_F = (energies(u + eps * v, pd).F - energies(u - eps * v, pd).F) / (2 * eps)
        ana_G = float(np.vdot(grad_G(u, pd), v))
        ana_F = float(np.vdot(grad_F(u, pd), v))
        assert num_G == pytest.approx(ana_G, rel=1e-5)
        assert num_F == pytest.approx(ana_F, rel=1e-5)


def dense_interior_operator(apply_fn, grid):
    interior = ~grid.boundary_mask
    idx = np.flatnonzero(interior.ravel())
    cols = []
    for k in idx:
        e = np.zeros(int(np.prod(grid.shape)))
        e[k] = 1.0
        cols.append(apply_fn(e.reshape(grid.shape)).ravel()[idx])
    return np.stack(cols, axis=1)


def test_quadratic_case_matches_generalized_eigensolver():
    """p = q = 2 reduces to K u = lam M u; eigh and the ray formula agree."""
    from scipy.linalg import eigh

    n = 33
    grid = interval_grid(n, 1.0)
    pd = make_pd(grid, 2.0, 2.0, C_embed=1.0)
    K = dense_interior_operator(lambda u: grad_G(u, pd), grid)
    M = dense_interior_operator(lambda u: grad_F(u, pd), grid)
    assert np.allclose(K, K.T, atol=1e-14)
    vals, vecs = eigh(K, M)
    h = grid.spacing[0]
    closed = (4.0 / h**2) * np.tan(np.arange(1, n - 1) * np.pi * h / 2.0) ** 2
    assert np.allclose(vals, closed, rtol=1e-9)

    u = np.zeros(grid.shape)
    u[1:-1] = vecs[:, 0]
    assert residual(u, pd, vals[0]) < 1e-10


def test_residual_validation(rng):
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    with pytest.raises(ValueError, match="zero function"):
        residual(np.zeros(grid.shape), pd, 1.0)
    u = interior_noise(grid, rng)
    assert residual(u, pd, 1.0) == residual(-u, pd, 1.0)


@pytest.mark.parametrize("grid", [interval_grid(9), rectangle_grid((5, 6))], ids=["1d", "2d"])
def test_outside_input_is_validated_at_the_functionals(grid, rng):
    """The stencils check shapes only; energies and gradients still reject bad input."""
    pd = make_pd(grid, 3.0, 2.0)
    nan = interior_noise(grid, rng)
    nan[(1,) * grid.dim] = np.nan
    edge = interior_noise(grid, rng)
    edge[(0,) * grid.dim] = 1.0
    for check in (energies, grad_G, grad_F, grad_psi, grad_phi, lambda u, pd: residual(u, pd, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            check(nan, pd)
        with pytest.raises(ValueError, match="vanish"):
            check(edge, pd)


def test_energies_overflow_reporting():
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    u = np.zeros(grid.shape)
    u[4] = 1e300
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match=r"at cell \(3,\)$"):
        energies(u, pd)


def test_make_problem_validation(rng):
    grid = interval_grid(9)
    m = grid.cell_shape
    p = constant_exponent(3.0, m)
    q = constant_exponent(2.0, m)
    s = constant_exponent(400.0, m)
    with pytest.raises(ValueError, match="inf s"):
        make_problem(grid, p, q, constant_exponent(2.5, m), np.ones(m))
    with pytest.raises(ValueError, match="positive"):
        make_problem(grid, p, q, s, np.zeros(m))
    # the first cell that is not positive and finite is named, as plain ints
    for cell, bad in ((5, np.inf), (2, np.nan), (6, -1.0)):
        V = np.ones(m)
        V[cell], V[7] = bad, 0.0
        with pytest.raises(ValueError, match=rf"positive and finite everywhere, offending cell \({cell},\)$"):
            make_problem(grid, p, q, s, V)
    with pytest.raises(ValueError, match="shape"):
        make_problem(grid, constant_exponent(3.0, (4,)), q, s, np.ones(m))
    with pytest.raises(ValueError, match=r"weight shape \(4,\) != cells \(8,\)"):
        make_problem(grid, p, q, s, np.ones(4))
    for trials in (2.0, True, 0):  # numpy's own error would not name the key
        with pytest.raises(ValueError, match="embed_trials must be positive"):
            make_problem(grid, p, q, s, np.ones(m), embed_trials=trials)
    with pytest.raises(ValueError, match="embed_seed must be a non-negative integer"):
        make_problem(grid, p, q, s, np.ones(m), embed_trials=2, embed_seed=1.5)
    pd = make_pd(grid, 3.0, 2.0)
    # for constant s the two conjugate reciprocals sum to one exactly
    assert pd.C_H == pytest.approx(1.0, rel=1e-12)
    assert np.isfinite(pd.C_embed) and pd.C_embed > 0
    assert pd.V_norm > 0
    assert not is_superlinear(pd)
    pd_super = make_pd(grid, 2.0, 4.0)
    assert is_superlinear(pd_super)


def test_threshold_closed_form_with_unit_constants():
    grid = interval_grid(129, 1.0)
    pd = make_pd(grid, 3.0, 2.0, C_H=1.0, C_embed=1.0, V_norm=1.0)
    got = lambda_alpha(pd, 1.0)
    assert abs(got - 3.0 ** (-2.0 / 3.0)) <= 1e-12
    info = lambda_alpha_detail(pd, 1.0)
    assert info.branch == "alpha_p_sup >= 1"
    assert lambda_alpha_detail(pd, 0.01).branch == "alpha_p_sup < 1"
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            lambda_alpha(pd, alpha)
        with pytest.raises(ValueError, match="positive"):
            lambda_alpha_detail(pd, alpha)


def test_threshold_level_independence_on_boundary_regime():
    pd, _ = family_ball_problem_1d(49)
    thr = alpha_independent_threshold(pd)
    for alpha in np.linspace(0.5, 8.0, 20):
        assert lambda_alpha(pd, alpha) == pytest.approx(thr, rel=1e-12)


def test_threshold_monotonicity_in_level():
    grid = interval_grid(33)
    alphas = np.geomspace(0.05, 5.0, 20)
    sub = make_pd(grid, 3.0, 2.0)
    vals = [lambda_alpha(sub, a) for a in alphas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    sup = make_pd(grid, 2.0, 4.0)
    vals = [lambda_alpha(sup, a) for a in alphas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_window_alpha_clears_requested_margin():
    grid = interval_grid(33)
    sub = make_pd(grid, 3.0, 2.0)
    sup = make_pd(grid, 2.0, 4.0)
    for pd, lam in ((sub, 0.3), (sub, 50.0), (sup, 0.2), (sup, 3.0)):
        a = window_alpha(pd, lam)
        assert lambda_alpha(pd, a) >= 1.9 * lam
    for lam in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            window_alpha(sub, lam)
    boundary, _ = family_ball_problem_1d(33)
    with pytest.raises(ValueError, match="regime gap"):
        window_alpha(boundary, 0.1)


def test_embedding_constant_linear_oracle():
    """For the p = 2 norm pair the sharp constant is 1/pi (first mode)."""
    grid = interval_grid(65, 1.0)
    pd = make_pd(grid, 2.0, 2.0, C_embed=1.0)
    est = embedding_constant(pd, trials=2)
    assert est == pytest.approx(1.0 / np.pi, rel=0.02)
    for trials in (0, 2.5, True):
        with pytest.raises(ValueError, match="trials must be positive"):
            embedding_constant(pd, trials)
    for seed in (-1, 2.0, True):  # numpy's own error would not name the key
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            embedding_constant(pd, trials=2, seed=seed)


def spy_stacks(monkeypatch):
    """Record the (u, value, ctx, searches) of every `_sobolev_descent` run, in order."""
    stacks, descend = [], fn._sobolev_descent

    def spy(*args):
        out = descend(*args)
        stacks.append(out)
        return out

    monkeypatch.setattr(fn, "_sobolev_descent", spy)
    return stacks


@pytest.mark.parametrize("n", [129, 257, 513, 1025, 2049])
@pytest.mark.parametrize("instance", ["p3q2", "strong"])
def test_embedding_ascent_is_mesh_independent(monkeypatch, instance, n):
    """Every ascent row, stepping in the metric of its point, stops on its own within
    30 searches, and all agree to 1e-11.

    The rows' searches and final ratios are read from the one `_sobolev_descent`
    stack the ascent runs; its value is -ratio.
    """
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    p, q = (3.0, 2.0) if instance == "p3q2" else (2.6 + 0.8 * x, 1.5 + 0.7 * x * x)
    pd = make_pd(grid, p, q, C_embed=1.0)
    stacks = spy_stacks(monkeypatch)
    est = embedding_constant(pd, trials=4, seed=0)
    [(_, value, _, searches)] = stacks
    ratios = -value
    assert len(ratios) == 4
    assert max(searches) <= 30
    assert max(ratios) == est
    assert max(ratios) - min(ratios) <= 1e-11 * est
    if instance == "p3q2" and n == 1025:
        assert est >= 0.3050


@pytest.mark.parametrize("grid", [interval_grid(33), rectangle_grid((9, 11))], ids=["1d", "2d"])
def test_embedding_ascent_steps_in_the_metric_of_its_point(monkeypatch, grid):
    """Every Riesz solve of the ascent's steps passes the points' cell weights, one positive
    row per point, in 1D and None in 2D; the solve before them smooths the noise start."""
    pd = make_pd(grid, 3.0, 2.0, C_embed=1.0)
    weights, solve = [], fn.riesz_solve

    def spy(g, grid, weight=None):
        weights.append(weight)
        return solve(g, grid, weight)

    monkeypatch.setattr(fn, "riesz_solve", spy)
    fn.embedding_constant(pd, trials=2)
    assert len(weights) > 3 and weights[0] is None
    for w in weights[1:]:
        if grid.dim == 2:
            assert w is None
        else:
            assert w.shape[1:] == grid.cell_shape and 1 <= len(w) <= 2
            assert all(np.all(row > 0.0) for row in w)


@pytest.mark.parametrize("grid", [interval_grid(65), rectangle_grid((9, 11))], ids=["1d", "2d"])
def test_starts_smooth_every_noise_row(grid):
    """Row 0 is the first mode; rows 1.. are bit for bit the H^1_0 Riesz maps of the
    Gaussian draws seeded [seed, offset + row], and a 1-row start draws nothing."""
    u = fn._starts(grid, 3, 4, 7)
    raw = np.stack([np.random.default_rng([4, 7 + row]).standard_normal(grid.shape) for row in (1, 2)])
    assert u[0].tobytes() == fn._sine_mode(grid, (1,) * grid.dim).tobytes()
    assert u[1:].tobytes() == riesz_solve(raw, grid).tobytes()
    assert fn._starts(grid, 1, 4, 7).tobytes() == u[:1].tobytes()


@pytest.mark.parametrize("grid", [interval_grid(65), rectangle_grid((9, 11))], ids=["1d", "2d"])
def test_embedding_ascent_first_mode_row_is_the_one_trial_ascent(monkeypatch, grid):
    """Row 0 of a k-trial ascent, the first-mode start, ends bit for bit where the 1-trial
    ascent ends, after as many searches: each row runs as it would alone.

    The 2D q varies along both axes, so neither ascent folds.  On data that vary in x
    alone the 1-trial ascent folds y and the 3-trial stack cannot: row 0 then ends where
    the folded ascent ends up to summation order (2.7e-16 relative in the ratio)."""
    x, y = grid.cell_midpoints()[0], grid.cell_midpoints()[-1]  # y is x in 1D
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * y, C_embed=1.0)
    stacks = spy_stacks(monkeypatch)
    one = embedding_constant(pd, trials=1)
    embedding_constant(pd, trials=3, seed=2)
    (u1, value1, _, searches1), (u3, value3, _, searches3) = stacks
    assert one == -value1[0]
    assert u3[0].tobytes() == u1[0].tobytes()
    assert value3[0] == value1[0] and searches3[0] == searches1[0]
    if grid.dim == 2:
        pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
        stacks.clear()
        one = embedding_constant(pd, trials=1)
        embedding_constant(pd, trials=3, seed=2)
        (u1, _, _, searches1), (u3, value3, _, searches3) = stacks
        assert u1.shape == (1, 9, 6) and u3.shape == (3, 9, 11)
        assert one == pytest.approx(-value3[0], rel=1e-14) and searches1[0] == searches3[0]
        assert np.allclose(fn._unfold(u1[0], ((1, 1.0),)), u3[0], rtol=0.0, atol=1e-14)


def test_embedding_ascent_folds_on_bitwise_symmetric_2d_data(monkeypatch):
    """On the 81x97 mirror-symmetric pass data the 1-trial ascent descends on the 41x49
    quarter, takes the searches of the full-grid ascent, and its ratio is the full-grid
    ratio of its unfolded end point to 1e-14: the estimate is realized on the full grid."""
    pd, _ = family_pass_problem()
    stacks = spy_stacks(monkeypatch)
    folded = embedding_constant(pd)
    monkeypatch.setattr(fn, "_fold", lambda pd, w, *more: (pd, w, ()))
    whole = embedding_constant(pd)
    (u, _, _, searches), (u_whole, _, _, searches_whole) = stacks
    assert u.shape == (1, 41, 49) and u_whole.shape == (1, 81, 97)
    assert searches[0] == searches_whole[0]
    end = fn._unfold(u[0], ((0, 1.0), (1, 1.0)))
    ratio = fn._embedding_ratio_and_grad(end, pd, pd.target_exponent, pd.grid.cell_volume)[0]
    assert folded == pytest.approx(ratio, rel=1e-14)
    assert folded == pytest.approx(whole, rel=1e-14)


def test_embedding_ascent_folds_only_where_s_is_symmetric_and_only_one_trial(monkeypatch):
    """The numerator exponent s'q reads s, so the ascent keeps whole an axis along which s
    alone is asymmetric, which a solve, blind to s, would fold; a 2-trial stack, whose noise
    row has no parity, folds no axis."""
    grid = rectangle_grid((9, 11))
    y = grid.cell_midpoints()[1]
    pd = make_pd(grid, 2.5, 2.0, s=400.0 + y, C_embed=1.0)
    mode = fn._sine_mode(grid, (1, 1))
    assert [axis for axis, _ in fn._fold(pd, mode)[2]] == [0, 1]
    assert [axis for axis, _ in fn._fold(pd, mode, pd.s.values)[2]] == [0]
    stacks = spy_stacks(monkeypatch)
    embedding_constant(pd)
    embedding_constant(pd, trials=2)
    embedding_constant(make_pd(grid, 2.5, 2.0, C_embed=1.0), trials=2)
    assert [u.shape for u, *_ in stacks] == [(1, 5, 11), (2, 9, 11), (2, 9, 11)]


def test_rayleigh_survey_structure():
    grid = interval_grid(49)
    pd = make_pd(grid, 3.0, 2.0)
    rep = rayleigh_extrema(pd, 1.0, trials=3, seed=5)
    assert rep.trials == 3
    assert set(rep.witnesses) == {"nu_star", "nu_sup", "lambda_star", "mu_star"}
    assert rep.witnesses["nu_star"].shape == grid.shape
    # weight bounds tie the two sphere quotients together
    assert (pd.q.lo / pd.p.hi) * rep.nu_star <= rep.nu_sup * (1 + 1e-12)
    assert rep.nu_sup <= (pd.q.hi / pd.p.lo) * rep.nu_star * (1 + 1e-12)
    # amplitude decay drives the ball infimum toward zero in this regime
    assert rep.lambda_star <= 1e-12 * rep.nu_star
    assert rep.mu_star > 0
    rep2 = rayleigh_extrema(pd, 1.0, trials=3, seed=5)
    assert rep2.nu_star == rep.nu_star and rep2.mu_star == rep.mu_star
    with pytest.raises(ValueError, match="positive"):
        rayleigh_extrema(pd, 1.0, trials=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alpha": float("nan")}, "alpha must be a finite positive level"),
        ({"alpha": float("inf")}, "alpha must be a finite positive level"),
        ({"alpha": 0.0}, "alpha must be a finite positive level"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 1.5}, "seed must be a non-negative integer"),
        ({"trials": 0}, "trials must be positive"),
        ({"trials": 2.0}, "trials must be positive"),
        ({"trials": True}, "trials must be positive"),
    ],
    ids=["alpha-nan", "alpha-inf", "alpha-zero", "seed-negative", "seed-float", "trials-zero",
         "trials-float", "trials-bool"],
)
def test_rayleigh_survey_rejects_degenerate_settings(kwargs, message):
    """Bad levels and seeds raise at the call, naming the setting, not far from the cause."""
    grid = interval_grid(33)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    args = {"alpha": 1.0, "trials": 2, **kwargs}
    with pytest.raises(ValueError, match=message):
        rayleigh_extrema(pd, args.pop("alpha"), args.pop("trials"), **args)


def test_rayleigh_survey_on_a_rectangle():
    """The 2D survey: sandwich bounds, and each witness realizes its reported value."""
    grid = rectangle_grid((9, 11), (1.0, 1.3))
    x, y = grid.cell_midpoints()
    pd = make_pd(grid, 2.6 + 0.4 * x, 1.6 + 0.3 * y, C_embed=1.0)
    alpha = 1.0
    rep = rayleigh_extrema(pd, alpha, trials=3, seed=2)
    assert all(w.shape == grid.shape for w in rep.witnesses.values())
    assert (pd.q.lo / pd.p.hi) * rep.nu_star <= rep.nu_sup * (1 + 1e-12)
    assert rep.nu_sup <= (pd.q.hi / pd.p.lo) * rep.nu_star * (1 + 1e-12)
    assert 0.0 < rep.lambda_star <= rep.nu_star and rep.mu_star > 0.0
    snap = {name: energies(w, pd) for name, w in rep.witnesses.items()}
    assert snap["nu_star"].psi / snap["nu_star"].phi == rep.nu_star
    assert snap["nu_sup"].G / snap["nu_sup"].F == rep.nu_sup
    assert snap["lambda_star"].psi / snap["lambda_star"].phi == rep.lambda_star
    mu = energies(rep.witnesses["mu_star"], dataclasses.replace(pd, q=pd.p))
    assert mu.psi / mu.phi == pytest.approx(rep.mu_star, rel=1e-12)
    for name in ("nu_star", "nu_sup", "mu_star"):  # sphere descents end on the sphere
        assert snap[name].G == pytest.approx(alpha, rel=1e-12)
    assert rayleigh_extrema(pd, alpha, trials=3, seed=2).nu_star == rep.nu_star


def test_survey_stacks_equal_the_single_point_loop():
    """The survey's stacked pool and probe evaluations round as one `energies` call per point.

    The reference is the loop the stacks replace: each witness realizes its
    value, and the ball infimum halves the psi/phi witness up to 60 times,
    keeping each probe that lowers psi/phi.
    """
    grid = interval_grid(65, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    rep = rayleigh_extrema(pd, 1.0, trials=2, seed=3)
    w = rep.witnesses
    snap = energies(w["nu_star"], pd)
    assert snap.psi / snap.phi == rep.nu_star
    snap = energies(w["nu_sup"], pd)
    assert snap.G / snap.F == rep.nu_sup
    lam, witness, u = rep.nu_star, w["nu_star"], w["nu_star"]
    for _ in range(60):
        u = 0.5 * u
        snap = energies(u, pd)
        if snap.phi <= 0.0 or not np.isfinite(snap.psi / snap.phi) or snap.psi / snap.phi >= lam:
            break
        lam, witness = snap.psi / snap.phi, u
    assert rep.lambda_star == lam < rep.nu_star
    assert w["lambda_star"].tobytes() == witness.tobytes()


def test_make_problem_names_an_exponent_that_is_not_a_field():
    grid = interval_grid(9)
    m = grid.cell_shape
    p, q, s = (constant_exponent(v, m) for v in (3.0, 2.0, 400.0))
    with pytest.raises(TypeError, match="exponent q must be an ExponentField"):
        make_problem(grid, p, np.full(m, 2.0), s, np.ones(m))
    with pytest.raises(TypeError, match="exponent s must be an ExponentField"):
        make_problem(grid, p, q, 400.0, np.ones(m))


SURVEY_OBJECTIVES = (fn.PSI_PHI, fn.G_F, fn.PSI_PHI_Q_P)


@st.composite
def lockstep_cases(draw):
    """A small 1D or 2D problem with variable exponents and 1-5 random starts on its sphere.

    Each start draws its survey objective: psi/phi, G/F or psi/phi with q = p.
    """
    dim = draw(st.sampled_from([1, 2]))
    extents = tuple(draw(st.integers(5, 33 if dim == 1 else 11)) for _ in range(dim))
    grid = StructuredGrid(extents, tuple(1.0 / (n - 1) for n in extents))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = grid.cell_shape
    pd = make_pd(grid, rng.uniform(2.2, 3.2, cells), rng.uniform(1.3, 2.0, cells), C_embed=1.0)
    k = draw(st.integers(1, 5))
    u = rng.standard_normal((k,) + extents)
    u[:, grid.boundary_mask] = 0.0
    alpha = 10.0 ** draw(st.floats(-1.0, 1.0))
    u = fn._column(fn._Point(u, pd).sphere_scale(alpha), grid) * u
    tags = np.array([[draw(st.sampled_from(SURVEY_OBJECTIVES))] for _ in range(k)])
    return pd, alpha, u, tags, draw(st.integers(1, 40))


@given(lockstep_cases())
@settings(max_examples=30, deadline=None)
def test_lockstep_rows_equal_their_single_descents_bitwise(case):
    """Each row of a mixed k-row survey descent is bit for bit its objective's descent alone."""
    pd, alpha, u, tags, iters = case
    admit, direction = fn._sphere_quotients(pd, alpha)

    def descend(u, tags):
        return fn._sobolev_descent(admit(None, u, tags), admit, direction, pd.grid, iters, 1e-10)

    stacked = descend(u, tags)
    for i in range(len(u)):
        alone = descend(u[i : i + 1], tags[i : i + 1])
        for got, ref in zip(stacked, alone):
            assert got[i].tobytes() == ref[0].tobytes()


def test_problem_data_is_frozen():
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pd.C_H = 2.0


def test_line_search_trial_order_and_hits(monkeypatch):
    """A search tries step/2^k for k = 0...59, and ends at its first hit or after 60 misses.

    Both rows start at u = 0 with value 1 and step along pdir = 1, so a
    trial of length s from u is u - s.  The start's first hook gives the
    first lengths.  Row 0 (first length 1) never lowers its value.  Row 1
    (first length 4) hits 0 at its tenth trial,
    s = hit = 4/2^9; its second search starts at the fallback 1.5 * hit and
    cannot go lower.
    """
    hit, tried, ticks = 4.0 / 2**9, {0: [], 1: []}, []

    def admit(u, raw, ctx):
        ticks.append(len(raw))
        for row, trial in zip(ctx.tolist(), raw[:, 1].tolist()):
            tried[row].append(trial)
        value = np.where((ctx == 1) & (raw[:, 1] >= -hit), 0.0, 2.0)
        return raw, value, np.ones(len(raw)), ctx

    def direction(u, ctx):
        return np.ones_like(u), None, np.ones(len(u))

    monkeypatch.setattr(fn, "riesz_solve", lambda d, grid, weight: d)
    start = (
        np.zeros((2, 3)), np.ones(2), np.ones(2), np.array([0, 1]), lambda u, pdir: [1.0, 4.0]
    )
    u, val, ctx, used = fn._sobolev_descent(start, admit, direction, interval_grid(3), 5, 1e-3)
    assert tried[0] == [0.0 - 0.5**k for k in range(60)]
    assert tried[1] == [0.0 - 4.0 * 0.5**k for k in range(10)] + [
        -hit - 1.5 * hit * 0.5**k for k in range(60)
    ]
    # row 0 leaves after its 60 misses with its start; row 1 after 10 + 60 trials
    assert ticks == [2] * 60 + [1] * 10
    assert used.tolist() == [1, 2] and ctx.tolist() == [0, 1]
    assert np.array_equal(u, [np.zeros(3), np.full(3, -hit)]) and val.tolist() == [1.0, 0.0]


def test_first_hook_sees_the_rows_that_search(monkeypatch):
    """Row 0 starts at its stop residual and leaves before any search: the first hook is
    called once, on the one row left, and its length is that row's first trial."""
    hooked, tried = [], []

    def first(u, pdir):
        hooked.append(u.shape)
        return np.full(len(u), 4.0)

    def admit(u, raw, ctx):
        tried.append(raw[:, 1].tolist())
        return raw, np.zeros(len(raw)), np.ones(len(raw)), ctx

    def direction(u, ctx):
        return np.ones_like(u), None, np.where(ctx == 0, 0.0, 1.0)

    monkeypatch.setattr(fn, "riesz_solve", lambda d, grid, weight: d)
    start = (np.zeros((2, 3)), np.ones(2), np.ones(2), np.array([0, 1]), first)
    _, val, _, used = fn._sobolev_descent(start, admit, direction, interval_grid(3), 1, 1e-3)
    assert hooked == [(1, 3)] and tried == [[-4.0]]
    assert used.tolist() == [0, 1] and val.tolist() == [1.0, 0.0]


def test_terminal_phase_accepts_only_residual_decrease(monkeypatch):
    """On an objective flat to rounding the residual decides, and Armijo stays off after."""
    eps = np.finfo(float).eps
    # (value, residual) of each admitted trial, in trial order; the start has 1.0 and 1.0
    script = [
        (1.0 + 2 * eps, 2.0),  # floor trial, residual rises: rejected
        (1.0 - 3 * eps, 0.5),  # floor trial (Armijo fails), residual falls: accepted
        (0.0, 0.1),  # a real decrease, but the terminal phase is on: rejected unevaluated
        (1.0 + 4 * eps, 0.6),  # floor trial, residual rises: rejected
        (1.0 - eps, 0.25),  # floor trial, residual falls: accepted
    ]
    # one lockstep row; the start's script index is -1
    evaluated, stepped, admitted_at = [], [], []

    def admit(u, raw, ctx):
        admitted_at.append(ctx.item())  # the context of the row's current point
        k = admit.count
        admit.count += 1
        return raw, np.array([script[k][0]]), np.ones(1), np.array([k])

    admit.count = 0

    def direction(u, k):
        k = None if k.item() < 0 else k.item()
        evaluated.append(k)
        return np.ones_like(u), np.ones_like(u), np.array([1.0 if k is None else script[k][1]])

    def step(d, grid, pdir):
        stepped.append(len(evaluated))
        return pdir

    monkeypatch.setattr(fn, "riesz_solve", step)
    start = (np.full((1, 3), 10.0), np.ones(1), np.ones(1), np.array([-1]))
    u, val, ctx, used = fn._sobolev_descent(start, admit, direction, interval_grid(3), 2, 1e-3)
    assert used[0] == 2 and ctx[0] == 4 and val[0] == 1.0 - eps
    assert evaluated == [None, 0, 1, 3, 4]
    assert admitted_at == [-1, -1, 1, 1, 1]
    # steps are built only at the points that take one: the start and trial 1
    assert stepped == [1, 3]
    # hit at s = 0.5; the next search starts at the fallback 1.5 * 0.5 and hits at 0.75 / 4
    assert np.array_equal(u[0], np.full(3, 10.0 - 0.5 - 0.75 / 4))


@pytest.mark.parametrize(
    "shrink, ticks, stand_ins", [((1.0,), 2, 0), ((1.0, 1.0), 2, 0), ((1.0, 0.5), 4, 3)]
)
def test_zero_trials_are_misses_that_admit_never_sees(monkeypatch, shrink, ticks, stand_ins):
    """A zero trial is a miss: u stands in for it, and a tick of zero trials admits nothing.

    The objective is |u|^2 / 2 with gradient u, and row i steps along
    shrink[i] * u (its context), so with shrink 1 the first trial of every
    search, s = 1 (the start, then Barzilai-Borwein), is exactly zero.
    """
    k = len(shrink)
    u0 = np.array([[0.0, 1.0, -2.0, 0.0], [0.0, 3.0, 0.5, 0.0]])[:k]
    seen = []

    def value(u):
        return 0.5 * np.sum(u * u, axis=1)

    def admit(u, raw, ctx):
        seen.append((u, raw))
        return raw, value(raw), value(raw), ctx

    def direction(u, ctx):
        return u, ctx, np.ones(len(u))

    def step(d, grid, shrink):
        return shrink * d

    monkeypatch.setattr(fn, "riesz_solve", step)
    start = (u0, value(u0), value(u0), np.array(shrink)[:, None])
    u, val, _, used = fn._sobolev_descent(start, admit, direction, interval_grid(4), 2, 1e-3)
    assert len(seen) == ticks  # for k = 2 alike, the two all-zero ticks make no admit call
    assert all(raw.reshape(len(raw), -1).any(axis=1).all() for _, raw in seen)
    # with shrink 1/2 the rows fall out of step, and a row's own point stands in for its zero trial
    assert sum(np.array_equal(a, r) for at, raw in seen for a, r in zip(at, raw)) == stand_ins
    # each search: the zero trial s = 1 misses, then s = 1/2 is accepted
    assert np.array_equal(u, 0.25 * u0) and np.array_equal(val, value(0.25 * u0))
    assert used.tolist() == [2] * k


@st.composite
def ray_cases(draw):
    """A 1D or 2D grid with 4-40 nodes per axis, variable q < p, a point on G = alpha and h."""
    dim = draw(st.sampled_from([1, 2]))
    extents = tuple(draw(st.integers(4, 40 if dim == 1 else 16)) for _ in range(dim))
    spacing = tuple(10.0 ** draw(st.floats(-1.0, 0.5)) for _ in range(dim))
    grid = StructuredGrid(extents, spacing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = grid.cell_shape
    pd = make_pd(grid, rng.uniform(2.2, 3.2, cells), rng.uniform(1.3, 2.0, cells), C_embed=1.0)
    alpha = 10.0 ** draw(st.floats(-1.0, 1.0))
    u, h = interior_noise(grid, rng), interior_noise(grid, rng)
    u = fn._Point(u[None], pd).sphere_scale(alpha)[0] * u
    return pd, alpha, u, h * (np.linalg.norm(u) / np.linalg.norm(h))


def sphere_max_callbacks(pd, alpha):
    """admit and direction of `solve_sphere_max` at level alpha, caught from a one-search solve."""
    caught = []

    def spy(start, admit, direction, *rest):
        caught.append((admit, direction))
        return descend(start, admit, direction, *rest)

    descend = solvers._sobolev_descent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_sobolev_descent", spy)
        solvers.solve_sphere_max(pd, alpha, solvers.SolverConfig(max_iters=1))
    return caught[0]


@given(ray_cases())
@settings(max_examples=60, deadline=None)
def test_sphere_directions_are_ray_gradients(case):
    """Each sphere descent steps along the gradient of its ray function u -> Q(t_alpha(u) u).

    For sphere maximization's -F and the survey's three quotients, the
    direction at u on G = alpha is orthogonal to u, matches a central
    difference of the ray function along h, and its Riesz step in the
    descent's metric is a descent step.
    """
    pd, alpha, u, h = case
    grid = pd.grid
    survey = fn._sphere_quotients(pd, alpha)
    objectives = [(sphere_max_callbacks(pd, alpha), None)]
    objectives += [(survey, np.array([[tag]])) for tag in SURVEY_OBJECTIVES]
    eps = 1e-5

    for (admit, direction), tags in objectives:
        ctx = admit(None, u[None], tags)[3]
        d, weight, _ = direction(u[None], ctx)
        d = d[0]
        assert np.all(d[grid.boundary_mask] == 0.0)
        assert abs(np.vdot(d, u)) <= 1e-10 * np.linalg.norm(d) * np.linalg.norm(u)
        up, down = (admit(None, (u + s * eps * h)[None], tags)[1][0] for s in (1.0, -1.0))
        slope = np.vdot(d, h)
        assert abs((up - down) / (2.0 * eps) - slope) <= 1e-5 * np.linalg.norm(d) * np.linalg.norm(h)
        # in 1D and 2D the step's metric is the floored Hessian weight of G at u
        assert np.allclose(weight[0], reference_metric_weight(u, pd), rtol=1e-14, atol=0.0)
        assert np.vdot(d, riesz_solve(d[None], grid, weight)[0]) > 0.0


def strong_survey(monkeypatch, n):
    """The criterion-06 "strong" survey at n nodes.

    Returns the report, each row's searches and final residual, and the
    lockstep ticks (one admit call each).
    """
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    searches, residuals, ticks = [], [], []
    descend = fn._sobolev_descent

    def counting(start, admit, direction, *rest):
        def admit_counted(*args):
            ticks.append(1)
            return admit(*args)

        out = descend(start, admit_counted, direction, *rest)
        searches.extend(out[3].tolist())  # one count per row of the lockstep stack
        residuals.extend(direction(out[0], out[2])[2].tolist())  # rows are batch-independent
        return out

    monkeypatch.setattr(fn, "_sobolev_descent", counting)
    return rayleigh_extrema(pd, 1.0), searches, residuals, len(ticks)


def test_survey_descents_stop_before_their_budget(monkeypatch):
    """Every descent of the criterion-06 "strong" survey reaches its 1e-10 stop.

    From the first mode and smoothed noise (`_starts`) the 18 rows take 335
    searches in 23 ticks (1,156 in 97 ticks in the H^1_0 metric); from raw
    noise rows they took 402 searches in 28 ticks.
    """
    _, searches, residuals, ticks = strong_survey(monkeypatch, 129)
    assert len(searches) == len(residuals) == 18
    assert max(residuals) <= 1e-10
    assert sum(searches) <= 350 and ticks <= 25


def test_survey_rows_reach_their_minima_at_large_p(monkeypatch):
    """At p = 8, q = 6 every row of the 513-node survey ends at its objective's minimum.

    From raw noise one psi/phi row ended 14.7 times above the pool minimum
    and five mu rows stopped after one search, up to 1e21 times above theirs.
    """
    pd = make_pd(interval_grid(513, 1.0), 8.0, 6.0, C_embed=1.0)
    stacks = spy_stacks(monkeypatch)
    rep = rayleigh_extrema(pd, 1.0)
    ((_, value, _, searches),) = stacks
    groups = value.reshape(3, rep.trials)  # psi/phi, G/F and mu rows
    assert np.all(groups <= groups.min(axis=1, keepdims=True) * (1.0 + 1e-8))
    assert searches.max() < 1000
    assert rep.mu_star == groups[2].min()


# the 129-node criterion-06 "strong" survey values (nu*, nu_sup, mu*), the ladder's reference
STRONG_129 = (12.301338001515322, 6.96746984491418, 27.2344193451219)


# the survey's lockstep ticks per rung: 23, 32, 146, 124 and 192 (23, 32, 187, 184 and
# 252 while a search tried 60 doublings after its 60 halvings)
LADDER_TICKS = {129: 25, 257: 35, 513: 155, 1025: 130, 2049: 200}


@pytest.mark.parametrize("n", [129, 257, 513, 1025, 2049])
def test_survey_mesh_ladder(monkeypatch, n):
    """Every survey descent stays under its search and tick budgets, and the values agree
    across meshes.

    nu*, nu_sup and mu* move by at most 1.8e-4 relative from 129 to 2049
    nodes (nu* by 6.5e-5 from 129 to 257), a fifth of the 1e-3 bound.
    """
    rep, searches, _, ticks = strong_survey(monkeypatch, n)
    assert len(searches) == 18
    for got, ref in zip((rep.nu_star, rep.nu_sup, rep.mu_star), STRONG_129):
        assert got == pytest.approx(ref, rel=1e-3)
    assert max(searches) < 1000 and ticks <= LADDER_TICKS[n]


def reference_power_weight(gm2, p):
    """|grad u|^(p-2) per cell from |grad u|^2, smoothed where p < 2, written out cell by cell."""
    w = np.empty_like(gm2)
    for c in np.ndindex(gm2.shape):
        gm = np.sqrt(gm2[c])
        w[c] = (gm2[c] + 1e-24) ** (0.5 * (p[c] - 2.0)) if p[c] < 2.0 else gm ** (p[c] - 2.0)
    return w


def reference_metric_weight(u, pd):
    """(p - 1)|grad u|^(p-2) of a point, floored at a tenth of its largest value."""
    g = gradient(u, pd.grid)
    w = (pd.p.values - 1.0) * reference_power_weight(np.sum(g * g, axis=-1), pd.p.values)
    return np.maximum(w, 0.1 * np.max(w))


def reference_point(u, pd):
    """G, F, psi, phi and the grad_G/F/psi/phi formulas, each written out on its own."""
    grid, p, q, V = pd.grid, pd.p.values, pd.q.values, pd.V
    vol, mask = grid.cell_volume, grid.boundary_mask
    g = gradient(u, grid)
    gm2 = np.sum(g * g, axis=-1)
    gm = np.sqrt(gm2)
    ub = cell_values(u, grid)
    grad_pow, mass_pow = gm**p, V * np.abs(ub) ** q
    energy = {
        "G": np.sum(grad_pow / p) * vol,
        "F": np.sum(mass_pow / q) * vol,
        "psi": np.sum(grad_pow) * vol,
        "phi": np.sum(mass_pow) * vol,
    }
    w = reference_power_weight(gm2, p)
    mw = V * np.abs(ub) ** (q - 1.0) * np.sign(ub)
    nodal = {
        "grad_G": gradient_adjoint(w[..., None] * g * vol, grid),
        "grad_psi": gradient_adjoint((w * p)[..., None] * g * vol, grid),
        "grad_F": cell_values_adjoint(mw * vol, grid),
        "grad_phi": cell_values_adjoint(mw * q * vol, grid),
    }
    for out in nodal.values():
        out[mask] = 0.0
    return energy, nodal


@st.composite
def point_cases(draw):
    """A 1D or 2D grid with 3-40 nodes per axis, exponents with p < 2 cells, u and a level."""
    dim = draw(st.sampled_from([1, 2]))
    extents = tuple(draw(st.integers(3, 40)) for _ in range(dim))
    spacing = tuple(10.0 ** draw(st.floats(-1.0, 0.5)) for _ in range(dim))
    grid = StructuredGrid(extents, spacing)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = grid.cell_shape
    p = rng.uniform(1.3, 3.5, cells)
    p[rng.random(cells) < 0.3] = 2.0  # the boundary case of the smoothing branch
    pd = make_pd(grid, p, rng.uniform(1.2, 3.5, cells), V=rng.uniform(0.5, 2.0, cells), C_embed=1.0)
    u = interior_noise(grid, rng)
    if draw(st.booleans()):  # a flat patch: cells with zero gradient
        patch = tuple(slice(1, 1 + n // 2) for n in extents)
        u[patch] = u[patch][(0,) * dim]
    return pd, u, 10.0 ** draw(st.floats(-2.0, 2.0))


def planar_point_case():
    """A 7x6 grid with p < 2, p = 2 and p > 2 cells: the 2D case of every run."""
    grid = StructuredGrid((7, 6), (0.3, 0.5))
    rng = np.random.default_rng(5)
    cells = grid.cell_shape
    p = rng.uniform(1.3, 3.5, cells)
    p[0] = 2.0
    pd = make_pd(grid, p, rng.uniform(1.2, 3.5, cells), V=rng.uniform(0.5, 2.0, cells), C_embed=1.0)
    return pd, interior_noise(grid, rng), 0.7


@given(point_cases())
@example(planar_point_case())
@settings(max_examples=80, deadline=None)
def test_point_evaluation_matches_the_term_formulas(case):
    pd, u, alpha = case
    energy, nodal = reference_point(u, pd)
    pt = fn._Point(u, pd)
    snap = pt.energies()
    for name, ref in energy.items():
        assert getattr(snap, name) == pytest.approx(ref, rel=1e-12)
        assert getattr(energies(u, pd), name) == pytest.approx(ref, rel=1e-12)
    got = {
        "grad_G": pt.grad_term(),
        "grad_psi": pt.grad_term(pd.p.values),
        "grad_F": pt.mass_term(),
        "grad_phi": pt.mass_term(pd.q.values),
    }
    public = {"grad_G": grad_G, "grad_psi": grad_psi, "grad_F": grad_F, "grad_phi": grad_phi}
    for name, ref in nodal.items():
        for value in (got[name], public[name](u, pd)):
            assert np.linalg.norm(value - ref) <= 1e-12 * np.linalg.norm(ref)
    # the sphere point t*u from the profiles of u, as the survey's descents take it
    stacked = fn._Point(u[None], pd)
    t = stacked.sphere_scale(alpha)
    from_profiles = stacked.ray(t) + stacked.ray(t, pd.p.values, pd.q.values)
    for at_none, at_one in zip(stacked.ray(), stacked.ray(np.ones(1))):  # t None is t = 1
        assert at_none.tobytes() == at_one.tobytes()
    ones = np.ones_like(pd.p.values)
    for unit, plain in zip(stacked.ray(t, ones, ones), stacked.ray(t)):  # a 1.0 scale is exact
        assert unit.tobytes() == plain.tobytes()
    direct = energies(t[0] * u, pd)
    for name, value in zip(("G", "F", "psi", "phi"), from_profiles):
        assert value[0] == pytest.approx(getattr(direct, name), rel=1e-12)
    # the energies of u are its ray at t = 1, bit for bit
    p, q = pd.p.values, pd.q.values
    at_one = stacked.ray(np.ones(1)) + stacked.ray(np.ones(1), p, q)[::-1]
    assert [x[0] for x in at_one] == [snap.G, snap.F, snap.phi, snap.psi]
    # the survey's ball probes 2^-k u, k = 1...60, as one ray of u
    ts = 0.5 ** np.arange(1.0, 61.0)
    probes = fn._Point(fn._column(ts, pd.grid) * u, pd).energy_rows()
    for ray, probe in zip(stacked.ray(ts) + stacked.ray(ts, p, q)[::-1], probes):
        np.testing.assert_allclose(ray, probe, rtol=1e-12, atol=0.0)


def one_free_node_case():
    """A 3-node grid: its one free node leaves the sphere no tangent direction, and on the
    q = p row the reference gradient is exactly 0."""
    grid = StructuredGrid((3,), (1.1030609219690861,))
    q = [3.1877039019186846, 3.4001756057793573]
    pd = make_pd(grid, 2.0, np.array(q), V=np.array([1.4116633824900164, 0.9295684689299148]),
                 C_embed=1.0)
    return pd, np.array([0.0, 0.3233172799043169, 0.0]), 1.0


@given(point_cases())
@example(one_free_node_case())
@settings(max_examples=60, deadline=None)
def test_survey_directions_match_the_term_formulas(case):
    """Each survey objective's quotient, ray direction and residual, against `reference_point`.

    One stack carries the three objectives as rows at the same point:
    psi/phi and G/F with the problem's exponents, and psi/phi with q = p.
    """
    pd, u, alpha = case
    admit, direction = fn._sphere_quotients(pd, alpha)
    tags = np.array([[tag] for tag in SURVEY_OBJECTIVES])
    # the three rows share u's sphere scale, so they stand at one point, u scaled onto G = alpha
    stack, val, _, snap = admit(None, np.stack([u, u, u]), tags, [0, 0, 0])
    u = stack[0]
    ray, weight, res = direction(stack, snap)
    for row in weight:  # the metric weight depends on p and u only: one for all three rows
        assert np.allclose(row, reference_metric_weight(u, pd), rtol=1e-14, atol=0.0)
    pd_p = dataclasses.replace(pd, q=pd.p)
    objectives = ((pd, "psi", "phi"), (pd, "G", "F"), (pd_p, "psi", "phi"))
    for i, (ref_pd, num, den) in enumerate(objectives):
        energy, nodal = reference_point(u, ref_pd)
        quotient = energy[num] / energy[den]
        assert val[i] == pytest.approx(quotient, rel=1e-12)
        grad = (nodal["grad_" + num] - quotient * nodal["grad_" + den]) / energy[den]
        gG = nodal["grad_G"]
        ref = grad - (np.vdot(grad, gG) / np.vdot(gG, gG)) * gG
        ref_ray = grad - (np.vdot(grad, u) / np.vdot(gG, u)) * gG
        # relative to grad's first term: grad itself is pure rounding where u is critical
        first = np.linalg.norm(nodal["grad_" + num]) / energy[den]
        assert np.linalg.norm(ray[i] - ref_ray) <= 1e-11 * first
        scale = np.linalg.norm(gG)
        assert abs(res[i] - np.linalg.norm(ref) / scale) <= 1e-11 * first / scale


def test_survey_validates_no_point_it_builds(monkeypatch):
    """The criterion-06 "strong" survey evaluates only functions it built, and validates none.

    Counted: `require_dirichlet` calls, which only the public functions
    make, against descent-direction evaluations (each evaluates one stack).
    """
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    calls = {"validate": 0, "direction": 0}

    def counted(fn_, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn_(*args, **kwargs)

        return wrapper

    quotients = fn._sphere_quotients

    def counting_quotients(pd_, alpha):
        admit, direction = quotients(pd_, alpha)
        return admit, counted(direction, "direction")

    monkeypatch.setattr(fn, "require_dirichlet", counted(fn.require_dirichlet, "validate"))
    monkeypatch.setattr(fn, "_sphere_quotients", counting_quotients)
    rayleigh_extrema(pd, 1.0)
    assert calls["direction"] > 0
    assert calls["validate"] == 0


def test_weighted_gradient_fields_reach_the_adjoint_planar(monkeypatch, rng):
    """The 2D weighted cell fields keep the component-planar order of `gradient`.

    `_Point.grad_term` and the embedding ascent multiply the cell gradient by
    per-cell weights before `gradient_adjoint`; each component plane must
    still be one contiguous array there, and the results stay those of the
    interleaved layout bit for bit.
    """
    grid = rectangle_grid((9, 11), (1.0, 1.3))
    m = grid.cell_shape
    pd = make_pd(grid, 1.6 + rng.random(m), 2.5 + rng.random(m), C_embed=1.0)
    u = interior_noise(grid, rng)
    seen = []

    def spy_adjoint(a, grid_):
        seen.append(all(a[..., k].flags.c_contiguous for k in range(grid_.dim)))
        return gradient_adjoint(a, grid_)

    monkeypatch.setattr(fn, "gradient_adjoint", spy_adjoint)
    gG, gpsi = grad_G(u, pd), grad_psi(u, pd)
    ratio, grad = fn._embedding_ratio_and_grad(u, pd, pd.target_exponent, pd.grid.cell_volume)
    assert seen == [True, True, True]

    def interleaved(u_, grid_):
        return np.ascontiguousarray(gradient(u_, grid_))

    monkeypatch.setattr(fn, "gradient", interleaved)
    seen.clear()
    assert np.array_equal(grad_G(u, pd), gG)
    assert np.array_equal(grad_psi(u, pd), gpsi)
    ratio_i, grad_i = fn._embedding_ratio_and_grad(u, pd, pd.target_exponent, pd.grid.cell_volume)
    assert ratio_i == ratio and np.array_equal(grad_i, grad)
    assert seen == [False, False, False]
