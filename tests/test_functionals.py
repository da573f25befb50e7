"""Energies, nodal gradients, window thresholds and quotient surveys."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vexspec.functionals as fn
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
from vexspec.functionals import grad_phi, grad_psi, is_sublinear, is_superlinear
from vexspec.mesh import (
    StructuredGrid,
    cell_values,
    cell_values_adjoint,
    gradient,
    gradient_adjoint,
    riesz_solve,
)
from vexspec.spaces import constant_exponent, exponent_field

from conftest import family_ball_problem_1d, make_pd


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
    lo = float(np.sum(pd.p.values**2 * fn._grad_profile(u, pd)))
    assert psi_pair == pytest.approx(lo, rel=1e-12)
    assert phi_pair == pytest.approx(
        float(np.sum(pd.q.values**2 * fn._mass_profile(u, pd))), rel=1e-12
    )


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
        e = np.zeros(grid.n_nodes)
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

    u = grid.zero_function()
    u[1:-1] = vecs[:, 0]
    assert residual(u, pd, vals[0]) < 1e-10


def test_residual_validation(rng):
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    with pytest.raises(ValueError, match="zero function"):
        residual(grid.zero_function(), pd, 1.0)
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
    for check in (energies, grad_G, lambda u, pd: residual(u, pd, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            check(nan, pd)
        with pytest.raises(ValueError, match="vanish"):
            check(edge, pd)


def test_energies_overflow_reporting():
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    u = grid.zero_function()
    u[4] = 1e300
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match="non-finite"):
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
    with pytest.raises(ValueError, match="shape"):
        make_problem(grid, constant_exponent(3.0, (4,)), q, s, np.ones(m))
    pd = make_pd(grid, 3.0, 2.0)
    # for constant s the two conjugate reciprocals sum to one exactly
    assert pd.C_H == pytest.approx(1.0, rel=1e-12)
    assert np.isfinite(pd.C_embed) and pd.C_embed > 0
    assert pd.V_norm > 0
    assert is_sublinear(pd) and not is_superlinear(pd)
    pd_super = make_pd(grid, 2.0, 4.0)
    assert is_superlinear(pd_super) and not is_sublinear(pd_super)


def test_threshold_closed_form_with_unit_constants():
    grid = interval_grid(129, 1.0)
    pd = make_pd(grid, 3.0, 2.0, C_H=1.0, C_embed=1.0, V_norm=1.0)
    got = lambda_alpha(pd, 1.0)
    assert abs(got - 3.0 ** (-2.0 / 3.0)) <= 1e-12
    info = lambda_alpha_detail(pd, 1.0)
    assert info.branch == "alpha_p_sup >= 1"
    assert lambda_alpha_detail(pd, 0.01).branch == "alpha_p_sup < 1"
    with pytest.raises(ValueError, match="positive"):
        lambda_alpha(pd, 0.0)


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
    with pytest.raises(ValueError, match="positive"):
        window_alpha(sub, 0.0)
    boundary, _ = family_ball_problem_1d(33)
    with pytest.raises(ValueError, match="regime gap"):
        window_alpha(boundary, 0.1)


def test_embedding_constant_linear_oracle():
    """For the p = 2 norm pair the sharp constant is 1/pi (first mode)."""
    grid = interval_grid(65, 1.0)
    pd = make_pd(grid, 2.0, 2.0, C_embed=1.0)
    est = embedding_constant(pd, trials=2, iters=200)
    assert est == pytest.approx(1.0 / np.pi, rel=0.02)
    with pytest.raises(ValueError, match="positive"):
        embedding_constant(pd, trials=0)


@pytest.mark.parametrize("n", [129, 257, 513, 1025])
@pytest.mark.parametrize("instance", ["p3q2", "strong"])
def test_embedding_ascent_is_mesh_independent(monkeypatch, instance, n):
    """Every H^1_0 ascent trial stops on its own within 150 searches, and all agree.

    A trial opens with the ratio evaluation at its start, the only one made
    outside a line search; the largest ratio a trial evaluates is the one it
    ends on, because the search accepts the first strict increase.
    """
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    p, q = (3.0, 2.0) if instance == "p3q2" else (2.6 + 0.8 * x, 1.5 + 0.7 * x * x)
    pd = make_pd(grid, p, q, C_embed=1.0)
    trials, searching = [], []
    ratio_and_grad, line_search = fn._embedding_ratio_and_grad, fn._line_search

    def spy_ratio(*args):
        ratio, grad = ratio_and_grad(*args)
        if not searching:
            trials.append({"searches": 0, "ratio": ratio})
        trials[-1]["ratio"] = max(trials[-1]["ratio"], ratio)
        return ratio, grad

    def spy_search(trial, step):
        trials[-1]["searches"] += 1
        searching.append(True)
        try:
            return line_search(trial, step)
        finally:
            searching.pop()

    monkeypatch.setattr(fn, "_embedding_ratio_and_grad", spy_ratio)
    monkeypatch.setattr(fn, "_line_search", spy_search)
    est = embedding_constant(pd, trials=4, iters=250, seed=0)
    assert len(trials) == 4
    assert max(t["searches"] for t in trials) <= 150
    ratios = [t["ratio"] for t in trials]
    assert max(ratios) == est
    assert max(ratios) - min(ratios) <= 1e-9 * est
    if instance == "p3q2" and n == 1025:
        assert est >= 0.3050


def test_rayleigh_survey_structure():
    grid = interval_grid(49)
    pd = make_pd(grid, 3.0, 2.0)
    rep = rayleigh_extrema(pd, 1.0, trials=3, iters=150, seed=5)
    assert rep.trials == 3
    assert set(rep.witnesses) == {"nu_star", "nu_sup", "lambda_star", "mu_star"}
    assert rep.witnesses["nu_star"].shape == grid.shape
    # weight bounds tie the two sphere quotients together
    assert (pd.q.lo / pd.p.hi) * rep.nu_star <= rep.nu_sup * (1 + 1e-12)
    assert rep.nu_sup <= (pd.q.hi / pd.p.lo) * rep.nu_star * (1 + 1e-12)
    # amplitude decay drives the ball infimum toward zero in this regime
    assert rep.lambda_star <= 1e-12 * rep.nu_star
    assert rep.mu_star > 0
    rep2 = rayleigh_extrema(pd, 1.0, trials=3, iters=150, seed=5)
    assert rep2.nu_star == rep.nu_star and rep2.mu_star == rep.mu_star
    with pytest.raises(ValueError, match="positive"):
        rayleigh_extrema(pd, 1.0, trials=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"iters": 0}, "iters must be at least 1"),
        ({"iters": -5}, "iters must be at least 1"),
        ({"alpha": float("nan")}, "alpha must be a finite positive level"),
        ({"alpha": float("inf")}, "alpha must be a finite positive level"),
        ({"alpha": 0.0}, "alpha must be a finite positive level"),
    ],
    ids=["iters-zero", "iters-negative", "alpha-nan", "alpha-inf", "alpha-zero"],
)
def test_rayleigh_survey_rejects_degenerate_settings(kwargs, message):
    """iters <= 0 once returned the undescended starts; bad levels failed far from the cause."""
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


def test_make_problem_names_an_exponent_that_is_not_a_field():
    grid = interval_grid(9)
    m = grid.cell_shape
    p, q, s = (constant_exponent(v, m) for v in (3.0, 2.0, 400.0))
    with pytest.raises(TypeError, match="exponent q must be an ExponentField"):
        make_problem(grid, p, np.full(m, 2.0), s, np.ones(m))
    with pytest.raises(TypeError, match="exponent s must be an ExponentField"):
        make_problem(grid, p, q, 400.0, np.ones(m))


@st.composite
def lockstep_cases(draw):
    """A small 1D or 2D problem with variable exponents and 1-5 random starts on its sphere."""
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
    u = fn._column(fn._sphere_scale(u, pd, alpha), grid) * u
    return pd, alpha, u, draw(st.booleans()), draw(st.integers(1, 40))


@given(lockstep_cases())
@settings(max_examples=30, deadline=None)
def test_lockstep_rows_equal_their_single_descents_bitwise(case):
    """Each row of a k-row `_sphere_descent` is bit for bit the descent of that start alone."""
    pd, alpha, u, moduli, iters = case
    value_at, direction = fn._sphere_quotient(pd, moduli)
    stacked = fn._sphere_descent(u, pd, alpha, value_at, direction, iters, 1e-10)
    for i in range(len(u)):
        alone = fn._sphere_descent(u[i : i + 1], pd, alpha, value_at, direction, iters, 1e-10)
        for got, ref in zip(stacked, alone):
            assert got[i].tobytes() == ref[0].tobytes()


def test_problem_data_is_frozen():
    grid = interval_grid(9)
    pd = make_pd(grid, 3.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pd.C_H = 2.0


def test_line_search_trial_order_and_hits():
    def search(hit_index):
        tried = []

        def trial(s):
            tried.append(s)
            return "hit" if len(tried) == hit_index else None

        return fn._line_search(trial, 1.0), tried

    (hit, s), tried = search(4)
    assert hit == "hit" and s == 0.125 and tried == [1.0, 0.5, 0.25, 0.125]
    (hit, s), tried = search(62)
    assert hit == "hit" and s == 4.0
    assert tried[:60] == [0.5**k for k in range(60)] and tried[60:] == [2.0, 4.0]
    (hit, s), tried = search(0)
    assert hit is None and len(tried) == 120
    assert tried[60:] == [2.0 ** (k + 1) for k in range(60)]
    # the lockstep descents draw each row's trials from the same sequence
    assert list(fn._trial_lengths(1.0)) == tried


def test_terminal_phase_accepts_only_residual_decrease():
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
    # one lockstep row runs as plain arrays; the start's script index is -1
    evaluated, stepped = [], []

    def admit(u, raw):
        k = admit.count
        admit.count += 1
        return raw, script[k][0], 1.0, k

    admit.count = 0

    def direction(u, k):
        k = None if k < 0 else int(k)
        evaluated.append(k)
        return np.ones_like(u), np.ones_like(u), 1.0 if k is None else script[k][1]

    def precondition(d, pdir):
        stepped.append(len(evaluated))
        return pdir

    start = (np.full((1, 3), 10.0), [1.0], [1.0], np.array([-1]))
    u, val, ctx, used = fn._sobolev_descent(start, admit, direction, precondition, 2, 1e-3)
    assert used[0] == 2 and ctx[0] == 4 and val[0] == 1.0 - eps
    assert evaluated == [None, 0, 1, 3, 4]
    # steps are built only at the points that take one: the start and trial 1
    assert stepped == [1, 3]
    # hit at s = 0.5; the next search starts at the fallback 1.5 * 0.5 and hits at 0.75 / 4
    assert np.array_equal(u[0], np.full(3, 10.0 - 0.5 - 0.75 / 4))


@st.composite
def tangent_cases(draw):
    """A 1D or 2D grid with 3-40 nodes per axis, an exponent pair, a point u and a direction d."""
    dim = draw(st.sampled_from([1, 2]))
    extents = tuple(draw(st.integers(3, 40)) for _ in range(dim))
    spacing = tuple(10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    grid = StructuredGrid(extents, spacing)
    p = draw(st.floats(1.5, 4.0))
    pd = make_pd(grid, p, 0.9 * p, C_embed=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, d = rng.standard_normal((2,) + extents)
    u[grid.boundary_mask] = 0.0
    d[grid.boundary_mask] = 0.0
    return pd, u, d


@given(tangent_cases())
@settings(max_examples=80, deadline=None)
def test_tangent_step_is_a_reflection_equivariant_descent_tangent(case):
    pd, u, d = case
    grid = pd.grid
    gG = grad_G(u, pd)
    pdir = fn._tangent_step(d, gG, grid)
    assert np.all(pdir[grid.boundary_mask] == 0.0)
    if int(np.sum(~grid.boundary_mask)) == 1:
        # one interior node: the tangent space is {0}
        assert np.linalg.norm(pdir) <= 1e-12 * np.linalg.norm(riesz_solve(d, grid))
    else:
        scale = np.linalg.norm(gG) * np.linalg.norm(pdir)
        assert abs(np.vdot(gG, pdir)) <= 1e-12 * scale
        assert np.vdot(d, pdir) >= 0.0
    # parity classes survive the step: reflections act on pdir bit for bit
    for axis in range(grid.dim):
        u_r, d_r = np.flip(u, axis), np.flip(d, axis)
        reflected = fn._tangent_step(d_r, grad_G(u_r, pd), grid)
        assert np.array_equal(reflected, np.flip(pdir, axis))
    assert np.array_equal(fn._tangent_step(-d, gG, grid), -pdir)


def test_survey_descents_stop_before_their_budget(monkeypatch):
    """Every descent of the criterion-06 "strong" survey reaches its 1e-10 stop."""
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    searches = []
    descend = fn._sphere_descent

    def counting(*args):
        out = descend(*args)
        searches.extend(out[3].tolist())  # one count per row of the lockstep stack
        return out

    monkeypatch.setattr(fn, "_sphere_descent", counting)
    rayleigh_extrema(pd, 1.0)
    assert len(searches) == 18
    assert max(searches) < 1000


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
    w = np.empty_like(gm)
    for c in np.ndindex(gm.shape):
        w[c] = (gm2[c] + 1e-24) ** (0.5 * (p[c] - 2.0)) if p[c] < 2.0 else gm[c] ** (p[c] - 2.0)
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


@given(point_cases())
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
    wg = fn._grad_profile(u, pd)
    t = fn._profile_scale(wg, pd, alpha)
    from_profiles = fn._profile_energies(wg, fn._mass_profile(u, pd), t, pd)
    direct = energies(t * u, pd)
    for name, value in zip(("G", "F", "psi", "phi"), from_profiles):
        assert value == pytest.approx(getattr(direct, name), rel=1e-12)


def test_survey_validates_once_per_point(monkeypatch):
    """The criterion-06 "strong" survey validates each point it evaluates once.

    Counted: `require_dirichlet` calls, against descent-direction evaluations
    (each evaluates one point) plus `energies` calls (the pool members and the
    amplitude probes of the ball infimum).
    """
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    pd = make_pd(grid, 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, C_embed=1.0)
    calls = {"validate": 0, "direction": 0, "energies": 0}

    def counted(fn_, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn_(*args, **kwargs)

        return wrapper

    quotient = fn._sphere_quotient

    def counting_quotient(pd_k, moduli):
        value_at, direction = quotient(pd_k, moduli)
        return value_at, counted(direction, "direction")

    monkeypatch.setattr(fn, "require_dirichlet", counted(fn.require_dirichlet, "validate"))
    monkeypatch.setattr(fn, "energies", counted(fn.energies, "energies"))
    monkeypatch.setattr(fn, "_sphere_quotient", counting_quotient)
    rayleigh_extrema(pd, 1.0)
    assert calls["energies"] >= 12  # one per pool member at least
    assert calls["validate"] <= calls["direction"] + calls["energies"]


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
    ratio, grad = fn._embedding_ratio_and_grad(u, pd, pd.target_exponent)
    assert seen == [True, True, True]

    def interleaved(u_, grid_):
        return np.ascontiguousarray(gradient(u_, grid_))

    monkeypatch.setattr(fn, "gradient", interleaved)
    seen.clear()
    assert np.array_equal(grad_G(u, pd), gG)
    assert np.array_equal(grad_psi(u, pd), gpsi)
    ratio_i, grad_i = fn._embedding_ratio_and_grad(u, pd, pd.target_exponent)
    assert ratio_i == ratio and np.array_equal(grad_i, grad)
    assert seen == [False, False, False]
