"""Acceptance battery: one test per criterion, one printed line each.

Every criterion line reports pass/fail and the measured runtime; tolerances
and budgets are stated inline next to the checks they guard.
"""

import json
import time

import numpy as np

from vexspec import (
    SolverConfig,
    alpha_independent_threshold,
    conjugate,
    constant_exponent,
    eigenfamily,
    embedding_constant,
    energies,
    exponent_field,
    grad_F,
    grad_G,
    holder_constant,
    interval_grid,
    lambda_alpha,
    luxemburg_norm,
    modular,
    rayleigh_extrema,
    rescale_constant_exponent,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
    window_alpha,
)
from vexspec.cli import run as cli_run

from conftest import family_ball_problem, family_ball_problem_1d, family_pass_problem, make_pd


def report_line(capsys, num, name, ok, elapsed, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num:02d} {name:<24s} {status}  {elapsed:6.1f}s  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_norm_calculus(capsys):
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    slack = 1e-9
    failures = []
    for k in range(1000):
        if rng.random() < 0.5:
            shape = (int(rng.integers(4, 64)),)
        else:
            shape = (int(rng.integers(2, 16)), int(rng.integers(2, 16)))
        vol = float(10.0 ** rng.uniform(-3, 0))
        amp = float(10.0 ** rng.uniform(-2, 2))
        u = amp * rng.standard_normal(shape)
        constant = rng.random() < 0.3
        if constant:
            p = constant_exponent(float(rng.uniform(1.1, 4.0)), shape)
        else:
            p = exponent_field(rng.uniform(1.1, 2.2) + rng.uniform(0.0, 1.8) * rng.random(shape))

        r = modular(u, p, vol)
        norm = luxemburg_norm(u, p, vol).norm
        ok = True
        if r < 1.0 - slack:
            ok &= norm <= 1.0 + slack
        if r > 1.0 + slack:
            ok &= norm >= 1.0 - slack
        if norm > 0.0:
            rn = modular(u / norm, p, vol)
            ok &= rn <= 1.0 and rn >= 1.0 - 1e-10
            if norm <= 1.0:
                ok &= norm**p.hi <= r * (1.0 + slack) and r <= norm**p.lo * (1.0 + slack)
            else:
                ok &= norm**p.lo <= r * (1.0 + slack) and r <= norm**p.hi * (1.0 + slack)
            roots = (r ** (1.0 / p.lo), r ** (1.0 / p.hi))
            ok &= min(roots) * (1.0 - slack) <= norm <= max(roots) * (1.0 + slack)
        if constant:
            c = p.lo
            closed = float(np.sum(np.abs(u) ** c) * vol) ** (1.0 / c)
            ok &= abs(norm - closed) <= 1e-10 * max(closed, 1e-30)

        v = amp * rng.standard_normal(shape)
        pairing = float(np.sum(np.abs(u * v)) * vol)
        bound = holder_constant(p) * norm * luxemburg_norm(v, conjugate(p), vol).norm
        ok &= pairing <= bound * (1.0 + slack) + 1e-300
        if not ok:
            failures.append(k)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report_line(capsys, 1, "norm calculus", ok, elapsed, f"1000 pairs, failures={failures[:5]}")


def test_criterion_02_gradient_checks(capsys):
    rng = np.random.default_rng(7)
    grid = interval_grid(33, 1.0)
    x = grid.cell_midpoints()[0]
    specs = {
        "1.5": np.full(grid.cell_shape, 1.5),
        "2": np.full(grid.cell_shape, 2.0),
        "3": np.full(grid.cell_shape, 3.0),
        "2+x": 2.0 + x,
    }
    keys = list(specs)
    t0 = time.perf_counter()
    worst = 0.0
    eps = 1e-6
    for i in range(100):
        pd = make_pd(grid, specs[keys[i % 4]], specs[keys[(i // 4) % 4]], C_embed=1.0)
        u = rng.standard_normal(grid.shape)
        v = rng.standard_normal(grid.shape)
        u[grid.boundary_mask] = 0.0
        v[grid.boundary_mask] = 0.0
        num_G = (energies(u + eps * v, pd).G - energies(u - eps * v, pd).G) / (2 * eps)
        num_F = (energies(u + eps * v, pd).F - energies(u - eps * v, pd).F) / (2 * eps)
        rel_G = abs(num_G - float(np.vdot(grad_G(u, pd), v))) / max(abs(num_G), 1e-12)
        rel_F = abs(num_F - float(np.vdot(grad_F(u, pd), v))) / max(abs(num_F), 1e-12)
        worst = max(worst, rel_G, rel_F)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report_line(capsys, 2, "gradient checks", ok, elapsed, f"worst rel err {worst:.2e}")


def test_criterion_03_linear_oracle(capsys):
    from scipy.linalg import eigh

    t0 = time.perf_counter()
    n = 257
    grid = interval_grid(n, 1.0)
    pd = make_pd(grid, 2.0, 2.0, C_embed=1.0)
    pair = solve_sphere_max(pd, 1.0, SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0))

    interior = np.flatnonzero(~grid.boundary_mask)
    K = np.empty((n - 2, n - 2))
    M = np.empty((n - 2, n - 2))
    for col, k in enumerate(interior):
        e = np.zeros(n)
        e[k] = 1.0
        K[:, col] = grad_G(e, pd)[1:-1]
        M[:, col] = grad_F(e, pd)[1:-1]
    lam_ref = eigh(K, M, eigvals_only=True)[0]

    est = embedding_constant(pd, trials=2)
    elapsed = time.perf_counter() - t0
    checks = {
        "pi^2 1%": abs(pair.lam - np.pi**2) <= 0.01 * np.pi**2,
        "eigh 1e-8": abs(pair.lam - lam_ref) <= 1e-8,
        "embed 2%": abs(est - 1.0 / np.pi) <= 0.02 / np.pi,
        "budget": elapsed < 5.0,
    }
    detail = f"lam={pair.lam:.8f} ref={lam_ref:.8f} embed={est:.5f} " + str(
        [k for k, v in checks.items() if not v]
    )
    report_line(capsys, 3, "linear oracle", all(checks.values()), elapsed, detail)


def test_criterion_04_sublinear_sweep(capsys):
    t0 = time.perf_counter()
    pd = make_pd(interval_grid(129, 1.0), 3.0, 2.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    report = spectrum_sweep(pd, [0.1, 1.0, 10.0, 100.0], 1.0, cfg)
    rows_ok = all(
        r.converged and r.residual < 1e-5 and r.mechanism == "ball_min" for r in report.rows
    )
    window_ok = all(lambda_alpha(pd, r.alpha) > r.lam for r in report.rows)

    base = solve_sublinear(pd, window_alpha(pd, 0.2), 0.2, cfg)
    mapped = rescale_constant_exponent(base, 0.4, pd)
    elapsed = time.perf_counter() - t0
    ok = rows_ok and window_ok and mapped.residual < 1e-5 and elapsed < 30.0
    res = max(r.residual for r in report.rows)
    report_line(
        capsys, 4, "sublinear sweep", ok, elapsed,
        f"max row res {res:.2e}, scaled res {mapped.residual:.2e}",
    )


def test_criterion_05_threshold_formula(capsys):
    t0 = time.perf_counter()
    unit = make_pd(interval_grid(129, 1.0), 3.0, 2.0, C_H=1.0, C_embed=1.0, V_norm=1.0)
    closed_ok = abs(lambda_alpha(unit, 1.0) - 3.0 ** (-2.0 / 3.0)) <= 1e-12

    boundary, _ = family_ball_problem_1d(65)
    thr = alpha_independent_threshold(boundary)
    indep_ok = all(
        abs(lambda_alpha(boundary, a) - thr) <= 1e-12 * thr for a in np.linspace(0.5, 8.0, 20)
    )

    alphas = np.geomspace(0.05, 5.0, 20)
    sub = make_pd(interval_grid(33), 3.0, 2.0)
    sup = make_pd(interval_grid(33), 2.0, 4.0)
    vals_sub = [lambda_alpha(sub, a) for a in alphas]
    vals_sup = [lambda_alpha(sup, a) for a in alphas]
    mono_ok = all(a < b for a, b in zip(vals_sub, vals_sub[1:])) and all(
        a > b for a, b in zip(vals_sup, vals_sup[1:])
    )
    elapsed = time.perf_counter() - t0
    ok = closed_ok and indep_ok and mono_ok
    report_line(
        capsys, 5, "threshold formula", ok, elapsed,
        f"closed={closed_ok} indep={indep_ok} mono={mono_ok}",
    )


def _sandwich_instances():
    grid = interval_grid(129, 1.0)
    x = grid.cell_midpoints()[0]
    m = grid.cell_shape
    return grid, {
        "constant": (np.full(m, 3.0), np.full(m, 2.0)),
        "mild": (3.0 + 0.2 * np.sin(2 * np.pi * x), 2.0 + 0.1 * np.cos(np.pi * x)),
        "strong": (2.6 + 0.8 * x, 1.5 + 0.7 * x * x),
    }


def test_criterion_06_quotient_sandwich(capsys):
    t0 = time.perf_counter()
    grid, instances = _sandwich_instances()
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0)
    details = []
    ok = True
    for name, (p, q) in instances.items():
        pd = make_pd(grid, p, q)
        rep = rayleigh_extrema(pd, 1.0)
        sandwich = (
            (pd.q.lo / pd.p.hi) * rep.nu_star <= rep.nu_sup * (1 + 1e-12)
            and rep.nu_sup <= (pd.q.hi / pd.p.lo) * rep.nu_star * (1 + 1e-12)
        )
        pair = solve_sphere_max(pd, 1.0, cfg)
        floor = pair.lam >= rep.nu_star - 1e-8
        ok &= sandwich and floor and pair.converged
        details.append(f"{name}:sand={sandwich},floor={floor},conv={pair.converged}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report_line(capsys, 6, "quotient sandwich", ok, elapsed, " ".join(details))


def test_criterion_07_level_coincidence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    grid = interval_grid(65, 1.0)
    m = grid.cell_shape
    ok = True
    details = []
    for k in range(5):
        plo = rng.uniform(2.4, 3.2)
        qhi = rng.uniform(1.4, plo - 0.4)
        p = plo + rng.uniform(0.1, 0.5) * rng.random(m)
        q = qhi - rng.uniform(0.1, 0.4) * rng.random(m)
        alpha = float(rng.uniform(0.5, 3.0))
        pd = make_pd(grid, p, q, V=0.5 + rng.random(m))
        pair = solve_sphere_max(pd, alpha, SolverConfig(max_iters=60000, grad_tol=1e-5, seed=k))
        snap = pair.snapshot
        mu1 = snap.phi / snap.psi
        coincide = abs(pair.lam - 1.0 / mu1) <= 1e-10 * pair.lam
        a = snap.F
        lo = (pd.p.lo / pd.q.hi) * (alpha / a)
        hi = (pd.p.hi / pd.q.lo) * (alpha / a)
        bounds = lo * (1 - 1e-12) <= pair.lam <= hi * (1 + 1e-12)
        ok &= coincide and bounds and pair.converged
        details.append(f"{k}:coin={coincide},bounds={bounds},conv={pair.converged}")
    elapsed = time.perf_counter() - t0
    report_line(capsys, 7, "level coincidence", ok, elapsed, " ".join(details))


def test_criterion_08_mountain_pass(capsys):
    t0 = time.perf_counter()
    pd = make_pd(interval_grid(129, 1.0), 2.0, 4.0)
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-5, seed=0)
    ok = True
    details = []
    pairs = {}
    for lam in (0.1, 1.0, 10.0):
        alpha = window_alpha(pd, lam)
        pair = solve_mountain_pass(pd, alpha, lam, cfg)
        pairs[lam] = pair
        c = pair.snapshot.I_lambda
        endpoint = False
        t = 1.0
        for _ in range(80):
            t *= 2.0
            if energies(t * pair.u, pd, lam).I_lambda < 0.0:
                endpoint = True
                break
        good = pair.residual < 1e-4 and c > 0.0 and endpoint
        ok &= good
        details.append(f"lam={lam}:res={pair.residual:.1e},c={c:.3g}")
    mapped = rescale_constant_exponent(pairs[0.1], 1.0, pd, tol=1e-4)
    ok &= mapped.residual < 1e-4
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report_line(
        capsys, 8, "mountain pass", ok, elapsed,
        " ".join(details) + f" scaled res {mapped.residual:.1e}",
    )


def test_criterion_09_multiplicity(capsys):
    t0 = time.perf_counter()
    pd, mu = family_ball_problem()
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-6, seed=0)
    fam = eigenfamily(pd, mu, [1.0, 2.0, 4.0], cfg)
    gaps = [
        float(np.linalg.norm(a.u - b.u)) for i, a in enumerate(fam) for b in fam[i + 1 :]
    ]
    ball_ok = (
        len(fam) >= 3
        and all(pair.lam == mu and pair.residual < 1e-5 for pair in fam)
        and min(gaps) > 10.0 * cfg.grad_tol
    )

    pd2, mu2 = family_pass_problem()
    cfg2 = SolverConfig(max_iters=200000, grad_tol=1e-5, seed=0)
    fam2 = eigenfamily(pd2, mu2, [0.05, 0.1, 0.2], cfg2)
    gaps2 = [
        float(np.linalg.norm(a.u - b.u)) for i, a in enumerate(fam2) for b in fam2[i + 1 :]
    ]
    values = [pair.snapshot.I_lambda for pair in fam2]
    pass_ok = (
        all(pair.lam == mu2 and pair.residual < 1e-5 for pair in fam2)
        and min(gaps2) > 10.0 * cfg2.grad_tol
        and values[0] < values[1] < values[2]
    )
    elapsed = time.perf_counter() - t0
    ok = ball_ok and pass_ok and elapsed < 120.0
    report_line(
        capsys, 9, "multiplicity", ok, elapsed,
        f"ball gaps min {min(gaps):.1e}; crest values {values[0]:.3g}<{values[1]:.3g}<{values[2]:.3g}",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    problem = {"extents": [65], "lengths": [1.0], "p": "3", "q": "2", "s": "400", "V": "1"}
    sweep_cfg = {
        "problem": problem,
        "solver": {"max_iters": 40000, "grad_tol": 1e-6, "seed": 0},
        "lambdas": [0.5, 2.0],
    }
    rayleigh_cfg = {"problem": problem, "alpha": 1.0, "trials": 3, "solver": {"seed": 1}}
    ok = True
    for name, command, cfg in (
        ("sweep", "sweep", sweep_cfg),
        ("rayleigh", "rayleigh", rayleigh_cfg),
    ):
        paths = [tmp_path / f"{name}_{i}.json" for i in (0, 1)]
        for path in paths:
            code = cli_run(command, json.loads(json.dumps(cfg)), out=str(path))[1]
            ok &= code == 0
        ok &= paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    report_line(capsys, 10, "determinism", ok, elapsed, "sweep + rayleigh byte-identical")
