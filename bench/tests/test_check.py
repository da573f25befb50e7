"""Tests of the benchmark's independent checker.

Each check passes on data with a known answer and fails once u or lam is
perturbed.  Run with:  python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from check import Instance  # noqa: E402


def inst_1d(n=33, p=2.0, q=2.0):
    m = (n - 1,)
    return Instance((n,), (1.0,), np.full(m, p), np.full(m, q), np.ones(m))


def interior(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(1, n - 1) for n in shape)] = True
    return mask


def sine(extents):
    u = np.ones(extents)
    for axis, n in enumerate(extents):
        shape = [1] * len(extents)
        shape[axis] = n
        u = u * np.sin(np.pi * np.linspace(0.0, 1.0, n)).reshape(shape)
    u[~interior(extents)] = 0.0
    return u


def bump(u, rel=1e-3, seed=0):
    noise = np.random.default_rng(seed).standard_normal(u.shape)
    noise[~interior(u.shape)] = 0.0
    return u + rel * np.max(np.abs(u)) * noise


def test_oracle_sine_is_an_exact_eigenpair_1d():
    inst = inst_1d(33)
    u = sine((33,))
    lam = check.oracle_first_eigenvalue(33)
    assert check.defect(u, lam, inst) < 1e-12
    assert check.check_pair(u, lam, check.defect(u, lam, inst), 1e-6, inst, "s") == []
    assert check.check_oracle(lam, inst, "s") == []
    assert check.check_oracle(lam * (1 + 1e-6), inst, "s")
    assert check.check_pair(bump(u), lam, 0.0, 1e-6, inst, "s")
    assert check.check_pair(u, lam * (1 + 1e-3), 0.0, 1e-6, inst, "s")


def test_separable_sine_is_an_exact_eigenpair_2d():
    extents, lengths = (9, 13), (2.5, 3.0)
    m = (8, 12)
    inst = Instance(extents, lengths, np.full(m, 2.0), np.full(m, 2.0), np.ones(m))
    lam = sum(check.oracle_first_eigenvalue(n, l) for n, l in zip(extents, lengths))
    u = sine(extents)
    d = check.defect(u, lam, inst)
    assert d < 1e-12
    assert check.check_pair(u, lam, d, 1e-6, inst, "s") == []
    assert check.check_pair(bump(u), lam, d, 1e-6, inst, "s")
    assert check.check_pair(u, lam * (1 + 1e-3), d, 1e-6, inst, "s")


def test_defect_must_match_the_reported_residual():
    inst = inst_1d(33)
    u = sine((33,))
    lam = check.oracle_first_eigenvalue(33) * (1 + 1e-8)
    d = check.defect(u, lam, inst)
    assert check.check_pair(u, lam, d, 1e-6, inst, "s") == []
    assert check.check_pair(u, lam, 2 * d, 1e-6, inst, "s")


def test_boundary_values_are_rejected():
    inst = inst_1d(33)
    u = sine((33,))
    u[0] = 1e-3
    assert any("boundary" in f for f in check.check_pair(u, 1.0, 0.0, 1.0, inst, "s"))


def test_sphere_point():
    inst = inst_1d(33, p=2.6, q=1.8)
    u = sine((33,))
    alpha = 1.0
    u = u * (alpha / check.energies(u, inst)["G"]) ** (1 / 2.6)
    e = check.energies(u, inst)
    lam = e["psi"] / e["phi"]
    assert check.check_sphere_point(u, lam, alpha, inst, "s") == []
    assert check.check_sphere_point(u, lam * (1 + 1e-6), alpha, inst, "s")
    assert check.check_sphere_point(bump(u), lam, alpha, inst, "s")


def homogeneous_rows(inst, u):
    p, q = float(inst.p[0]), float(inst.q[0])
    e = check.energies(u, inst)
    lam0 = e["psi"] / e["phi"]
    rows = []
    for scale in (1.0, 10.0, 100.0):
        lam = lam0 * scale
        v = scale ** (1.0 / (p - q)) * u
        rows.append((lam, v, check.lp_gradient_norm(v, inst)))
    return rows


def test_homogeneity():
    inst = inst_1d(65, p=3.0, q=2.0)
    rows = homogeneous_rows(inst, sine((65,)))
    assert check.check_homogeneity(rows, inst) == []
    lam, u, norm = rows[1]
    moved_u = rows[:1] + [(lam, bump(u), check.lp_gradient_norm(bump(u), inst))] + rows[2:]
    assert check.check_homogeneity(moved_u, inst)
    moved_lam = rows[:1] + [(lam * (1 + 1e-3), u, norm)] + rows[2:]
    assert check.check_homogeneity(moved_lam, inst)
    assert check.check_homogeneity(rows[:1] + [(lam, u, norm * 1.01)] + rows[2:], inst)


def rayleigh_report(inst, u):
    e = check.energies(u, inst)
    return SimpleNamespace(nu_star=e["psi"] / e["phi"], nu_sup=e["G"] / e["F"],
                           witnesses={"nu_star": u, "nu_sup": u})


def test_rayleigh():
    x = (np.arange(64) + 0.5) / 64
    inst = Instance((65,), (1.0,), 2.6 + 0.8 * x, 1.5 + 0.7 * x * x, np.ones(64))
    u = sine((65,))
    rep = rayleigh_report(inst, u)
    assert check.check_rayleigh(rep, rep.nu_star, inst) == []
    assert check.check_rayleigh(rep, rep.nu_star * (1 - 1e-3), inst)
    moved = SimpleNamespace(nu_star=rep.nu_star, nu_sup=rep.nu_sup,
                            witnesses={"nu_star": bump(u), "nu_sup": u})
    assert check.check_rayleigh(moved, rep.nu_star, inst)
    moved = SimpleNamespace(nu_star=rep.nu_star, nu_sup=rep.nu_sup,
                            witnesses={"nu_star": u, "nu_sup": bump(u)})
    assert check.check_rayleigh(moved, rep.nu_star, inst)
    # nu_sup outside the sandwich
    outside = SimpleNamespace(nu_star=rep.nu_star, nu_sup=rep.nu_star * 5,
                              witnesses={"nu_star": u, "nu_sup": u})
    assert any("sandwich" in f for f in check.check_rayleigh(outside, rep.nu_star, inst))


def family_pairs(inst, mu):
    """Scaled sines below the ray maximum of I = G - mu F (q > p)."""
    u = sine((33,))
    e = check.energies(u, inst)
    # I(t u) = t^2 G - mu t^4 F peaks at t^2 = G / (2 mu F)
    t_top = np.sqrt(e["G"] / (2 * mu * e["F"]))
    return [(mu, s * t_top * u) for s in (0.25, 0.5, 0.75)]


def test_family():
    inst = inst_1d(33, p=2.0, q=4.0)
    mu = 0.3
    pairs = family_pairs(inst, mu)
    assert check.check_family(pairs, mu, 1e-5, inst) == []
    assert check.check_family([(mu * (1 + 1e-12), pairs[0][1])] + pairs[1:], mu, 1e-5, inst)
    collapsed = pairs[:2] + [(mu, pairs[1][1] + 1e-7)]
    assert any("gap" in f for f in check.check_family(collapsed, mu, 1e-5, inst))
    swapped = [pairs[1], pairs[0], pairs[2]]
    assert any("increasing" in f for f in check.check_family(swapped, mu, 1e-5, inst))


@pytest.mark.parametrize("extents", [(17,), (9, 11)])
def test_checker_agrees_with_the_program(extents):
    sys.path.insert(0, str(BENCH.parent / "src"))
    import vexspec

    rng = np.random.default_rng(3)
    dim = len(extents)
    lengths = (1.0, 1.5)[:dim]
    cells = tuple(n - 1 for n in extents)
    p = 1.7 + rng.random(cells)
    q = 1.3 + rng.random(cells)
    V = 0.5 + rng.random(cells)
    grid = vexspec.StructuredGrid(extents, tuple(l / (n - 1) for n, l in zip(extents, lengths)))
    field = vexspec.exponent_field
    pd = vexspec.make_problem(grid, field(p), field(q), vexspec.constant_exponent(400.0, cells),
                              V, C_embed=1.0)
    inst = Instance(extents, lengths, p, q, V)
    u = rng.standard_normal(extents)
    u[grid.boundary_mask] = 0.0
    snap = vexspec.energies(u, pd)
    mine = check.energies(u, inst)
    for key in ("G", "F", "psi", "phi"):
        assert mine[key] == pytest.approx(getattr(snap, key), rel=1e-12)
    assert check.defect(u, 0.7, inst) == pytest.approx(vexspec.residual(u, pd, 0.7), rel=1e-9)
