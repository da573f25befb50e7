"""Solve a radius-indexed family at one shared level on a symmetric rectangle.

The exponent fields are symmetric under both axis reflections, so seeds with
different reflection parities descend inside disjoint invariant subspaces and
the family returns genuinely distinct eigenfunctions for the same level.
"""

import argparse

import numpy as np

from vexspec import (
    SolverConfig,
    alpha_independent_threshold,
    eigenfamily,
    exponent_field,
    make_problem,
    rectangle_grid,
)
from vexspec.solvers import _family_gaps


def sym_band(m, lo_band, hi_band):
    xi = (np.arange(m) + 0.5) / m
    g = np.clip((hi_band - np.abs(xi - 0.5)) / (hi_band - lo_band), 0.0, 1.0)
    return 0.5 * (g + g[::-1])


def symmetric_rectangle_problem(extents):
    grid = rectangle_grid(extents, (2.5, 3.0))
    mx, my = grid.cell_shape
    dip = sym_band(mx, 0.12, 0.2)[:, None] * sym_band(my, 0.12, 0.2)[None, :]
    q = exponent_field(2.0 - 0.5 * dip)
    rx = 1.0 - sym_band(mx, 0.3, 0.45)
    ry = 1.0 - sym_band(my, 0.3, 0.45)
    p = exponent_field(2.0 + 0.5 * np.maximum(rx[:, None], ry[None, :]))
    shape = grid.cell_shape
    return make_problem(grid, p, q, exponent_field(np.full(shape, 400.0)), np.ones(shape))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=41)
    ap.add_argument("--ny", type=int, default=49)
    ap.add_argument("--radii", type=float, nargs="+", default=[1.0, 2.0, 4.0])
    args = ap.parse_args()

    pd = symmetric_rectangle_problem((args.nx, args.ny))
    mu = 0.5 * alpha_independent_threshold(pd)
    cfg = SolverConfig(max_iters=200000, grad_tol=1e-6, seed=0)
    family = eigenfamily(pd, mu, args.radii, cfg)

    print(f"shared level mu = {mu:.6e}")
    print(f"{'radius':>8s} {'residual':>10s} {'I':>13s} {'parity x':>9s} {'parity y':>9s}")
    for radius, pair in zip(args.radii, family):
        u = pair.u
        px = "even" if np.array_equal(u, u[::-1, :]) else "odd"
        py = "even" if np.array_equal(u, u[:, ::-1]) else "odd"
        print(
            f"{radius:8.3f} {pair.residual:10.2e} {pair.snapshot.I_lambda:13.5e} "
            f"{px:>9s} {py:>9s}"
        )
    for row in _family_gaps(family, pd):
        i, j = row["levels"]
        print(f"gap({i},{j}) = {row['gap']:.3e}  |dI| = {row['dI_lambda']:.3e}")


if __name__ == "__main__":
    main()
