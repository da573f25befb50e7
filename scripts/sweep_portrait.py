"""Sweep the sublinear model problem across a lambda grid and report rows.

For p = 3, q = 2 on the unit interval every lambda admits a negative-energy
ball minimizer; the table shows the auto-selected alpha staying inside the
admissible window and the scaling map connecting any two rows.
"""

import argparse

import numpy as np

from vexspec import (
    SolverConfig,
    exponent_field,
    interval_grid,
    lambda_alpha,
    make_problem,
    rescale_constant_exponent,
    spectrum_sweep,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=129, help="grid nodes")
    ap.add_argument("--lo", type=float, default=0.1)
    ap.add_argument("--hi", type=float, default=100.0)
    ap.add_argument("--rows", type=int, default=7)
    args = ap.parse_args()

    grid = interval_grid(args.n, 1.0)
    m = grid.cell_shape
    fields = [exponent_field(e) for e in (np.full(m, 3.0), np.full(m, 2.0), np.full(m, 400.0))]
    pd = make_problem(grid, *fields, np.ones(m))
    cfg = SolverConfig(max_iters=60000, grad_tol=1e-6, seed=0)
    lams = np.geomspace(args.lo, args.hi, args.rows)
    report = spectrum_sweep(pd, lams, 1.0, cfg)

    print(f"{'lambda':>12s} {'alpha':>10s} {'window':>12s} {'residual':>10s} {'I':>12s}")
    for row in report.rows:
        window = lambda_alpha(pd, row.alpha)
        print(
            f"{row.lam:12.5f} {row.alpha:10.5f} {window:12.5f} "
            f"{row.residual:10.2e} {row.I_value:12.5e}"
        )

    base = report.pairs[0]
    target = report.rows[-1].lam
    mapped = rescale_constant_exponent(base, target, pd)
    print(
        f"\nscaling map {report.rows[0].lam:g} -> {target:g}: "
        f"residual {mapped.residual:.2e} (direct {report.rows[-1].residual:.2e})"
    )


if __name__ == "__main__":
    main()
