"""Shared problem builders for the test suite.

Everything here is deliberately small: unit tests run on coarse grids and
the acceptance tests build their own full-size instances from the same
factories.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads its BLAS: the small dense
# products of the 2D Riesz solve run an order of magnitude slower with
# several threads when another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from vexspec import (
    alpha_independent_threshold,
    constant_exponent,
    exponent_field,
    interval_grid,
    make_problem,
    rectangle_grid,
)


def field_on(grid, values):
    """Exponent field from a scalar or a cell-shaped array."""
    if np.isscalar(values):
        return constant_exponent(float(values), grid.cell_shape)
    return exponent_field(np.asarray(values, dtype=float))


def make_pd(grid, p, q, s=400.0, V=None, **kwargs):
    if V is None:
        V = np.ones(grid.cell_shape)
    return make_problem(grid, field_on(grid, p), field_on(grid, q), field_on(grid, s), V, **kwargs)


def sym_band(m, lo_band, hi_band):
    """1D cell profile: 1 on the central band, linear ramp to 0 outside.

    The final symmetrization makes the array mirror-symmetric bit for bit,
    which the reflection-pinned family runs rely on.
    """
    xi = (np.arange(m) + 0.5) / m
    g = np.clip((hi_band - np.abs(xi - 0.5)) / (hi_band - lo_band), 0.0, 1.0)
    return 0.5 * (g + g[::-1])


def family_ball_problem(extents=(81, 97)):
    """2D instance with sup q = inf p = 2: central q-dip, p-rim, flat weight.

    Mirror-symmetric in both axes so seeded parity classes stay separated.
    Returns (pd, mu) with mu at half the level-independent threshold.
    """
    grid = rectangle_grid(extents, (2.5, 3.0))
    mx, my = grid.cell_shape
    dip = sym_band(mx, 0.12, 0.2)[:, None] * sym_band(my, 0.12, 0.2)[None, :]
    q = exponent_field(2.0 - 0.5 * dip)
    rx = 1.0 - sym_band(mx, 0.3, 0.45)
    ry = 1.0 - sym_band(my, 0.3, 0.45)
    p = exponent_field(2.0 + 0.5 * np.maximum(rx[:, None], ry[None, :]))
    s = constant_exponent(400.0, grid.cell_shape)
    pd = make_problem(grid, p, q, s, np.ones(grid.cell_shape))
    return pd, 0.5 * alpha_independent_threshold(pd)


def family_pass_problem(extents=(81, 97)):
    """2D instance with inf q = sup p = 2 and p < q on every cell."""
    grid = rectangle_grid(extents, (2.5, 3.0))
    mx, my = grid.cell_shape
    dip = sym_band(mx, 0.12, 0.34)[:, None] * sym_band(my, 0.12, 0.34)[None, :]
    q = exponent_field(2.0 + 1.0 * dip)
    rx = 1.0 - sym_band(mx, 0.3, 0.45)
    ry = 1.0 - sym_band(my, 0.3, 0.45)
    p = exponent_field(2.0 - 0.3 * np.maximum(rx[:, None], ry[None, :]))
    s = constant_exponent(400.0, grid.cell_shape)
    pd = make_problem(grid, p, q, s, np.ones(grid.cell_shape))
    return pd, 0.5 * alpha_independent_threshold(pd)


def family_ball_problem_1d(n=97):
    """1D counterpart of the ball-regime family instance (bitwise symmetric)."""
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    q = 2.0 - 0.5 * np.clip((0.2 - np.abs(x - 0.5)) / 0.08, 0.0, 1.0)
    p = 2.0 + 0.5 * np.clip((np.abs(x - 0.5) - 0.3) / 0.15, 0.0, 1.0)
    q = 0.5 * (q + q[::-1])
    p = 0.5 * (p + p[::-1])
    pd = make_pd(grid, p, q)
    return pd, 0.5 * alpha_independent_threshold(pd)


def family_pass_problem_1d(n=97):
    """1D counterpart of the path-regime family instance (bitwise symmetric)."""
    grid = interval_grid(n, 1.0)
    x = grid.cell_midpoints()[0]
    q = 2.0 + np.clip((np.abs(x - 0.5) - 0.1) / 0.4, 0.0, 1.0)
    p = 2.0 - 0.3 * np.clip((0.25 - np.abs(x - 0.5)) / 0.25, 0.0, 1.0)
    q = 0.5 * (q + q[::-1])
    p = 0.5 * (p + p[::-1])
    pd = make_pd(grid, p, q)
    return pd, 0.5 * alpha_independent_threshold(pd)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
