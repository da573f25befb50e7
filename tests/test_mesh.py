"""Grids, stencils and their adjoints.

The adjoint identities and the Riesz solve are asserted at float precision
via dense operator assembly and scipy's DST-I, and the reflection
equivariance of the 2D stencils and of the Riesz solve is asserted bitwise:
the family solver's parity pinning depends on exact equality, not on
closeness.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from vexspec import StructuredGrid, cell_values, gradient, interval_grid, rectangle_grid
from vexspec.mesh import (
    CHEBYSHEV_SOLVES,
    apply_dirichlet,
    cell_values_adjoint,
    gradient_adjoint,
    gradient_magnitude,
    grid_from_config,
    require_dirichlet,
    riesz_solve,
)


def test_grid_basic_geometry():
    g = rectangle_grid((5, 9), (2.0, 4.0))
    assert g.dim == 2
    assert g.shape == (5, 9)
    assert g.cell_shape == (4, 8)
    assert int(np.prod(g.shape)) == 45 and g.n_cells == 32
    assert g.cell_volume == pytest.approx(0.5 * 0.5)
    assert g.lengths == (2.0, 4.0)
    assert g.boundary_mask.sum() == 45 - 3 * 7
    gi = interval_grid(11, 2.0)
    assert gi.dim == 1 and gi.spacing[0] == pytest.approx(0.2)
    assert np.array_equal(gi.axis_nodes(0), 0.2 * np.arange(11))


def test_grid_validation():
    with pytest.raises(ValueError, match="dimension"):
        StructuredGrid((4, 4, 4), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="3 nodes"):
        StructuredGrid((2,), (0.1,))
    with pytest.raises(ValueError, match="positive"):
        StructuredGrid((5,), (0.0,))
    with pytest.raises(ValueError, match="matching length"):
        StructuredGrid((5, 5), (0.1,))
    with pytest.raises(ValueError, match="mirror flags and extents must have matching length"):
        StructuredGrid((9, 9), (0.1, 0.1), (True,))
    with pytest.raises(ValueError, match="needs a 2D grid"):
        StructuredGrid((9,), (0.1,), (True,))
    for extents in ((65.7,), (True, 5), ("65",)):
        with pytest.raises(ValueError, match="extents must be integers"):
            StructuredGrid(extents, (0.1,) * len(extents))
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            StructuredGrid((5,), (h,))
    for cfg, key in (({"extents": [1]}, "extents"), ({"extents": 65}, "extents"),
                     ({"extents": [5], "lengths": [float("nan")]}, "lengths"),
                     ({"extents": [5], "lengths": [True]}, "lengths")):
        with pytest.raises(ValueError, match=f"config {key} must be"):
            grid_from_config(cfg)


def test_grid_config_round_trip():
    g = rectangle_grid((7, 5), (1.5, 2.0))
    assert grid_from_config({"extents": [7, 5], "lengths": [1.5, 2.0]}) == g
    with pytest.raises(ValueError, match="disagree"):
        grid_from_config({"extents": [5, 5], "lengths": [1.0]})


def test_node_and_cell_coordinates():
    g = interval_grid(5, 1.0)
    x_cells = g.cell_midpoints()[0]
    assert np.allclose(x_cells, [0.125, 0.375, 0.625, 0.875])
    g2 = rectangle_grid((3, 4), (1.0, 3.0))
    X, Y = g2.node_coordinates()
    assert X.shape == (3, 4) and Y[0, -1] == pytest.approx(3.0)


def test_gradient_exact_for_affine_1d():
    g = interval_grid(9, 2.0)
    x = g.axis_nodes(0)
    u = 3.0 - 0.75 * x
    grad = gradient(u, g)
    assert grad.shape == (8, 1)
    assert np.allclose(grad[:, 0], -0.75, rtol=1e-14)


def test_gradient_exact_for_bilinear_2d():
    g = rectangle_grid((6, 7), (1.0, 2.0))
    X, Y = g.node_coordinates()
    u = 2.0 + X - 3.0 * Y + 5.0 * X * Y
    Xc, Yc = g.cell_midpoints()
    grad = gradient(u, g)
    assert np.allclose(grad[..., 0], 1.0 + 5.0 * Yc, rtol=1e-13)
    assert np.allclose(grad[..., 1], -3.0 + 5.0 * Xc, rtol=1e-13)


def test_cell_values_average_corners(rng):
    g = rectangle_grid((4, 5))
    u = rng.standard_normal(g.shape)
    vals = cell_values(u, g)
    i, j = 2, 1
    manual = 0.25 * (u[i, j] + u[i + 1, j] + u[i, j + 1] + u[i + 1, j + 1])
    assert vals[i, j] == pytest.approx(manual, rel=1e-15)


def _dense_operator(apply_fn, in_shape, out_shape):
    n = int(np.prod(in_shape))
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(apply_fn(e.reshape(in_shape)).ravel())
    return np.stack(cols, axis=1).reshape((int(np.prod(out_shape)), n))


@pytest.mark.parametrize("grid", [interval_grid(7, 1.3), rectangle_grid((5, 6), (1.0, 0.7))])
def test_gradient_adjoint_is_transpose(grid):
    vec_shape = grid.cell_shape + (grid.dim,)
    A = _dense_operator(lambda u: gradient(u, grid), grid.shape, vec_shape)
    At = _dense_operator(lambda a: gradient_adjoint(a.reshape(vec_shape), grid), vec_shape, grid.shape)
    assert np.allclose(At, A.T, rtol=0, atol=1e-14)


@pytest.mark.parametrize("grid", [interval_grid(7, 1.3), rectangle_grid((5, 6), (1.0, 0.7))])
def test_cell_values_adjoint_is_transpose(grid):
    B = _dense_operator(lambda u: cell_values(u, grid), grid.shape, grid.cell_shape)
    Bt = _dense_operator(lambda b: cell_values_adjoint(b, grid), grid.cell_shape, grid.shape)
    assert np.allclose(Bt, B.T, rtol=0, atol=1e-15)


def test_adjoint_pairing_identity(rng):
    grid = rectangle_grid((9, 8), (2.0, 1.0))
    u = rng.standard_normal(grid.shape)
    a = rng.standard_normal(grid.cell_shape + (2,))
    b = rng.standard_normal(grid.cell_shape)
    lhs = float(np.sum(gradient(u, grid) * a))
    rhs = float(np.sum(u * gradient_adjoint(a, grid)))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    lhs = float(np.sum(cell_values(u, grid) * b))
    rhs = float(np.sum(u * cell_values_adjoint(b, grid)))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_stencils_commute_with_reflections_bitwise(rng):
    """Reflection equivariance must be exact in floating point.

    Descent iterates keep their symmetry class only if every operator maps
    mirrored inputs to mirrored outputs with zero rounding discrepancy.
    """
    grid = rectangle_grid((8, 9), (1.7, 2.3))
    u = rng.standard_normal(grid.shape)
    g = gradient(u, grid)
    gr = gradient(u[::-1, :], grid)
    assert np.array_equal(gr[..., 0], -g[::-1, :, 0])
    assert np.array_equal(gr[..., 1], g[::-1, :, 1])
    gr = gradient(u[:, ::-1], grid)
    assert np.array_equal(gr[..., 0], g[:, ::-1, 0])
    assert np.array_equal(gr[..., 1], -g[:, ::-1, 1])

    assert np.array_equal(cell_values(u[::-1, :], grid), cell_values(u, grid)[::-1, :])
    assert np.array_equal(cell_values(u[:, ::-1], grid), cell_values(u, grid)[:, ::-1])

    a = rng.standard_normal(grid.cell_shape + (2,))
    ar = np.stack([-a[::-1, :, 0], a[::-1, :, 1]], axis=-1)
    assert np.array_equal(gradient_adjoint(ar, grid), gradient_adjoint(a, grid)[::-1, :])
    b = rng.standard_normal(grid.cell_shape)
    assert np.array_equal(cell_values_adjoint(b[:, ::-1], grid), cell_values_adjoint(b, grid)[:, ::-1])


def test_gradient_magnitude(rng):
    g = rng.standard_normal((6, 7, 2))
    gm = gradient_magnitude(g)
    assert np.array_equal(gm, np.sqrt(g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1]))


def test_cell_volume_is_a_cached_float():
    g = rectangle_grid((5, 9), (0.3, 0.7))
    assert type(g.cell_volume) is float
    assert g.cell_volume == np.prod(g.spacing)
    assert g.cell_volume is g.cell_volume


@pytest.mark.parametrize("grid", [interval_grid(5), rectangle_grid((4, 6))])
def test_require_dirichlet_checks_every_boundary_node(grid, rng):
    u = apply_dirichlet(rng.standard_normal(grid.shape), grid)
    for k in np.flatnonzero(grid.boundary_mask):
        bad = u.copy()
        bad.flat[k] = 1e-300
        with pytest.raises(ValueError, match="vanish"):
            require_dirichlet(bad, grid)
        bad.flat[k] = -0.0
        assert require_dirichlet(bad, grid) is bad
    bad = np.full(grid.shape, np.inf)
    with pytest.raises(ValueError, match="finite"):  # finiteness is checked first
        require_dirichlet(bad, grid)


def test_dirichlet_masking(rng):
    g = rectangle_grid((5, 6))
    u = rng.standard_normal(g.shape)
    masked = apply_dirichlet(u, g)
    assert np.all(masked[g.boundary_mask] == 0.0)
    assert np.array_equal(masked[1:-1, 1:-1], u[1:-1, 1:-1])
    with pytest.raises(ValueError, match="vanish"):
        require_dirichlet(u, g)
    assert np.array_equal(require_dirichlet(masked, g), masked)
    with pytest.raises(ValueError, match="finite"):
        apply_dirichlet(np.full(g.shape, np.nan), g)
    with pytest.raises(ValueError, match="match"):
        apply_dirichlet(np.zeros((4, 4)), g)


def test_shape_checks_on_stencil_inputs():
    g = rectangle_grid((4, 4))
    with pytest.raises(ValueError, match="wrong shape"):
        gradient_adjoint(np.zeros((3, 3)), g)
    with pytest.raises(ValueError, match="wrong shape"):
        cell_values_adjoint(np.zeros((2, 3)), g)
    with pytest.raises(ValueError, match="match"):
        riesz_solve(np.zeros((4, 3)), g)
    with pytest.raises(ValueError, match="match"):
        gradient(np.zeros((4, 3)), g)
    with pytest.raises(ValueError, match="match"):
        cell_values(np.zeros(4), g)
    with pytest.raises(ValueError, match="match"):
        gradient(np.zeros(5), interval_grid(4))


@st.composite
def riesz_cases(draw, dims=(1, 2)):
    """A grid of a dimension in dims with 3-40 nodes and a random spacing per axis, plus data."""
    dim = draw(st.sampled_from(dims))
    extents = tuple(draw(st.integers(3, 40)) for _ in range(dim))
    spacing = tuple(10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return StructuredGrid(extents, spacing), rng.standard_normal(extents)


def written_out_gradient(u, grid):
    """The gradient formula as written before the planar layout: np.stack of the terms."""
    if grid.dim == 1:
        return ((u[1:] - u[:-1]) / grid.spacing[0])[:, None]
    hx, hy = grid.spacing
    gx = ((u[1:, :-1] - u[:-1, :-1]) + (u[1:, 1:] - u[:-1, 1:])) / (2.0 * hx)
    gy = ((u[:-1, 1:] - u[:-1, :-1]) + (u[1:, 1:] - u[1:, :-1])) / (2.0 * hy)
    return np.stack([gx, gy], axis=-1)


@given(riesz_cases())
@settings(max_examples=100, deadline=None)
def test_planar_gradient_is_bitwise_the_written_out_formula(case):
    """Planar storage changes the memory order only: values, shape and |g| stay bit for bit."""
    grid, u = case
    g, ref = gradient(u, grid), written_out_gradient(u, grid)
    assert g.shape == ref.shape == grid.cell_shape + (grid.dim,)
    assert np.array_equal(g, ref)
    if grid.dim == 2:
        assert all(g[..., k].flags.c_contiguous for k in range(2))
    reduced = np.sqrt(np.sum(g * g, axis=-1))
    assert np.array_equal(gradient_magnitude(g), reduced)
    assert np.array_equal(gradient_magnitude(np.ascontiguousarray(g)), reduced)
    # a leading batch axis: each row of a stack is bit for bit its own call
    stack = np.stack([u, -0.5 * u[::-1].reshape(u.shape), np.zeros_like(u)])
    gs, cs = gradient(stack, grid), cell_values(stack, grid)
    assert gs.shape == (3,) + g.shape and cs.shape == (3,) + grid.cell_shape
    for row, g_row, c_row in zip(stack, gs, cs):
        assert g_row.tobytes() == gradient(row, grid).tobytes()
        assert c_row.tobytes() == cell_values(row, grid).tobytes()
    assert np.array_equal(gradient_magnitude(gs)[0], gradient_magnitude(g))


def dense_laplacian(grid):
    """gradient_adjoint o gradient assembled column by column on all nodes."""
    n = int(np.prod(grid.shape))
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(gradient_adjoint(gradient(e.reshape(grid.shape), grid), grid).ravel())
    return np.stack(cols, axis=1)


@given(riesz_cases())
@settings(max_examples=60, deadline=None)
def test_riesz_solve_matches_dense_solve(case):
    grid, g = case
    inner = ~grid.boundary_mask.ravel()
    a = dense_laplacian(grid)[np.ix_(inner, inner)]
    ref = np.zeros(int(np.prod(grid.shape)))
    ref[inner] = np.linalg.solve(a, g.ravel()[inner])
    d = riesz_solve(g, grid)
    assert np.all(d[grid.boundary_mask] == 0.0)
    assert np.linalg.norm(d.ravel() - ref) <= 1e-11 * np.linalg.norm(ref)


@st.composite
def mirror_cases(draw):
    """A 2D riesz case whose axes each may carry a mirror flag: the half of an odd-length axis."""
    grid, g = draw(riesz_cases(dims=(2,)))
    mirror = tuple(draw(st.booleans()) for _ in range(grid.dim))
    return StructuredGrid(grid.extents, grid.spacing, mirror), g


@given(mirror_cases())
@settings(max_examples=60, deadline=None)
def test_mirror_riesz_solve_matches_dense_solve(case):
    """On a mirror-flagged grid the last node of a flagged axis is free, and the solve inverts
    gradient_adjoint o gradient on all free nodes: the even-class half of the doubled axis."""
    grid, g = case
    free = ~grid.boundary_mask.ravel()
    assert free.sum() == np.prod([n - 1 if m else n - 2 for n, m in zip(grid.extents, grid.mirror)])
    a = dense_laplacian(grid)[np.ix_(free, free)]
    ref = np.zeros(int(np.prod(grid.shape)))
    ref[free] = np.linalg.solve(a, g.ravel()[free])
    d = riesz_solve(g, grid)
    assert np.all(d[grid.boundary_mask] == 0.0)
    assert np.linalg.norm(d.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("extents", [(81, 97), (21, 25)], ids=lambda e: "x".join(map(str, e)))
def test_mirror_riesz_solve_is_the_restricted_full_solve(extents):
    """Folding mirror-even data onto a flagged grid, whose mirror-line entries of the
    right-hand side count half, gives the full solve's values on that grid bit for bit,
    with W = 1 and with a mirror-symmetric weight."""
    rng = np.random.default_rng(sum(extents))
    spacing = tuple(rng.uniform(0.05, 3.0) / n for n in extents)
    full = StructuredGrid(extents, spacing)
    for mirror in itertools.product([False, True], repeat=len(extents)):
        if not any(mirror):
            continue
        g = rng.standard_normal(extents)
        half = tuple((n + 1) // 2 if m else n for n, m in zip(extents, mirror))
        for axis, m in enumerate(mirror):
            if m:
                g = 0.5 * (g + np.flip(g, axis))
        corner = g[tuple(slice(0, n) for n in half)].copy()
        for axis, m in enumerate(mirror):
            if m:
                corner[(slice(None),) * axis + (-1,)] *= 0.5
        folded = riesz_solve(corner, StructuredGrid(half, spacing, mirror))
        assert np.array_equal(folded, riesz_solve(g, full)[tuple(slice(0, n) for n in half)])
        # the weighted solve too, on a mirror-symmetric W cut to the half's cells
        w = rng.uniform(1.0, 10.0, full.cell_shape)
        for axis, m in enumerate(mirror):
            if m:
                w = 0.5 * (w + np.flip(w, axis))
        cut = np.ascontiguousarray(w[tuple(slice(0, n - 1) for n in half)])
        folded = riesz_solve(corner, StructuredGrid(half, spacing, mirror), cut)
        restricted = riesz_solve(g, full, w)[tuple(slice(0, n) for n in half)]
        assert np.array_equal(folded, restricted)


@given(st.integers(3, 42), st.integers(3, 42), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_riesz_blocks_match_scipy_dst(nx, ny, seed):
    """Each half-size parity block reproduces its class's entries of the DST-I.

    Applied to the half of a mirror-even (class 0) or mirror-odd (class 1)
    vector, with the centre node of an odd-length interior at half its
    value, 2 * backward.T gives the DST-I entries of that class (the others
    vanish); applied to the class entries of a spectrum, backward gives the
    first half of its DST-I.
    """
    rng = np.random.default_rng(seed)
    blocks, _ = rectangle_grid((nx, ny)).riesz_blocks
    for n, pair in zip((nx, ny), blocks):
        m = n - 2
        for c, backward in enumerate(pair):
            k = (m + 1 - c) // 2
            assert backward.shape == (k, k)
            if k == 0:  # one interior node: the odd class is empty
                continue
            half = rng.standard_normal(k)
            x = np.zeros(m)
            x[m - k :] = (-1.0) ** c * half[::-1]
            x[:k] = half
            ref = scipy.fft.dst(x, type=1)
            assert np.all(np.abs(ref[1 - c :: 2]) <= 1e-13 * np.max(np.abs(ref)))
            if m % 2 and c == 0:
                half[-1] *= 0.5  # the centre node is its own mirror partner
            assert np.max(np.abs(2.0 * backward.T @ half - ref[c::2])) <= 1e-13 * np.max(np.abs(ref))
            coef = np.zeros(m)
            coef[c::2] = rng.standard_normal(k)
            ref = scipy.fft.dst(coef, type=1)[:k]
            assert np.max(np.abs(backward @ coef[c::2] - ref)) <= 1e-13 * np.max(np.abs(ref))


@given(riesz_cases())
@settings(max_examples=100, deadline=None)
def test_riesz_solve_commutes_with_reflections_bitwise(case):
    grid, g = case
    d = riesz_solve(g, grid)
    for axis in range(grid.dim):
        assert np.array_equal(riesz_solve(np.flip(g, axis), grid), np.flip(d, axis))
    assert np.array_equal(riesz_solve(-g, grid), -d)


@given(riesz_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_riesz_solve_columns_equal_single_solves_bitwise(case, seed):
    """A leading axis of right-hand sides is solved column by column, bit for bit."""
    grid, g = case
    other = np.random.default_rng(seed).standard_normal(grid.shape)
    both = riesz_solve(np.stack([g, other]), grid)
    assert both.shape == (2,) + grid.shape
    assert np.array_equal(both[0], riesz_solve(g, grid))
    assert np.array_equal(both[1], riesz_solve(other, grid))
    with pytest.raises(ValueError, match="match"):
        riesz_solve(np.zeros((2, 2) + grid.shape), grid)


def scipy_riesz_solve(g, grid):
    """Reference Riesz solve: two full DST-Is per axis around the eigenvalues."""
    half = [0.5 * np.pi * np.arange(1, n - 1) / (n - 1) for n in grid.extents]
    stiff = [(2.0 * np.sin(t) / h) ** 2 for t, h in zip(half, grid.spacing)]
    if grid.dim == 1:
        eig = stiff[0]
    else:
        mass = [np.cos(t) ** 2 for t in half]
        eig = np.outer(stiff[0], mass[1]) + np.outer(mass[0], stiff[1])
    interior = (slice(1, -1),) * grid.dim
    coef = scipy.fft.dstn(g[interior], type=1, norm="ortho")
    d = np.zeros(grid.shape)
    d[interior] = scipy.fft.idstn(coef / eig, type=1, norm="ortho")
    return d


@pytest.mark.parametrize(
    "extents",
    [(129,), (130,), (1025,), (1026,), (4097,), (81, 97), (80, 96), (161, 193)],
    ids=lambda e: "x".join(map(str, e)),
)
def test_riesz_solve_on_large_grids(extents):
    rng = np.random.default_rng(sum(extents))
    grid = StructuredGrid(extents, tuple(rng.uniform(0.05, 3.0) / n for n in extents))
    g = rng.standard_normal(extents)
    d = riesz_solve(g, grid)
    ref = scipy_riesz_solve(g, grid)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
    for axis in range(grid.dim):
        assert np.array_equal(riesz_solve(np.flip(g, axis), grid), np.flip(d, axis))
    assert np.array_equal(riesz_solve(-g, grid), -d)


def test_riesz_solve_loads_neither_fft_nor_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import vexspec.cli\n"
        "from vexspec.mesh import interval_grid, rectangle_grid, riesz_solve\n"
        "for grid in (interval_grid(65), rectangle_grid((17, 21))):\n"
        "    riesz_solve(np.ones(grid.shape), grid)\n"
        "assert 'numpy.fft' not in sys.modules\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


@st.composite
def weighted_cases(draw):
    """A 1D grid with 3-200 nodes, 1-4 stacked right-hand sides and cell weights in [1e-3, 1e3].

    The weights are log-uniform, or (half the time) each at one end of the
    range, so neighbouring cells often differ by a factor of 1e6.
    """
    n, k = draw(st.integers(3, 200)), draw(st.integers(1, 4))
    grid = StructuredGrid((n,), (10.0 ** draw(st.floats(-1.0, 1.0)),))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = 10.0 ** rng.uniform(-3.0, 3.0, (k, n - 1))
    else:
        w = np.where(rng.random((k, n - 1)) < 0.5, 1e-3, 1e3)
    return grid, rng.standard_normal((k, n)), w


def mixed_weighted_solve(g, w, grid):
    """np.linalg.solve of the assembled mixed form of (gradient_adjoint o W o gradient) d = g.

    The unknowns are the cell fluxes f and the interior values d, with
    f / W - gradient(d) = 0 and gradient_adjoint(f) = g.  Every entry is
    exact, unlike the primal matrix, whose assembled sums W_(j-1) + W_j
    round: where neighbouring weights differ by 1e6 its dense solve is off
    by up to 2e-9 relative (against an exact rational solve).
    """
    n = int(np.prod(grid.shape))
    grad = np.stack([gradient(e, grid)[:, 0] for e in np.eye(n)[1:-1]], axis=1)
    k = np.block([[np.diag(1.0 / w), -grad], [grad.T, np.zeros((n - 2, n - 2))]])
    x = np.linalg.solve(k, np.concatenate([np.zeros(n - 1), g[1:-1]]))
    d = np.zeros(n)
    d[1:-1] = x[n - 1 :]
    return d


@given(weighted_cases())
@settings(max_examples=60, deadline=None)
def test_weighted_riesz_solve_matches_dense_solve(case):
    grid, g, w = case
    d = riesz_solve(g, grid, w)
    assert d.shape == g.shape and np.all(d[:, [0, -1]] == 0.0)
    for d_k, g_k, w_k in zip(d, g, w):
        ref = mixed_weighted_solve(g_k, w_k, grid)
        assert np.linalg.norm(d_k - ref) <= 1e-10 * np.linalg.norm(ref)
    plain = riesz_solve(g, grid)
    unit = riesz_solve(g, grid, np.ones_like(w))
    assert np.linalg.norm(unit - plain) <= 1e-13 * np.linalg.norm(plain)


@given(weighted_cases())
@settings(max_examples=100, deadline=None)
def test_weighted_riesz_solve_is_bitwise_equivariant_row_by_row(case):
    """Reflecting g and W reflects d, negating g negates d, and each row is its one-row solve."""
    grid, g, w = case
    d = riesz_solve(g, grid, w)
    assert np.array_equal(riesz_solve(g[:, ::-1], grid, w[:, ::-1]), d[:, ::-1])
    assert np.array_equal(riesz_solve(-g, grid, w), -d)
    for d_k, g_k, w_k in zip(d, g, w):
        assert d_k.tobytes() == riesz_solve(g_k, grid, w_k).tobytes()


def test_weighted_riesz_solve_needs_one_weight_row_per_solve():
    grid = interval_grid(9)
    with pytest.raises(ValueError, match="does not match"):
        riesz_solve(np.ones((2, 9)), grid, np.ones(8))
    with pytest.raises(ValueError, match="does not match"):
        riesz_solve(np.ones((2, 5, 6)), rectangle_grid((5, 6)), np.ones((4, 5)))


def dense_weighted_operator(grid, w):
    """gradient_adjoint o W o gradient assembled column by column on the free nodes."""
    free = np.flatnonzero(~grid.boundary_mask)
    cols = []
    for k in free:
        e = np.zeros(int(np.prod(grid.shape)))
        e[k] = 1.0
        flux = w[..., None] * gradient(e.reshape(grid.shape), grid)
        cols.append(gradient_adjoint(flux, grid).ravel()[free])
    return free, np.stack(cols, axis=1)


@st.composite
def weighted_2d_cases(draw):
    """A 2D grid of 3-16 nodes per axis, mirror flags, 1-3 right-hand sides and cell weights.

    Each row's weights fill [1, kappa] for a kappa up to 1e2 (log-uniform
    per cell), or are one constant, the degenerate spectrum of p = 2.
    """
    extents = tuple(draw(st.integers(3, 16)) for _ in range(2))
    spacing = tuple(10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    mirror = tuple(draw(st.booleans()) for _ in range(2))
    grid = StructuredGrid(extents, spacing, mirror)
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (k, 1, 1))
    if draw(st.booleans()):
        kappa = 10.0 ** rng.uniform(0.0, 2.0, (k, 1, 1))
        w = scale * kappa ** rng.random((k,) + grid.cell_shape)
    else:
        w = scale * np.ones((k,) + grid.cell_shape)
    return grid, rng.standard_normal((k,) + extents), w


@given(weighted_2d_cases())
@settings(max_examples=60, deadline=None)
def test_weighted_2d_riesz_solve_is_within_the_chebyshev_bound(case):
    """The weighted 2D solve misses the dense solve by at most the Chebyshev bound, in A_W's norm.

    With kappa = max W / min W of the row and r = (sqrt(kappa) - 1) /
    (sqrt(kappa) + 1), k = CHEBYSHEV_SOLVES steps from d = 0 shrink the
    A_W-norm error by 1 / T_k(theta / delta) = 2 r^k / (1 + r^2k) at least;
    a constant W is solved exactly.
    """
    grid, g, w = case
    d = riesz_solve(g, grid, w)
    assert d.shape == g.shape and np.all(d[:, grid.boundary_mask] == 0.0)
    for d_k, g_k, w_k in zip(d, g, w):
        free, a = dense_weighted_operator(grid, w_k)
        ref = np.linalg.solve(a, g_k.ravel()[free])
        err = d_k.ravel()[free] - ref
        kappa = w_k.max() / w_k.min()
        r = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        bound = 2.0 * r**CHEBYSHEV_SOLVES / (1.0 + r ** (2 * CHEBYSHEV_SOLVES))
        assert np.sqrt(err @ a @ err) <= (bound + 1e-10) * np.sqrt(ref @ a @ ref)


@given(weighted_2d_cases())
@settings(max_examples=100, deadline=None)
def test_weighted_2d_riesz_solve_is_bitwise_equivariant_row_by_row(case):
    """Reflecting g and W reflects d, negating g negates d, and each row is its one-row solve."""
    grid, g, w = case
    d = riesz_solve(g, grid, w)
    assert np.array_equal(riesz_solve(-g, grid, w), -d)
    for d_k, g_k, w_k in zip(d, g, w):
        assert d_k.tobytes() == riesz_solve(g_k, grid, w_k).tobytes()
    plain = StructuredGrid(grid.extents, grid.spacing)  # a mirror flag breaks the reflection
    d = riesz_solve(g, plain, w)
    for axis in (1, 2):
        assert np.array_equal(riesz_solve(np.flip(g, axis), plain, np.flip(w, axis)),
                              np.flip(d, axis))


def padded_gradient_adjoint(a, grid):
    """The np.pad formula of gradient_adjoint, with the same term grouping."""
    if grid.dim == 1:
        axp = np.pad(a[:, 0] / grid.spacing[0], 1)
        return axp[:-1] - axp[1:]
    hx, hy = grid.spacing
    axp = np.pad(a[..., 0] / (2.0 * hx), ((1, 1), (0, 0)))
    dxp = np.pad(axp[:-1, :] - axp[1:, :], ((0, 0), (1, 1)))
    ayp = np.pad(a[..., 1] / (2.0 * hy), ((0, 0), (1, 1)))
    dyp = np.pad(ayp[:, :-1] - ayp[:, 1:], ((1, 1), (0, 0)))
    return (dxp[:, :-1] + dxp[:, 1:]) + (dyp[:-1, :] + dyp[1:, :])


def padded_cell_values_adjoint(b, grid):
    """The np.pad formula of cell_values_adjoint, with the same term grouping."""
    if grid.dim == 1:
        bp = np.pad(0.5 * b, 1)
        return bp[:-1] + bp[1:]
    bp = np.pad(0.25 * b, 1)
    return (bp[:-1, :-1] + bp[1:, :-1]) + (bp[:-1, 1:] + bp[1:, 1:])


@given(riesz_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_adjoints_match_padded_reference_bitwise(case, seed):
    grid, _ = case
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.cell_shape + (grid.dim,))
    b = rng.standard_normal(grid.cell_shape)
    assert np.array_equal(gradient_adjoint(a, grid), padded_gradient_adjoint(a, grid))
    assert np.array_equal(cell_values_adjoint(b, grid), padded_cell_values_adjoint(b, grid))
    # component-planar memory, as `gradient` returns it, with many zeros of both
    # signs: the same bytes as the reference, zero signs included
    zeros = rng.random(a.shape) < 0.6
    a[zeros] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[zeros]
    planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    assert planar[..., 0].flags.c_contiguous
    ref = padded_gradient_adjoint(a, grid)
    assert gradient_adjoint(planar, grid).tobytes() == ref.tobytes()
    # a leading batch axis, planar stacks as `gradient` returns them: each row is its own call
    u = rng.standard_normal((3,) + grid.shape)
    a_stack, b_stack = gradient(u, grid), rng.standard_normal((3,) + grid.cell_shape)
    a_stack[0] = planar
    a_out, b_out = gradient_adjoint(a_stack, grid), cell_values_adjoint(b_stack, grid)
    assert a_out.shape == b_out.shape == (3,) + grid.shape
    for k in range(3):
        assert a_out[k].tobytes() == padded_gradient_adjoint(a_stack[k], grid).tobytes()
        assert b_out[k].tobytes() == padded_cell_values_adjoint(b_stack[k], grid).tobytes()
