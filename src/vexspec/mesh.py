"""Structured tensor-product grids with homogeneous Dirichlet masking.

Nodal functions are plain numpy arrays shaped like ``grid.extents``; cell
fields carry one value per cell (scalars) or one vector per cell
(gradients, trailing axis of length ``dim``).  Exponents and weights are
always sampled at cell midpoints, never at nodes, so the node-to-cell
bridge below (forward differences averaged over opposite edges, corner
averaging for values) keeps every energy a smooth composition of linear
maps with one power per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "StructuredGrid",
    "interval_grid",
    "rectangle_grid",
    "grid_from_config",
    "grid_to_config",
    "check_grid_function",
    "apply_dirichlet",
    "require_dirichlet",
    "gradient",
    "gradient_adjoint",
    "gradient_magnitude",
    "cell_values",
    "cell_values_adjoint",
    "riesz_solve",
    "integrate",
]


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform tensor-product grid in one or two dimensions."""

    extents: tuple
    spacing: tuple

    def __post_init__(self):
        if len(self.extents) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(self.spacing) != len(self.extents):
            raise ValueError("spacing and extents must have matching length")
        if any(int(n) < 3 for n in self.extents):
            raise ValueError("each axis needs at least 3 nodes")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple:
        return self.extents

    @property
    def cell_shape(self) -> tuple:
        return tuple(n - 1 for n in self.extents)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.extents))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cell_shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def lengths(self) -> tuple:
        return tuple((n - 1) * h for n, h in zip(self.extents, self.spacing))

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.extents, dtype=bool)
        for axis in range(self.dim):
            index = [slice(None)] * self.dim
            index[axis] = 0
            mask[tuple(index)] = True
            index[axis] = -1
            mask[tuple(index)] = True
        return mask

    @cached_property
    def riesz_spectrum(self) -> np.ndarray:
        """Eigenvalues of gradient_adjoint o gradient on the interior nodes.

        Every one-axis factor of that operator is tridiagonal Toeplitz, so
        the DST-I basis diagonalizes it: with theta = pi*k/(n-1), the
        difference factor has eigenvalue 4*sin(theta/2)^2/h^2 and the 2D
        edge-averaging factor cos(theta/2)^2.  The values carry the factor
        2*(n-1) per axis by which two DST-Is exceed the identity, so that
        `riesz_solve` is two plain transforms around one division.
        """
        half = [0.5 * np.pi * np.arange(1, n - 1) / (n - 1) for n in self.extents]
        stiff = [4.0 * np.sin(t) ** 2 / h**2 for t, h in zip(half, self.spacing)]
        if self.dim == 1:
            spectrum = stiff[0]
        else:
            mass = [np.cos(t) ** 2 for t in half]
            spectrum = np.outer(stiff[0], mass[1]) + np.outer(mass[0], stiff[1])
        return spectrum * float(np.prod([2.0 * (n - 1) for n in self.extents]))

    def axis_nodes(self, axis: int) -> np.ndarray:
        return self.spacing[axis] * np.arange(self.extents[axis])

    def node_coordinates(self) -> tuple:
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def cell_midpoints(self) -> tuple:
        axes = [
            self.spacing[a] * (np.arange(self.extents[a] - 1) + 0.5)
            for a in range(self.dim)
        ]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def zero_function(self) -> np.ndarray:
        return np.zeros(self.extents)


def interval_grid(n_nodes: int, length: float = 1.0) -> StructuredGrid:
    return StructuredGrid((n_nodes,), (length / (n_nodes - 1),))


def rectangle_grid(extents, lengths=(1.0, 1.0)) -> StructuredGrid:
    nx, ny = extents
    lx, ly = lengths
    return StructuredGrid((nx, ny), (lx / (nx - 1), ly / (ny - 1)))


def grid_from_config(cfg: dict) -> StructuredGrid:
    extents = [int(n) for n in cfg["extents"]]
    lengths = [float(l) for l in cfg.get("lengths", [1.0] * len(extents))]
    if len(lengths) != len(extents):
        raise ValueError("config lengths and extents disagree in dimension")
    spacing = tuple(l / (n - 1) for l, n in zip(lengths, extents))
    return StructuredGrid(tuple(extents), spacing)


def grid_to_config(grid: StructuredGrid) -> dict:
    return {"extents": list(grid.extents), "lengths": list(grid.lengths)}


def check_grid_function(u, grid: StructuredGrid) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"nodal shape {u.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("nodal values must be finite")
    return u


def apply_dirichlet(u, grid: StructuredGrid) -> np.ndarray:
    """Copy of u with masked boundary nodes forced to zero."""
    out = check_grid_function(u, grid).copy()
    out[grid.boundary_mask] = 0.0
    return out


def require_dirichlet(u, grid: StructuredGrid) -> np.ndarray:
    u = check_grid_function(u, grid)
    if np.any(u[grid.boundary_mask] != 0.0):
        raise ValueError("nodal values must vanish on masked boundary nodes")
    return u


def gradient(u, grid: StructuredGrid) -> np.ndarray:
    """Per-cell gradient, shape cell_shape + (dim,).

    1D: forward difference across the cell.  2D: along each axis, the two
    opposite-edge forward differences of the cell are averaged, which is
    exact for bilinear functions at cell midpoints.  Differences are
    grouped before cross-axis sums so grid reflections commute with the
    stencil in exact floating point (symmetric seeds keep their parity).
    """
    u = check_grid_function(u, grid)
    if grid.dim == 1:
        h = grid.spacing[0]
        return ((u[1:] - u[:-1]) / h)[:, None]
    hx, hy = grid.spacing
    gx = ((u[1:, :-1] - u[:-1, :-1]) + (u[1:, 1:] - u[:-1, 1:])) / (2.0 * hx)
    gy = ((u[:-1, 1:] - u[:-1, :-1]) + (u[1:, 1:] - u[1:, :-1])) / (2.0 * hy)
    return np.stack([gx, gy], axis=-1)


def _zero_pad(x: np.ndarray, axes: tuple) -> np.ndarray:
    """x inside a one-wide zero border along the given axes (np.pad(x, 1) on them).

    A preallocated array filled by slice assignment holds the same values
    as np.pad at a fraction of its per-call overhead.
    """
    shape, inner = list(x.shape), [slice(None)] * x.ndim
    for k in axes:
        shape[k] += 2
        inner[k] = slice(1, -1)
    out = np.zeros(shape)
    out[tuple(inner)] = x
    return out


def gradient_adjoint(a, grid: StructuredGrid) -> np.ndarray:
    """Adjoint of `gradient` for cell vector fields a, returns nodal values.

    Assembled from zero-padded differences with the same reflection-safe
    term grouping as `gradient`.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != grid.cell_shape + (grid.dim,):
        raise ValueError("cell vector field has wrong shape")
    if grid.dim == 1:
        h = grid.spacing[0]
        axp = _zero_pad(a[:, 0] / h, (0,))
        return axp[:-1] - axp[1:]
    hx, hy = grid.spacing
    axp = _zero_pad(a[..., 0] / (2.0 * hx), (0,))
    dx = axp[:-1, :] - axp[1:, :]
    dxp = _zero_pad(dx, (1,))
    ayp = _zero_pad(a[..., 1] / (2.0 * hy), (1,))
    dy = ayp[:, :-1] - ayp[:, 1:]
    dyp = _zero_pad(dy, (0,))
    return (dxp[:, :-1] + dxp[:, 1:]) + (dyp[:-1, :] + dyp[1:, :])


def gradient_magnitude(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(g * g, axis=-1))


def cell_values(u, grid: StructuredGrid) -> np.ndarray:
    """Corner average of nodal values, one scalar per cell."""
    u = check_grid_function(u, grid)
    if grid.dim == 1:
        return 0.5 * (u[1:] + u[:-1])
    return 0.25 * ((u[:-1, :-1] + u[1:, :-1]) + (u[:-1, 1:] + u[1:, 1:]))


def cell_values_adjoint(b, grid: StructuredGrid) -> np.ndarray:
    """Adjoint of `cell_values`: redistribute cell weights to corner nodes."""
    b = np.asarray(b, dtype=float)
    if b.shape != grid.cell_shape:
        raise ValueError("cell field has wrong shape")
    if grid.dim == 1:
        bp = _zero_pad(0.5 * b, (0,))
        return bp[:-1] + bp[1:]
    bp = _zero_pad(0.25 * b, (0, 1))
    return (bp[:-1, :-1] + bp[1:, :-1]) + (bp[:-1, 1:] + bp[1:, 1:])


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along one axis (scipy.fft.dst type 1 convention).

    y_k = 2 * sum_j x_j sin(pi (j+1) (k+1) / (m+1)), read off the real FFT
    of the odd extension [0, x, 0, -x reversed].
    """
    m = x.shape[axis]
    zero = np.zeros_like(np.take(x, [0], axis=axis))
    odd = np.concatenate([zero, x, zero, -np.flip(x, axis)], axis=axis)
    return -np.take(np.fft.rfft(odd, axis=axis).imag, np.arange(1, m + 1), axis=axis)


def _spectral_solve(r: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    for axis in range(r.ndim):
        r = _dst1(r, axis)
    r = r / spectrum
    for axis in range(r.ndim):
        r = _dst1(r, axis)
    return r


def _parity_solve(r: np.ndarray, spectrum: np.ndarray, axis: int = 0) -> np.ndarray:
    """Solve on the even and odd parts of r along each axis separately.

    Each partial solution is projected back onto its own parity, so a
    reflected right-hand side yields the reflected solution bit for bit;
    a plain transform would mix the two classes at rounding level.
    """
    if axis == r.ndim:
        return _spectral_solve(r, spectrum)
    even = _parity_solve(0.5 * (r + np.flip(r, axis)), spectrum, axis + 1)
    odd = _parity_solve(0.5 * (r - np.flip(r, axis)), spectrum, axis + 1)
    return 0.5 * (even + np.flip(even, axis)) + 0.5 * (odd - np.flip(odd, axis))


def riesz_solve(g, grid: StructuredGrid) -> np.ndarray:
    """Solve (gradient_adjoint o gradient) d = g on the interior nodes.

    This is the Riesz map of the discrete H^1_0 inner product (up to the
    cell volume): d vanishes on the Dirichlet nodes and the boundary
    values of g are ignored.  The solve is exact, by DST-I along each
    axis, and commutes with grid reflections in exact floating point.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape:
        raise ValueError(f"nodal shape {g.shape} does not match grid {grid.shape}")
    interior = (slice(1, -1),) * grid.dim
    d = np.zeros(grid.shape)
    d[interior] = _parity_solve(g[interior], grid.riesz_spectrum)
    return d


def integrate(f, grid: StructuredGrid) -> float:
    """Midpoint-rule integral of a per-cell scalar field."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.cell_shape:
        raise ValueError(f"cell field shape {f.shape} does not match {grid.cell_shape}")
    return float(np.sum(f) * grid.cell_volume)
