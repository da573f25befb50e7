"""Structured tensor-product grids with homogeneous Dirichlet masking.

Nodal functions are plain numpy arrays shaped like ``grid.extents``; cell
fields carry one value per cell (scalars) or one vector per cell
(gradients, trailing axis of length ``dim``).  A 2D gradient keeps that
``(cells, dim)`` shape but is stored component-planar, as a view of two
contiguous cell planes, so each component is read and reduced as one
contiguous array; callers that need interleaved memory call
``np.ascontiguousarray``.  Exponents and weights are always sampled at
cell midpoints, never at nodes, so the node-to-cell bridge below (forward
differences averaged over opposite edges, corner averaging for values)
keeps every energy a smooth composition of linear maps with one power per
cell.

The stencils, their adjoints and `riesz_solve` also take a leading batch
axis: a stack of k nodal functions of shape ``(k,) + grid.shape`` (or of
k cell fields) maps to the stack of the k results, each row bit for bit
what the row alone gives.  The lockstep descents of the solvers run their
rows through one call this way.
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

    @cached_property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple:
        return self.extents

    @cached_property
    def cell_shape(self) -> tuple:
        return tuple(n - 1 for n in self.extents)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.extents))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cell_shape))

    @cached_property
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
    def _boundary_index(self) -> np.ndarray:
        """Flat C-order indices of the boundary nodes, for a gather by take."""
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def _boundary_faces(self) -> tuple:
        """One index per axis that selects both end faces of that axis, for one
        nodal function or a stack of them (a step of n - 1 along the axis)."""
        faces = []
        for axis, n in enumerate(self.extents):
            index = [slice(None)] * self.dim
            index[axis] = slice(None, None, n - 1)
            faces.append((Ellipsis, *index))
        return tuple(faces)

    @cached_property
    def riesz_blocks(self) -> tuple:
        """Half-size DST-I parity blocks and class spectra of a 2D grid's `riesz_solve`.

        Every one-axis factor of gradient_adjoint o gradient is tridiagonal
        Toeplitz, so the DST-I basis diagonalizes it: with theta = pi*k/(n-1),
        the difference factor has eigenvalue 4*sin(theta/2)^2/h^2 and the 2D
        edge-averaging factor cos(theta/2)^2.  Reflecting the n-2 interior
        nodes maps sine k to (-1)^(k+1) times itself, so mirror-even data
        excite only odd k (class 0) and mirror-odd data only even k (class 1).

        Returns (blocks, spectra).  blocks[axis][c] = (forward, backward)
        acts on the half of the interior next to node 0 that class c keeps
        (ceil((n-2)/2) nodes for class 0, floor((n-2)/2) for class 1):
        forward.T @ half gives the class entries of the unnormalized DST-I
        (scipy.fft.dst type 1) of the mirrored vector, and backward @ coef
        gives that half of the DST-I of a spectrum supported on the class.
        spectra[a, b] holds the eigenvalues of class (a, b), times the
        2*(n-1) per axis by which two DST-Is exceed the identity.  The 1D
        solve needs none of this.
        """
        blocks = []
        for n in self.extents:
            m = n - 2
            rows = np.arange(1, (m + 1) // 2 + 1)[:, None]
            pair = []
            for c in (0, 1):
                modes = np.arange(c + 1, m + 1, 2)
                phase = (rows[: modes.size] * modes) % (2 * (m + 1))
                backward = 2.0 * np.sin(np.pi * phase / (m + 1))
                forward = 2.0 * backward
                if c == 0 and m % 2:
                    forward[-1] = backward[-1]  # the centre node has no mirror partner
                pair.append((forward, backward))
            blocks.append(tuple(pair))
        half = [0.5 * np.pi * np.arange(1, n - 1) / (n - 1) for n in self.extents]
        stiff = [4.0 * np.sin(t) ** 2 / h**2 for t, h in zip(half, self.spacing)]
        mass = [np.cos(t) ** 2 for t in half]
        spectrum = np.outer(stiff[0], mass[1]) + np.outer(mass[0], stiff[1])
        spectrum *= 4.0 * (self.extents[0] - 1) * (self.extents[1] - 1)
        spectra = {(a, b): spectrum[a::2, b::2].copy() for a in (0, 1) for b in (0, 1)}
        return tuple(blocks), spectra

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


def _stacked(x: np.ndarray, trailing: tuple) -> bool:
    """Whether x has the shape `trailing`, alone or behind one leading batch axis."""
    return x.shape == trailing or (x.ndim == len(trailing) + 1 and x.shape[1:] == trailing)


def _as_nodal(u, grid: StructuredGrid) -> np.ndarray:
    """u as a float array, checked for the nodal shape only (no finiteness pass)."""
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape and not _stacked(u, grid.shape):
        raise ValueError(f"nodal shape {u.shape} does not match grid {grid.shape}")
    return u


def check_grid_function(u, grid: StructuredGrid) -> np.ndarray:
    u = _as_nodal(u, grid)
    if not np.isfinite(u).all():
        raise ValueError("nodal values must be finite")
    return u


def apply_dirichlet(u, grid: StructuredGrid) -> np.ndarray:
    """Copy of u with masked boundary nodes forced to zero."""
    out = check_grid_function(u, grid).copy()
    _clear_boundary(out, grid)
    return out


def _clear_boundary(u: np.ndarray, grid: StructuredGrid) -> None:
    """Zero the Dirichlet nodes of a nodal function (or a stack) in place."""
    for face in grid._boundary_faces:
        u[face] = 0.0


def require_dirichlet(u, grid: StructuredGrid) -> np.ndarray:
    u = check_grid_function(u, grid)
    nodes = u.reshape(u.shape[: u.ndim - grid.dim] + (-1,))
    if np.count_nonzero(nodes.take(grid._boundary_index, axis=-1)):
        raise ValueError("nodal values must vanish on masked boundary nodes")
    return u


def gradient(u, grid: StructuredGrid) -> np.ndarray:
    """Per-cell gradient, shape cell_shape + (dim,).

    1D: forward difference across the cell.  2D: along each axis, the two
    opposite-edge forward differences of the cell are averaged, which is
    exact for bilinear functions at cell midpoints.  Differences are
    grouped before cross-axis sums so grid reflections commute with the
    stencil in exact floating point (symmetric seeds keep their parity).
    The 2D result is component-planar: a view of one (2,) + cell_shape
    buffer, so g[..., k] is C-contiguous; np.ascontiguousarray gives the
    interleaved layout with the same values.
    Only the shape is checked; finiteness is checked where outside input
    enters (`check_grid_function` and its callers).
    """
    u = _as_nodal(u, grid)
    if grid.dim == 1:
        h = grid.spacing[0]
        return ((u[..., 1:] - u[..., :-1]) / h)[..., None]
    hx, hy = grid.spacing
    dx, dy = u[..., 1:, :] - u[..., :-1, :], u[..., 1:] - u[..., :-1]  # each edge once
    buf = np.empty(u.shape[:-2] + (2,) + grid.cell_shape)
    gx, gy = buf[..., 0, :, :], buf[..., 1, :, :]
    np.add(dx[..., :-1], dx[..., 1:], out=gx)
    gx /= 2.0 * hx
    np.add(dy[..., :-1, :], dy[..., 1:, :], out=gy)
    gy /= 2.0 * hy
    return buf.swapaxes(-3, -2).swapaxes(-2, -1)


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


def _padded_edge_differences(c: np.ndarray, axis: int) -> np.ndarray:
    """Edge differences of 2D cell planes c along axis (-2 or -1), inside a zero border across it.

    With c zero-padded along axis, entry i is c[i-1] - c[i]: 0 - c[0]
    first, c[-1] - 0 last.  These are the values `_zero_pad` gave when
    applied before and after the differences, written straight into one
    zero buffer, so the rounding and the signs of zeros are the same.
    """
    shape = list(c.shape)
    shape[-2] += 2
    shape[-1] += 2
    shape[axis] -= 1
    out = np.zeros(shape)
    inner, c = out.swapaxes(-2, axis)[..., 1:-1], c.swapaxes(-2, axis)
    np.subtract(0.0, c[..., 0, :], out=inner[..., 0, :])
    np.subtract(c[..., :-1, :], c[..., 1:, :], out=inner[..., 1:-1, :])
    inner[..., -1, :] = c[..., -1, :]
    return out


def gradient_adjoint(a, grid: StructuredGrid) -> np.ndarray:
    """Adjoint of `gradient` for cell vector fields a, returns nodal values.

    Assembled from zero-padded differences with the same reflection-safe
    term grouping as `gradient`; in 2D each component plane of a is read
    once, so planar input (as `gradient` returns) is read contiguously.
    """
    a = np.asarray(a, dtype=float)
    if not _stacked(a, grid.cell_shape + (grid.dim,)):
        raise ValueError("cell vector field has wrong shape")
    if grid.dim == 1:
        h = grid.spacing[0]
        axp = _zero_pad(a[..., 0] / h, (-1,))
        return axp[..., :-1] - axp[..., 1:]
    hx, hy = grid.spacing
    dxp = _padded_edge_differences(a[..., 0] / (2.0 * hx), -2)
    dyp = _padded_edge_differences(a[..., 1] / (2.0 * hy), -1)
    return (dxp[..., :-1] + dxp[..., 1:]) + (dyp[..., :-1, :] + dyp[..., 1:, :])


def gradient_magnitude(g: np.ndarray) -> np.ndarray:
    """|g| per cell; bit for bit np.sqrt(np.sum(g * g, axis=-1)), in either layout."""
    return np.sqrt(_squared_norm(g))


def _squared_norm(g: np.ndarray) -> np.ndarray:
    """Sum of the squared components of a cell vector field, component by component."""
    out = g[..., 0] * g[..., 0]
    for k in range(1, g.shape[-1]):
        out += g[..., k] * g[..., k]
    return out


def cell_values(u, grid: StructuredGrid) -> np.ndarray:
    """Corner average of nodal values, one scalar per cell (shape check only)."""
    u = _as_nodal(u, grid)
    if grid.dim == 1:
        return 0.5 * (u[..., 1:] + u[..., :-1])
    return 0.25 * ((u[..., :-1, :-1] + u[..., 1:, :-1]) + (u[..., :-1, 1:] + u[..., 1:, 1:]))


def cell_values_adjoint(b, grid: StructuredGrid) -> np.ndarray:
    """Adjoint of `cell_values`: redistribute cell weights to corner nodes."""
    b = np.asarray(b, dtype=float)
    if not _stacked(b, grid.cell_shape):
        raise ValueError("cell field has wrong shape")
    if grid.dim == 1:
        bp = _zero_pad(0.5 * b, (-1,))
        return bp[..., :-1] + bp[..., 1:]
    bp = _zero_pad(0.25 * b, (-2, -1))
    return (bp[..., :-1, :-1] + bp[..., 1:, :-1]) + (bp[..., :-1, 1:] + bp[..., 1:, 1:])


def _halves(r: np.ndarray, scale: float = 0.5) -> tuple:
    """Mirror-even and mirror-odd parts of r along axis 0, on the half next to row 0.

    The sums commute, so a reflected r gives the same even half and the
    negated odd half bit for bit.  The even half keeps the centre row of an
    odd-length axis; the odd part vanishes there and its half stops short.
    """
    m, f = r.shape[0], r[::-1]
    return scale * (r[: (m + 1) // 2] + f[: (m + 1) // 2]), scale * (r[: m // 2] - f[: m // 2])


def _mirror(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write even + odd extended by their parities along axis 0 into out."""
    k = odd.shape[0]
    np.add(even[:k], odd, out=out[:k])
    np.subtract(even[:k], odd, out=out[::-1][:k])
    if even.shape[0] > k:
        out[k] = even[k]  # the odd part is exactly 0 on the centre row
    return out


def _riesz_solve_1d(r: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Exact O(n) solve of [-1, 2, -1]/h^2 by two cumulative sums per parity class.

    Node j's equation says that the drop from node j to its outer neighbour
    exceeds the drop from its inner neighbour by h^2 r_j, so the drops are
    a cumulative sum running outward from the centre, and the values their
    sum running inward from the zero boundary node.  The even class starts
    at zero slope; a centre node is its own mirror, so it takes half its
    value.  The odd class adds to that particular solution the multiple of
    the linear homogeneous solution that makes it antisymmetric about the
    centre: zero on a centre node (offset a = 1) or opposite on the two
    middle nodes (a = 1/2).  r is (m, k): k columns, each solved alone.
    """
    m = r.shape[0]
    even, odd = _halves(r, 0.5 * h * h)
    if m % 2:
        even[-1] *= 0.5
    even = np.cumsum(np.cumsum(even[::-1], axis=0)[::-1], axis=0)
    odd = np.cumsum(np.cumsum(odd[::-1], axis=0)[::-1], axis=0)
    k, a = odd.shape[0], 0.5 + 0.5 * (m % 2)
    odd -= odd[-1:] * (np.arange(1, k + 1) / (k + a))[:, None]
    return _mirror(even, odd, out)


def _riesz_solve_2d(r: np.ndarray, grid: StructuredGrid, out: np.ndarray) -> np.ndarray:
    """Four half-size dense solves, one per pair of axis parities."""
    (bx, by), spectra = grid.riesz_blocks
    rows = []
    for a, ra in enumerate(_halves(r)):
        fa, ba = bx[a]
        cols = []
        for b, rab in enumerate(_halves(ra.T)):
            fb, bb = by[b]
            coef = (fa.T @ rab.T @ fb) / spectra[a, b]
            cols.append((ba @ coef @ bb.T).T)
        rows.append(_mirror(*cols, np.empty((r.shape[1], ra.shape[0]))).T)
    return _mirror(*rows, out)


def riesz_solve(g, grid: StructuredGrid) -> np.ndarray:
    """Solve (gradient_adjoint o gradient) d = g on the interior nodes.

    This is the Riesz map of the discrete H^1_0 inner product (up to the
    cell volume): d vanishes on the Dirichlet nodes and the boundary
    values of g are ignored.  The interior data are split into their
    mirror-even and mirror-odd halves along each axis, each parity class is
    solved on its half alone and the result is mirrored back.  The solve is
    exact: in 1D by the two-cumulative-sum recurrence of the tridiagonal
    operator, in O(n); in 2D by the half-size DST-I blocks of
    `StructuredGrid.riesz_blocks`, four small dense products per class.
    Because every class sees the same half for a reflected right-hand side
    (the odd ones negated), the solve commutes with grid reflections and
    with a sign change in exact floating point.  A leading axis of g holds
    k right-hand sides, each solved bit for bit as if it were alone.
    """
    g = _as_nodal(g, grid)
    cols = g.reshape((-1,) + grid.shape)
    d = np.zeros(cols.shape)
    interior = (slice(None),) + (slice(1, -1),) * grid.dim
    r, out = cols[interior], d[interior]
    if grid.dim == 1:
        _riesz_solve_1d(r.T, grid.spacing[0], out.T)
    else:
        for r_k, out_k in zip(r, out):
            _riesz_solve_2d(r_k, grid, out_k)
    return d.reshape(g.shape)


def integrate(f, grid: StructuredGrid) -> float:
    """Midpoint-rule integral of a per-cell scalar field."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.cell_shape:
        raise ValueError(f"cell field shape {f.shape} does not match {grid.cell_shape}")
    return float(np.sum(f) * grid.cell_volume)
