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

`riesz_solve` inverts gradient_adjoint o W o gradient for a positive cell
weight W: in 1D exactly, by one flux recurrence; in 2D exactly for W = 1
and by a fixed Chebyshev iteration on those exact solves otherwise.
Mirror flags (the half grids of folded solves) exist on 2D grids only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "StructuredGrid",
    "interval_grid",
    "rectangle_grid",
    "grid_from_config",
    "check_grid_function",
    "apply_dirichlet",
    "require_dirichlet",
    "gradient",
    "gradient_adjoint",
    "gradient_magnitude",
    "cell_values",
    "cell_values_adjoint",
    "riesz_solve",
]

# P solves per weighted 2D `riesz_solve`, the steps of its fixed Chebyshev iteration (A_W is
# applied once fewer).  On the 81x97 pass family of the benchmark 2, 3, 4 and 6 solves take
# 39, 27, 29 and 26 searches (52 with the H^1_0 step): 3 is the knee.
CHEBYSHEV_SOLVES = 3


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform tensor-product grid in one or two dimensions.

    mirror holds one flag per axis (all False by default), on 2D grids
    only.  A flagged axis ends on the mirror line of a mirror-even
    function: the grid is the half next to node 0 of a grid with 2n - 1
    nodes on that axis, its last node lies on the mirror line and is free,
    not a Dirichlet node.  A solve restricted to the fixed-point subspace
    of the reflections runs on such a grid; the half of a mirror-odd
    function needs no flag, since it vanishes on the mirror line like on
    any Dirichlet face.  A 1D grid takes no flag: its solves step in a
    variable metric, and the weighted `riesz_solve` has no free end.
    """

    extents: tuple
    spacing: tuple
    mirror: tuple = ()

    def __post_init__(self):
        if len(self.extents) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(self.spacing) != len(self.extents):
            raise ValueError("spacing and extents must have matching length")
        mirror = tuple(bool(m) for m in self.mirror) or (False,) * len(self.extents)
        if len(mirror) != len(self.extents):
            raise ValueError("mirror flags and extents must have matching length")
        if len(mirror) == 1 and mirror[0]:
            raise ValueError("a mirror flag needs a 2D grid")
        object.__setattr__(self, "mirror", mirror)
        if not all(map(_is_extent, self.extents)):
            raise ValueError(f"extents must be integers of at least 3 nodes, got {self.extents!r}")
        spacing = tuple(float(h) for h in self.spacing)
        if not all(h > 0 and math.isfinite(h) for h in spacing):
            raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", spacing)

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
        """The Dirichlet nodes: both end faces of each axis, the first only on a flagged one."""
        mask = np.zeros(self.extents, dtype=bool)
        for face in self._boundary_faces:
            mask[face] = True
        return mask

    @cached_property
    def _boundary_index(self) -> np.ndarray:
        """Flat C-order indices of the boundary nodes, for a gather by take."""
        return np.flatnonzero(self.boundary_mask)

    @cached_property
    def _boundary_faces(self) -> tuple:
        """One index per axis that selects its Dirichlet faces, for one nodal
        function or a stack of them: both end faces (a step of n - 1 along
        the axis), or the first alone on a mirror-flagged axis."""
        faces = []
        for axis, (n, mirror) in enumerate(zip(self.extents, self.mirror)):
            index = [slice(None)] * self.dim
            index[axis] = 0 if mirror else slice(None, None, n - 1)
            faces.append((Ellipsis, *index))
        return tuple(faces)

    @cached_property
    def _interior(self) -> tuple:
        """Index of the free nodes of a stack of nodal functions, a box behind its leading axis."""
        return (slice(None),) + tuple(slice(1, None if m else -1) for m in self.mirror)

    @cached_property
    def _mirror_weight(self):
        """2**c at a node on c mirror lines, or None on a grid without mirror flags.

        In the mirror-even extension of a flagged grid's nodal function such
        a node appears 2**(f-c) times for f flagged axes, and the
        extension's nodal gradient there is 2**c times the grid's own.
        """
        if not any(self.mirror):
            return None
        w = np.ones(self.extents)
        for axis, mirror in enumerate(self.mirror):
            if mirror:
                w[(slice(None),) * axis + (-1,)] *= 2.0
        return w

    @cached_property
    def riesz_blocks(self) -> tuple:
        """Half-size DST-I parity blocks and class spectra of a 2D grid's `riesz_solve`.

        Every one-axis factor of gradient_adjoint o gradient is tridiagonal
        Toeplitz, so the DST-I basis diagonalizes it: with theta = pi*k/(n-1),
        the difference factor has eigenvalue 4*sin(theta/2)^2/h^2 and the 2D
        edge-averaging factor cos(theta/2)^2.  Reflecting the n-2 interior
        nodes maps sine k to (-1)^(k+1) times itself, so mirror-even data
        excite only odd k (class 0) and mirror-odd data only even k (class 1).
        A mirror-flagged axis of n nodes is the half of an axis of 2n - 1
        nodes, whose blocks it takes.

        Returns (blocks, spectra).  blocks[axis][c] = backward acts on the
        half of the interior next to node 0 that class c keeps
        (ceil((n-2)/2) nodes for class 0, floor((n-2)/2) for class 1):
        2 * backward.T @ half gives the class entries of the unnormalized
        DST-I (scipy.fft.dst type 1) of the mirrored vector, with the centre
        node of an odd-length interior, which is its own mirror partner,
        counted at half its value in half; backward @ coef gives that half of
        the DST-I of a spectrum supported on the class.  spectra[a, b] holds
        the eigenvalues of class (a, b), times n-1 per axis: the 2*(n-1) by
        which two DST-Is exceed the identity, over the 2 that backward.T
        leaves out.  The 1D solve needs none of this.
        """
        ends = [2 * n - 1 if mirror else n for n, mirror in zip(self.extents, self.mirror)]
        blocks = []
        for n in ends:
            m = n - 2
            rows = np.arange(1, (m + 1) // 2 + 1)[:, None]
            pair = []
            for c in (0, 1):
                modes = np.arange(c + 1, m + 1, 2)
                phase = (rows[: modes.size] * modes) % (2 * (m + 1))
                pair.append(2.0 * np.sin(np.pi * phase / (m + 1)))
            blocks.append(tuple(pair))
        half = [0.5 * np.pi * np.arange(1, n - 1) / (n - 1) for n in ends]
        stiff = [4.0 * np.sin(t) ** 2 / h**2 for t, h in zip(half, self.spacing)]
        mass = [np.cos(t) ** 2 for t in half]
        spectrum = np.outer(stiff[0], mass[1]) + np.outer(mass[0], stiff[1])
        spectrum *= (ends[0] - 1) * (ends[1] - 1)
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


def interval_grid(n_nodes: int, length: float = 1.0) -> StructuredGrid:
    return StructuredGrid((n_nodes,), (length / (n_nodes - 1),))


def rectangle_grid(extents, lengths=(1.0, 1.0)) -> StructuredGrid:
    nx, ny = extents
    lx, ly = lengths
    return StructuredGrid((nx, ny), (lx / (nx - 1), ly / (ny - 1)))


def _is_extent(n) -> bool:
    """Whether n is an integer of at least 3 (nodes); booleans are none."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 3


def _is_length(x) -> bool:
    """Whether x is a finite positive number; booleans are none."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) and x > 0


def grid_from_config(cfg: dict) -> StructuredGrid:
    """The grid of a config's problem section, its values checked before they are divided."""
    extents = cfg["extents"]
    if not (isinstance(extents, list) and extents and all(map(_is_extent, extents))):
        raise ValueError(f"config extents must be a list of integers >= 3, got {extents!r}")
    lengths = cfg.get("lengths", [1.0] * len(extents))
    if not (isinstance(lengths, list) and all(map(_is_length, lengths))):
        raise ValueError(f"config lengths must be a list of finite numbers > 0, got {lengths!r}")
    if len(lengths) != len(extents):
        raise ValueError("config lengths and extents disagree in dimension")
    spacing = tuple(l / (n - 1) for l, n in zip(lengths, extents))
    return StructuredGrid(tuple(extents), spacing)


def _stacked(x: np.ndarray, trailing: tuple) -> bool:
    """Whether x has the shape `trailing`, alone or behind one leading batch axis."""
    return x.shape[x.ndim > len(trailing) :] == trailing


def _as_nodal(u, grid: StructuredGrid) -> np.ndarray:
    """u as a float array, checked for the nodal shape only (no finiteness pass)."""
    u = np.asarray(u, dtype=float)
    if u.shape[u.ndim > grid.dim :] != grid.extents:  # `_stacked`, inlined: every stencil runs it
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


def _halves(r: np.ndarray) -> tuple:
    """Mirror-even and mirror-odd parts of r along axis -2, on the half next to its row 0.

    The sums commute, so a reflected r gives the same even half and the
    negated odd half bit for bit.  The even half keeps the centre row of an
    odd-length axis; the odd part vanishes there and its half stops short.
    Leading axes are a batch.
    """
    m, f = r.shape[-2], r[..., ::-1, :]
    even, odd = slice((m + 1) // 2), slice(m // 2)
    return 0.5 * (r[..., even, :] + f[..., even, :]), 0.5 * (r[..., odd, :] - f[..., odd, :])


def _classes(r: np.ndarray, mirror: bool) -> tuple:
    """The parity-class halves along axis -2 of interior data r that a solve keeps.

    On an axis with both ends Dirichlet these are `_halves`, with the centre
    row of an odd-length axis halved in the even class: it is its own
    mirror partner, so the class solve, which counts every row of the half
    twice, counts it once.  The interior of a mirror-flagged axis is the
    even half itself, whose mirror row the grid already holds at half its
    weight, so a copy of r (laid out like the halves) is its only class.
    """
    if mirror:
        return (np.copy(r),)
    even, odd = _halves(r)
    if r.shape[-2] % 2:
        even[..., -1, :] *= 0.5
    return even, odd


def _unclasses(parts: tuple, out: np.ndarray) -> np.ndarray:
    """Write the class solutions of `_classes` back into out along axis -2."""
    if len(parts) == 1:
        out[...] = parts[0]
        return out
    return _mirror(*parts, out)


def _mirror(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write even + odd extended by their parities along axis -2 into out."""
    k = odd.shape[-2]
    np.add(even[..., :k, :], odd, out=out[..., :k, :])
    np.subtract(even[..., :k, :], odd, out=out[..., ::-1, :][..., :k, :])
    if even.shape[-2] > k:
        out[..., k, :] = even[..., k, :]  # the odd part is exactly 0 on the centre row
    return out


def _flux_solve_1d(r: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Exact O(n) solve of gradient_adjoint o W o gradient, run from node 0.

    Node j's equation says that the flux W (u_{j+1} - u_j) / h^2 drops by
    r_j across it, so the fluxes are a constant minus a cumulative sum of
    r, and the values a cumulative sum of the differences h^2 f / W from
    node 0.  The zero value at the far end fixes the constant.  Fluxes are
    counted from that of the pivot, the cell of least W, whose difference
    weighs most in the end value: its own flux then comes out of the
    weighted mean without cancelling against the partial sums, which
    would cost up to eps * max(W) / min(W) of relative accuracy.  r is
    (k, m) interior data, w (k, m + 1) cell weights; rows are solved alone.
    """
    sums = np.zeros(w.shape)
    np.cumsum(r, axis=-1, out=sums[..., 1:])
    inv = (h * h) / w
    pivot = sums[np.arange(len(sums)), np.argmax(inv, axis=-1)][:, None]
    drop = pivot - sums  # each cell's flux minus the pivot cell's
    flux = drop - (drop * inv).sum(axis=-1, keepdims=True) / inv.sum(axis=-1, keepdims=True)
    return np.cumsum(flux * inv, axis=-1)[..., :-1]


def _riesz_solve_2d(r: np.ndarray, grid: StructuredGrid, out: np.ndarray) -> np.ndarray:
    """One half-size dense solve per pair of axis parities that `_classes` keeps.

    r and out are stacks of interior data; each product is one stacked
    matmul over the rows, which runs the row's own 2D product for each, so
    every row comes out bit for bit as if it were alone.
    """
    (bx, by), spectra = grid.riesz_blocks
    mx, my = grid.mirror
    rows = []
    for a, ra in enumerate(_classes(r, mx)):
        ba, cols = bx[a], []
        for b, rab in enumerate(_classes(ra.swapaxes(-1, -2), my)):
            bb = by[b]
            coef = (ba.T @ rab.swapaxes(-1, -2) @ bb) / spectra[a, b]
            cols.append((ba @ coef @ bb.T).swapaxes(-1, -2))
        half = np.empty(r.shape[:-2] + (r.shape[-1], ra.shape[-2]))
        rows.append(_unclasses(cols, half).swapaxes(-1, -2))
    return _unclasses(rows, out)


def _chebyshev_solve_2d(g: np.ndarray, grid: StructuredGrid, w: np.ndarray) -> np.ndarray:
    """CHEBYSHEV_SOLVES steps of Chebyshev for (gradient_adjoint o W o gradient) d = g.

    The preconditioner is the exact solve of P = gradient_adjoint o
    gradient, and the spectrum of P^-1 A_W lies in [min W, max W] of each
    row (Rayleigh quotients of the cell sums), centre theta and half-width
    delta (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed. 2003,
    Alg. 12.1).  The recurrence rho_0 = delta / theta, rho_k+1 = delta /
    (2 theta - delta rho_k), with correction weight 2 / (2 theta - delta
    rho_k), never divides by delta, so a constant W (delta = 0) gives the
    exact P solve over W.  d starts at 0; the A_W-norm error then shrinks
    by 1 / T_k(theta / delta) = 2 r^k / (1 + r^2k) at least, for k solves
    and r = (sqrt(kappa) - 1) / (sqrt(kappa) + 1), kappa = max W / min W.
    Every term is a stencil, a P solve or a per-row scalar, so the map is
    linear, fixed and commutes with grid reflections and a sign change bit
    for bit; rows are solved alone.
    """
    lo, hi = (f(w, axis=(-2, -1), keepdims=True) for f in (np.min, np.max))
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    step = riesz_solve(g, grid) / theta
    d, res, rho = step, g, delta / theta
    for _ in range(CHEBYSHEV_SOLVES - 1):
        flux = gradient(step, grid)
        flux *= w[..., None]
        res = res - gradient_adjoint(flux, grid)
        den = 2.0 * theta - delta * rho
        rho_next = delta / den
        step = (rho_next * rho) * step + (2.0 / den) * riesz_solve(res, grid)
        d, rho = d + step, rho_next
    return d


def riesz_solve(g, grid: StructuredGrid, weight=None) -> np.ndarray:
    """Solve (gradient_adjoint o W o gradient) d = g on the interior nodes.

    This is the Riesz map of a discrete weighted H^1_0 inner product (up
    to the cell volume): d vanishes on the Dirichlet nodes and the
    boundary values of g are ignored.  W is a positive per-cell weight,
    shaped like the cells of g (one row per right-hand side), or W = 1
    when none is given: the H^1_0 metric of P = gradient_adjoint o
    gradient.  A leading axis of g holds k right-hand sides, each solved
    bit for bit as if it were alone.  Every solve commutes with grid
    reflections (of g and W) and with a sign change in exact floating
    point.

    In 1D it is exact and runs in O(n) by the flux recurrence of
    `_flux_solve_1d`, from each end, and averages the two.  In 2D the P
    solve is exact: the DST blocks of `StructuredGrid.riesz_blocks`
    diagonalize only constant coefficients, so the interior data are split
    into their mirror-even and mirror-odd halves along each axis, each
    parity class is solved on its half alone by four small dense products
    (stacked over the rows) and the result is mirrored back; every class
    sees the same half for a reflected right-hand side (the odd ones
    negated).  On a mirror-flagged axis the data are already the even
    half, with the free mirror node, and only the even class is solved:
    the solve of the flagged grid's own gradient_adjoint o gradient, which
    is the restriction of the full grid's solve to its mirror-even data.
    A 2D weight is not inverted exactly: `_chebyshev_solve_2d` applies a
    fixed Chebyshev polynomial of P^-1 A_W, within its bound of the exact
    solve for W of a bounded ratio max W / min W.
    """
    g = _as_nodal(g, grid)
    cols, w = g.reshape((-1,) + grid.shape), None
    if weight is not None:
        w = np.asarray(weight, dtype=float)
        if w.shape != g.shape[: g.ndim - grid.dim] + grid.cell_shape:
            raise ValueError(f"weight shape {w.shape} does not match the cells of {g.shape}")
        w = w.reshape((len(cols),) + grid.cell_shape)
        if grid.dim == 2:
            return _chebyshev_solve_2d(cols, grid, w).reshape(g.shape)
    d = np.zeros(cols.shape)
    r, out = cols[grid._interior], d[grid._interior]
    if grid.dim == 2:
        _riesz_solve_2d(r, grid, out)
        return d.reshape(g.shape)
    w = np.ones((len(r), grid.n_cells)) if w is None else w.reshape(len(r), -1)
    h = grid.spacing[0]
    ahead, back = _flux_solve_1d(r, w, h), _flux_solve_1d(r[:, ::-1], w[:, ::-1], h)
    np.multiply(ahead + back[:, ::-1], 0.5, out=out)
    return d.reshape(g.shape)
