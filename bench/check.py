"""Checks on the benchmark's outputs, computed apart from the program.

Everything here uses numpy alone and never imports ``vexspec``: the grid
stencils, energies and gradients are rebuilt from a table of cell corners,
so a fault in the program's stencils or its adjoints cannot hide itself.
The discrete problem is the one the program documents: on each cell the
gradient is the forward difference (averaged over the two opposite edges
in 2D), the value is the corner average, and

    G(u) = sum |grad u|^p / p * vol,     F(u) = sum V |u|^q / q * vol.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """Problem data as the benchmark defines it: nodes per axis, side lengths
    and the per-cell exponent and weight arrays."""

    extents: tuple
    lengths: tuple
    p: np.ndarray
    q: np.ndarray
    V: np.ndarray

    @property
    def spacing(self) -> tuple:
        return tuple(l / (n - 1) for n, l in zip(self.extents, self.lengths))

    @property
    def cell_shape(self) -> tuple:
        return tuple(n - 1 for n in self.extents)

    @property
    def volume(self) -> float:
        return float(np.prod(self.spacing))


def cell_midpoints(extents, lengths) -> tuple:
    axes = [l / (n - 1) * (np.arange(n - 1) + 0.5) for n, l in zip(extents, lengths)]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def _corners(inst: Instance):
    """(node slice, d/dx_a coefficient per axis, value weight) per cell corner."""
    dim = len(inst.extents)
    h = inst.spacing
    out = []
    for corner in itertools.product((0, 1), repeat=dim):
        index = tuple(slice(c, c + n - 1) for c, n in zip(corner, inst.extents))
        # each axis difference is averaged over the 2^(dim-1) parallel edges
        coef = [(1.0 if corner[a] else -1.0) / (h[a] * 2 ** (dim - 1)) for a in range(dim)]
        out.append((index, coef, 0.5**dim))
    return out


def cell_gradient(u: np.ndarray, inst: Instance) -> np.ndarray:
    g = np.zeros(inst.cell_shape + (len(inst.extents),))
    for index, coef, _ in _corners(inst):
        for a, c in enumerate(coef):
            g[..., a] += c * u[index]
    return g


def cell_value(u: np.ndarray, inst: Instance) -> np.ndarray:
    out = np.zeros(inst.cell_shape)
    for index, _, w in _corners(inst):
        out += w * u[index]
    return out


def energies(u: np.ndarray, inst: Instance) -> dict:
    """G, F and the unscaled modulars psi = sum |grad u|^p vol, phi = sum V|u|^q vol."""
    gm = np.sqrt(np.sum(cell_gradient(u, inst) ** 2, axis=-1))
    grad_pow = gm**inst.p * inst.volume
    mass_pow = inst.V * np.abs(cell_value(u, inst)) ** inst.q * inst.volume
    return {
        "G": float(np.sum(grad_pow / inst.p)),
        "F": float(np.sum(mass_pow / inst.q)),
        "psi": float(np.sum(grad_pow)),
        "phi": float(np.sum(mass_pow)),
    }


def _interior(inst: Instance) -> tuple:
    return tuple(slice(1, n - 1) for n in inst.extents)


def energy_gradients(u: np.ndarray, inst: Instance):
    """Interior-node gradients of G and F, assembled corner by corner."""
    g = cell_gradient(u, inst)
    gm = np.sqrt(np.sum(g * g, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(gm > 0.0, gm ** (inst.p - 2.0), 0.0)
    flux = w[..., None] * g * inst.volume
    ub = cell_value(u, inst)
    mass = inst.V * np.abs(ub) ** (inst.q - 1.0) * np.sign(ub) * inst.volume
    dG = np.zeros(inst.extents)
    dF = np.zeros(inst.extents)
    for index, coef, wv in _corners(inst):
        for a, c in enumerate(coef):
            dG[index] += c * flux[..., a]
        dF[index] += wv * mass
    inner = _interior(inst)
    return dG[inner], dF[inner]


def defect(u: np.ndarray, lam: float, inst: Instance) -> float:
    """Relative defect |grad G - lam grad F| / |grad G| over interior nodes."""
    dG, dF = energy_gradients(u, inst)
    return float(np.linalg.norm(dG - lam * dF) / np.linalg.norm(dG))


def lp_gradient_norm(u: np.ndarray, inst: Instance) -> float:
    """Luxemburg norm of |grad u| for a constant exponent, i.e. its L^p norm."""
    p = float(inst.p.flat[0])
    gm = np.sqrt(np.sum(cell_gradient(u, inst) ** 2, axis=-1))
    return float(np.sum(gm**p) * inst.volume) ** (1.0 / p)


def oracle_first_eigenvalue(n: int, length: float = 1.0) -> float:
    """First eigenvalue of the 1D p = q = 2, V = 1 problem on n nodes.

    The stiffness tridiag(-1, 2, -1)/h and the mass h tridiag(1, 2, 1)/4
    share the sine eigenvectors, so lambda_1 = 4 tan^2(pi h / 2 L) / h^2.
    """
    h = length / (n - 1)
    return 4.0 * np.tan(np.pi * h / (2.0 * length)) ** 2 / h**2


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# checks


def check_pair(u, lam, reported_residual, grad_tol, inst: Instance, label: str) -> list:
    """The defect, recomputed here, is within grad_tol and matches the report."""
    u = np.asarray(u, dtype=float)
    fails = []
    boundary = u.copy()
    boundary[_interior(inst)] = 0.0
    if np.any(boundary):
        fails.append(f"{label}: u does not vanish on the boundary")
    d = defect(u, lam, inst)
    if not d <= grad_tol:
        fails.append(f"{label}: defect {d:.3e} exceeds grad_tol {grad_tol:.1e}")
    if abs(d - reported_residual) > 1e-6 * d + 1e-13:
        fails.append(f"{label}: defect {d:.6e} != reported residual {reported_residual:.6e}")
    return fails


def check_sphere_point(u, lam, alpha, inst: Instance, label: str) -> list:
    """lam = psi/phi from the energies recomputed here, and G(u) = alpha."""
    e = energies(np.asarray(u, dtype=float), inst)
    fails = []
    if _rel(lam, e["psi"] / e["phi"]) > 1e-10:
        fails.append(f"{label}: lam {lam!r} != psi/phi {e['psi'] / e['phi']!r}")
    if _rel(e["G"], alpha) > 1e-9:
        fails.append(f"{label}: G(u) = {e['G']!r} != alpha {alpha!r}")
    return fails


def check_oracle(lam, inst: Instance, label: str) -> list:
    exact = oracle_first_eigenvalue(inst.extents[0], inst.lengths[0])
    if _rel(lam, exact) > 1e-9:
        return [f"{label}: lam {lam!r} != closed-form lambda_1 {exact!r}"]
    return []


def check_homogeneity(rows, inst: Instance, rtol: float = 1e-5) -> list:
    """Constant exponents: the eigenpairs at different lam are rescalings.

    (u, lam) solves the problem iff (t u, t^(p-q) lam) does, so the L^p norm
    of grad u grows like lam^(1/(p-q)) and I_lam = G - lam F like
    lam^(p/(p-q)).  `rows` holds (lam, u, reported u_norm) per converged row.
    """
    p, q = float(inst.p.flat[0]), float(inst.q.flat[0])
    fails = []
    norms, free = [], []
    for lam, u, reported in rows:
        n = lp_gradient_norm(u, inst)
        if _rel(reported, n) > 1e-9:
            fails.append(f"lam={lam}: reported u_norm {reported!r} != {n!r}")
        e = energies(u, inst)
        i_lam = e["G"] - lam * e["F"]
        if not i_lam < 0.0:
            fails.append(f"lam={lam}: ball minimum I = {i_lam!r} is not negative")
        norms.append(n / lam ** (1.0 / (p - q)))
        free.append(i_lam / lam ** (p / (p - q)))
    for name, vals in (("u_norm", norms), ("I_lambda", free)):
        if vals and max(_rel(v, vals[0]) for v in vals) > rtol:
            fails.append(f"{name} breaks constant-exponent scaling: {vals}")
    return fails


def check_rayleigh(report, sphere_lam, inst: Instance) -> list:
    """Sandwich, floor, and witnesses that realize the reported quotients."""
    p_lo, p_hi = float(inst.p.min()), float(inst.p.max())
    q_lo, q_hi = float(inst.q.min()), float(inst.q.max())
    nu, nu_sup = report.nu_star, report.nu_sup
    fails = []
    if not (q_lo / p_hi) * nu <= nu_sup * (1 + 1e-12):
        fails.append(f"sandwich lower: ({q_lo}/{p_hi}) {nu!r} > {nu_sup!r}")
    if not nu_sup <= (q_hi / p_lo) * nu * (1 + 1e-12):
        fails.append(f"sandwich upper: {nu_sup!r} > ({q_hi}/{p_lo}) {nu!r}")
    if not sphere_lam >= nu - 1e-8:
        fails.append(f"floor: sphere lam {sphere_lam!r} < nu_star {nu!r} - 1e-8")
    e = energies(np.asarray(report.witnesses["nu_star"], dtype=float), inst)
    if _rel(nu, e["psi"] / e["phi"]) > 1e-10:
        fails.append(f"nu_star {nu!r} != psi/phi of its witness {e['psi'] / e['phi']!r}")
    e = energies(np.asarray(report.witnesses["nu_sup"], dtype=float), inst)
    if _rel(nu_sup, e["G"] / e["F"]) > 1e-10:
        fails.append(f"nu_sup {nu_sup!r} != G/F of its witness {e['G'] / e['F']!r}")
    return fails


def check_family(pairs, mu, grad_tol, inst: Instance) -> list:
    """Shared eigenvalue, rising positive crests, a descent end, distinct pairs.

    `pairs` holds (lam, u) per radius in increasing radius order.
    """
    def free_energy(v):
        e = energies(v, inst)
        return e["G"] - mu * e["F"]

    fails = []
    crests = []
    for k, (lam, u) in enumerate(pairs):
        if lam != mu:
            fails.append(f"pair {k}: lam {lam!r} != mu {mu!r}")
        crests.append(free_energy(u))
        if not any(free_energy(2.0**j * u) < 0.0 for j in range(1, 81)):
            fails.append(f"pair {k}: no t > 1 with I(t u) < 0")
    if not all(c > 0.0 for c in crests):
        fails.append(f"crest energies not positive: {crests}")
    if not all(a < b for a, b in zip(crests, crests[1:])):
        fails.append(f"crest energies not increasing with radius: {crests}")
    for i, j in itertools.combinations(range(len(pairs)), 2):
        gap = float(np.linalg.norm(pairs[i][1] - pairs[j][1]))
        if not gap > 10.0 * grad_tol:
            fails.append(f"pairs {i},{j}: nodal gap {gap:.3e} <= {10.0 * grad_tol:.1e}")
    return fails
