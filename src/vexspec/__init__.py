"""Numerical laboratory for doubly nonhomogeneous eigenvalue problems.

The discrete model couples a p(x)-power gradient energy with a weighted
q(x)-power mass term on structured Dirichlet grids and exposes the norm
calculus, energies, thresholds and variational solvers needed to produce
residual-certified eigenpairs.
"""

__version__ = "0.1.0"

from .functionals import (  # noqa: F401
    EnergySnapshot,
    ProblemData,
    RayleighReport,
    alpha_independent_threshold,
    embedding_constant,
    energies,
    grad_F,
    grad_G,
    lambda_alpha,
    lambda_alpha_detail,
    make_problem,
    rayleigh_extrema,
    residual,
    window_alpha,
)
from .mesh import (  # noqa: F401
    StructuredGrid,
    cell_values,
    gradient,
    interval_grid,
    rectangle_grid,
)
from .solvers import (  # noqa: F401
    EigenPair,
    SolverConfig,
    SweepReport,
    SweepRow,
    eigenfamily,
    mode_seed,
    rescale_constant_exponent,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
)
from .spaces import (  # noqa: F401
    ExponentField,
    NormResult,
    conjugate,
    constant_exponent,
    exponent_field,
    holder_constant,
    luxemburg_norm,
    modular,
    product_exponent,
)
