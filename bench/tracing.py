"""Span tracing of the vexspec layers, installed from outside the package.

Each traced function is replaced, in every ``vexspec`` module namespace that
holds it, by a wrapper that records one span (name, start, end, parent).
Spans live in flat arrays in memory and are written out once at the end;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = {
    "mesh": (
        "gradient",
        "gradient_adjoint",
        "cell_values",
        "cell_values_adjoint",
        "check_grid_function",
        "require_dirichlet",
    ),
    "spaces": ("luxemburg_norm", "modular"),
    "functionals": (
        "make_problem",
        "embedding_constant",
        "energies",
        "grad_G",
        "grad_F",
        "grad_psi",
        "grad_phi",
        "residual",
        "rayleigh_extrema",
    ),
    "solvers": (
        "spectrum_sweep",
        "solve_sublinear",
        "solve_sphere_max",
        "solve_mountain_pass",
        "eigenfamily",
    ),
    "cli": ("build_problem",),
    "expressions": ("evaluate_on_cells",),
}

SOLVES = ("solve_sublinear", "solve_sphere_max", "solve_mountain_pass")


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"mesh.bytes_computed": 0, "spaces.luxemburg_norm.evals": 0,
                       "solvers.iterations": 0}

    def wrap(self, qualname: str, fn, count=None):
        ident = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                end[k] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Rebind each traced function in every vexspec namespace that holds it."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        counters = {
            "mesh": self._count_bytes,
            "spaces.luxemburg_norm": self._count_evals,
        }
        counters.update({f"solvers.{fn}": self._count_iterations for fn in SOLVES})
        for module, funcs in LAYERS.items():
            home = getattr(package, module)
            for fn_name in funcs:
                original = getattr(home, fn_name)
                qualname = f"{module}.{fn_name}"
                count = counters.get(qualname, counters.get(module))
                wrapper = self.wrap(qualname, original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _count_bytes(self, args, result) -> None:
        self.counts["mesh.bytes_computed"] += getattr(args[0], "nbytes", 0) + result.nbytes

    def _count_evals(self, args, result) -> None:
        self.counts["spaces.luxemburg_norm.evals"] += result.iterations

    def _count_iterations(self, args, result) -> None:
        self.counts["solvers.iterations"] += result.iterations

    def spans(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def write(self, path) -> None:
        np.savez(path, **self.spans())


def layer_metrics(spans: dict, counts: dict) -> dict:
    """Calls and self time per traced function, plus the derived counters."""
    name_id, parent = spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    names = list(spans["names"])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    self_time = np.bincount(name_id, weights=duration - covered, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[k])
        out[f"{name}.self_s"] = float(self_time[k])
    out.update(counts)
    # spans start in index order and nest, so the spans inside a solve are
    # the ones that started after it and before it ended
    inside = np.zeros(duration.size, dtype=bool)
    solve_ids = [k for k, name in enumerate(names) if name.split(".")[-1] in SOLVES]
    for k in np.flatnonzero(np.isin(name_id, solve_ids)):
        inside[k + 1:np.searchsorted(spans["start"], spans["end"][k])] = True
    grad_calls = np.count_nonzero(inside & (name_id == names.index("mesh.gradient")))
    out["solvers.stencil_calls_per_iter"] = grad_calls / max(counts["solvers.iterations"], 1)
    return out
