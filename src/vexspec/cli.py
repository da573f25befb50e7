"""Command line front end: JSON config in, JSON report (plus CSV/dumps) out.

Only this module knows the config format.  One schema table gives each key
of the top level and of every section its JSON kind, and each command its
top-level keys with a default or required.  `run` checks a config against
it before any work starts; an unknown, ill-typed or missing key raises a
ValueError that names it, and `main` exits 2 with that message.

Reports are deterministic: identical config and seed reproduce the JSON
byte for byte, so wall-clock timing goes to stderr rather than the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .expressions import evaluate_on_cells, evaluate_on_nodes
from .functionals import (
    ProblemData,
    energies,
    lambda_alpha_detail,
    make_problem,
    rayleigh_extrema,
)
from .mesh import StructuredGrid, apply_dirichlet, gradient, gradient_magnitude
from .solvers import (
    SolverConfig,
    _family_gaps,
    _sweep_row,
    eigenfamily,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
)
from .spaces import exponent_field, luxemburg_norm, modular

__all__ = ["run", "main", "build_problem", "write_nodal", "read_nodal"]

_REQUIRED = "required"

# The config schema.  _SCHEMA gives each key of the top level ("config") and of every section
# the JSON kind of its value.  _DEFAULTS gives the CLI's default, or _REQUIRED, of the top
# level for every command, of the problem section, and of each command's top-level keys, the
# only ones it reads.  Any other key is optional; the code that reads it holds its default.
_SCHEMA = {
    "config": {
        "problem": "object", "constants": "object", "solver": "object",
        "alpha": "number", "lambda": "number", "lambdas": "numbers", "mu": "number",
        "radii": "numbers", "tol": "number", "trials": "integer", "u": "expression",
    },
    "problem": {
        "extents": "extents", "lengths": "lengths",
        "p": "expression", "q": "expression", "s": "expression", "V": "expression",
    },
    "constants": {
        "C_H": "number", "C_embed": "number", "V_norm": "number",
        "embed_trials": "integer", "embed_seed": "integer",
    },
    "solver": {"max_iters": "integer", "grad_tol": "number", "seed": "integer"},
}
_DEFAULTS = {
    "config": {"problem": _REQUIRED},
    "problem": {"extents": _REQUIRED, "p": _REQUIRED, "q": _REQUIRED, "s": _REQUIRED, "V": "1"},
    "norms": {"u": _REQUIRED, "tol": 1e-12},
    "energies": {"u": _REQUIRED, "lambda": 0.0},
    "solve-sublinear": {"alpha": _REQUIRED, "lambda": _REQUIRED},
    "solve-superlinear": {"alpha": _REQUIRED, "lambda": _REQUIRED},
    "sphere-max": {"alpha": _REQUIRED},
    "sweep": {"lambdas": _REQUIRED, "alpha": 1.0},
    "family": {"mu": _REQUIRED, "radii": _REQUIRED},
    "rayleigh": {"alpha": 1.0, "trials": 6},
    "lambda-alpha": {"alpha": _REQUIRED},
}
COMMANDS = tuple(name for name in _DEFAULTS if name not in _SCHEMA)

CSV_COLUMNS = ("lambda", "residual", "u_norm", "I_value", "iterations", "mechanism", "converged")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_list(test, longest=math.inf):
    return lambda v: isinstance(v, list) and 0 < len(v) <= longest and all(map(test, v))


# what a value of each JSON kind must be, and its test; booleans are no numbers
_KINDS = {
    "integer": ("an integer", _is_int),
    "number": ("a finite number", _is_number),
    "numbers": ("a non-empty list of finite numbers", _is_list(_is_number)),
    "expression": ("an expression string", lambda v: isinstance(v, str)),
    "extents": ("a list of 1 or 2 integers >= 3", _is_list(lambda n: _is_int(n) and n >= 3, 2)),
    "lengths": ("a list of finite numbers > 0", _is_list(lambda x: _is_number(x) and x > 0)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
}


def _checked(value, kind: str, where: str) -> None:
    """A ValueError naming `where` unless value is of the JSON kind."""
    name, ok = _KINDS[kind]
    if not ok(value):
        raise ValueError(f"{where} must be {name}, got {value!r}")


def _section(config: dict, name: str, command: str | None = None) -> dict:
    """The config section `name`, or the top level for name "config", checked against the
    schema: an unknown key, a value not of its key's kind or a missing required key raises
    a ValueError that names the key.  The copy returned has the CLI's defaults filled in,
    at the top level those of `command`."""
    values = config if name == "config" else config.get(name, {})
    _checked(values, "object", f"config key {name!r}")
    kinds = _SCHEMA[name]
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    for key, value in values.items():
        _checked(value, kinds[key], f"{name} key {key!r}")
    checked = dict(values)
    for key, default in {**_DEFAULTS.get(name, {}), **_DEFAULTS.get(command, {})}.items():
        if key not in checked:
            if default is _REQUIRED:
                raise ValueError(f"missing {name} key {key!r}")
            checked[key] = default
    return checked


def _load_exponent(grid, expr: str, name: str):
    values = evaluate_on_cells(expr, grid)
    if np.any(values <= 1.0):
        idx = tuple(map(int, np.unravel_index(int(np.argmin(values)), values.shape)))
        coords = tuple(float(c[idx]) for c in grid.cell_midpoints())
        raise ValueError(
            f"exponent {name} = {expr!r} must exceed 1 everywhere; "
            f"value {values[idx]} at cell {idx} (midpoint {coords})"
        )
    return exponent_field(values)


def build_problem(config: dict) -> ProblemData:
    """Assemble ProblemData from the `problem` (and `constants`) sections."""
    prob = _section(config, "problem")
    constants = _section(config, "constants")
    extents = prob["extents"]
    lengths = prob.get("lengths", [1.0] * len(extents))
    if len(lengths) != len(extents):
        raise ValueError(f"problem key 'lengths' must be {_KINDS['lengths'][0]}, one per axis "
                         f"of 'extents' {extents}, got {lengths!r}")
    grid = StructuredGrid(tuple(extents), tuple(l / (n - 1) for l, n in zip(lengths, extents)))
    p = _load_exponent(grid, prob["p"], "p")
    q = _load_exponent(grid, prob["q"], "q")
    s = _load_exponent(grid, prob["s"], "s")
    V = evaluate_on_cells(prob["V"], grid)
    if np.any(V <= 0.0):
        idx = tuple(map(int, np.unravel_index(int(np.argmin(V)), V.shape)))
        coords = tuple(float(c[idx]) for c in grid.cell_midpoints())
        raise ValueError(
            f"weight V must be positive everywhere; value {V[idx]} at cell {idx} "
            f"(midpoint {coords})"
        )
    return make_problem(grid, p, q, s, V, **constants)


def _solver_config(config: dict, seed_override) -> SolverConfig:
    solver = _section(config, "solver")
    if seed_override is not None:
        solver["seed"] = int(seed_override)
    return SolverConfig(**solver)


def _pair_payload(pair, row) -> dict:
    """The pair's report row, its `lam` keyed "lambda", plus the energy snapshot."""
    payload = asdict(row)
    payload["lambda"] = payload.pop("lam")
    payload["snapshot"] = asdict(pair.snapshot)
    return payload


def write_nodal(path: str, u: np.ndarray, grid) -> None:
    """Plain-text dump: extents line, spacing line, one nodal value per line."""
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in grid.extents) + "\n")
        fh.write(" ".join(repr(h) for h in grid.spacing) + "\n")
        for value in np.asarray(u).ravel():
            fh.write(repr(float(value)) + "\n")


def read_nodal(path: str):
    with open(path) as fh:
        extents = tuple(int(tok) for tok in fh.readline().split())
        spacing = tuple(float(tok) for tok in fh.readline().split())
        values = np.array([float(line) for line in fh if line.strip()])
    return values.reshape(extents), spacing


def _write_csv(path: str, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    repr(row.lam),
                    repr(row.residual),
                    repr(row.u_norm),
                    repr(row.I_value),
                    row.iterations,
                    row.mechanism,
                    row.converged,
                ]
            )


def run(command: str, config: dict, *, out: str | None = None, seed: int | None = None):
    """Execute one command; returns (report dict, exit code)."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; choose from {COMMANDS}")
    opts = _section(config, "config", command)
    cfg = _solver_config(config, seed)
    pd = build_problem(config)
    results: dict = {}
    exit_code = 0
    dumps = {}

    if command == "norms":
        u = apply_dirichlet(evaluate_on_nodes(opts["u"], pd.grid), pd.grid)
        tol = opts["tol"]
        vol = pd.grid.cell_volume
        from .mesh import cell_values

        ub = cell_values(u, pd.grid)
        gm = gradient_magnitude(gradient(u, pd.grid))
        results = {
            "modular_p": modular(ub, pd.p, vol),
            "norm_p": luxemburg_norm(ub, pd.p, vol, tol).norm,
            "norm_q": luxemburg_norm(ub, pd.q, vol, tol).norm,
            "grad_norm_p": luxemburg_norm(gm, pd.p, vol, tol).norm,
            "weight_norm_s": pd.V_norm,
        }
    elif command == "energies":
        u = apply_dirichlet(evaluate_on_nodes(opts["u"], pd.grid), pd.grid)
        results = asdict(energies(u, pd, opts["lambda"]))
    elif command in ("solve-sublinear", "solve-superlinear", "sphere-max"):
        if command == "solve-sublinear":
            pair = solve_sublinear(pd, opts["alpha"], opts["lambda"], cfg)
        elif command == "solve-superlinear":
            pair = solve_mountain_pass(pd, opts["alpha"], opts["lambda"], cfg)
        else:
            pair = solve_sphere_max(pd, opts["alpha"], cfg)
        results = _pair_payload(pair, _sweep_row(pair, pd))
        if command == "sphere-max":
            results["first_level"] = pair.snapshot.F
        if not pair.converged:
            exit_code = 3
        if out:
            dumps[_sibling(out, ".u.txt")] = pair.u
    elif command == "sweep":
        report = spectrum_sweep(pd, opts["lambdas"], opts["alpha"], cfg)
        results = {"rows": [asdict(r) for r in report.rows]}
        if not report.all_converged:
            exit_code = 3
        if out:
            _write_csv(_sibling(out, ".csv"), report.rows)
    elif command == "family":
        pairs = eigenfamily(pd, opts["mu"], opts["radii"], cfg)
        rows = [_sweep_row(p, pd) for p in pairs]
        results = {"pairs": [_pair_payload(p, row) for p, row in zip(pairs, rows)]}
        gaps = _family_gaps(pairs, pd)
        results["pair_gaps"] = gaps
        results["min_nodal_gap"] = min((row["gap"] for row in gaps), default=0.0)
        results["distinct"] = bool(gaps) and all(row["distinct"] for row in gaps)
        if not all(p.converged for p in pairs):
            exit_code = 3
        if out:
            _write_csv(_sibling(out, ".csv"), rows)
            for k, p in enumerate(pairs):
                dumps[_sibling(out, f".u{k}.txt")] = p.u
    elif command == "rayleigh":
        report = rayleigh_extrema(pd, opts["alpha"], opts["trials"], seed=cfg.seed)
        results = {
            "nu_star": report.nu_star,
            "nu_sup": report.nu_sup,
            "lambda_star": report.lambda_star,
            "mu_star": report.mu_star,
            "trials": report.trials,
        }
    elif command == "lambda-alpha":
        info = lambda_alpha_detail(pd, opts["alpha"])
        results = {"value": info.value, "branch": info.branch, "alpha": info.alpha}

    report = {
        "command": command,
        "config": config,
        "results": results,
        "provenance": {
            "seed": cfg.seed,
            "version": __version__,
        },
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for path, u in dumps.items():
            write_nodal(path, u, pd.grid)
    return report, exit_code


def _sibling(out: str, suffix: str) -> str:
    base = out[:-5] if out.endswith(".json") else out
    return base + suffix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vexspec",
        description="variable-exponent eigenvalue laboratory",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="path for the JSON report")
    parser.add_argument("--seed", type=int, default=None, help="override solver seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"vexspec: error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"vexspec: error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("vexspec: error: config must be a JSON object", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report, exit_code = run(args.command, config, out=args.out, seed=args.seed)
    except (ValueError, OverflowError) as exc:
        print(f"vexspec: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"vexspec: {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    if not args.out:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
