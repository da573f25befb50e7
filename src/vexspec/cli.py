"""Command line front end: JSON config in, JSON report (plus CSV/dumps) out.

Reports are deterministic: identical config and seed reproduce the JSON
byte for byte, so wall-clock timing goes to stderr rather than the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
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
from .mesh import apply_dirichlet, grid_from_config, gradient, gradient_magnitude
from .solvers import (
    SolverConfig,
    SweepRow,
    eigenfamily,
    solve_mountain_pass,
    solve_sphere_max,
    solve_sublinear,
    spectrum_sweep,
)
from .spaces import exponent_field, luxemburg_norm, modular

__all__ = ["run", "main", "build_problem", "write_nodal", "read_nodal"]

COMMANDS = (
    "norms",
    "energies",
    "solve-sublinear",
    "solve-superlinear",
    "sphere-max",
    "sweep",
    "family",
    "rayleigh",
    "lambda-alpha",
)

# keywords of make_problem that the `constants` section may set
CONSTANT_KEYS = {
    "C_H": float,
    "C_embed": float,
    "V_norm": float,
    "safety_factor": float,
    "embed_trials": int,
    "embed_iters": int,
    "embed_seed": int,
}

CSV_COLUMNS = ("lambda", "residual", "u_norm", "I_value", "iterations", "mechanism", "converged")


def _load_exponent(grid, expr: str, name: str):
    values = evaluate_on_cells(expr, grid)
    if np.any(values <= 1.0):
        idx = np.unravel_index(int(np.argmin(values)), values.shape)
        coords = tuple(float(c[idx]) for c in grid.cell_midpoints())
        raise ValueError(
            f"exponent {name} = {expr!r} must exceed 1 everywhere; "
            f"value {values[idx]} at cell {idx} (midpoint {coords})"
        )
    return exponent_field(values)


def build_problem(config: dict) -> ProblemData:
    """Assemble ProblemData from the `problem` (and `constants`) sections."""
    prob = config["problem"]
    grid = grid_from_config(prob)
    p = _load_exponent(grid, prob["p"], "p")
    q = _load_exponent(grid, prob["q"], "q")
    s = _load_exponent(grid, prob["s"], "s")
    V = evaluate_on_cells(prob.get("V", "1"), grid)
    if np.any(V <= 0.0):
        idx = np.unravel_index(int(np.argmin(V)), V.shape)
        coords = tuple(float(c[idx]) for c in grid.cell_midpoints())
        raise ValueError(
            f"weight V must be positive everywhere; value {V[idx]} at cell {idx} "
            f"(midpoint {coords})"
        )
    constants = _section(config, "constants", CONSTANT_KEYS)
    return make_problem(grid, p, q, s, V, **constants)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# what each JSON kind of a config value must be, and its test; booleans are no numbers
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    list: ("a non-empty list of finite numbers",
           lambda v: isinstance(v, list) and bool(v) and all(map(_is_number, v))),
}


def _checked(value, kind, where: str):
    """value if it is of the JSON kind (int, float or list), else a ValueError naming `where`."""
    name, ok = _KINDS[kind]
    if not ok(value):
        raise ValueError(f"{where} must be {name}, got {value!r}")
    return value


def _option(config: dict, key: str, kind, *default):
    """The command-level config value `key`, checked for its kind; a missing key
    takes the default, or raises KeyError when there is none."""
    if key not in config and default:
        return default[0]
    return _checked(config[key], kind, f"config key {key!r}")


def _section(config: dict, name: str, kinds: dict) -> dict:
    """Copy of the optional config section `name`, typed by kinds[key].

    A value of kind float must be a finite number, one of kind int an
    integer; booleans are neither.  Unknown keys are rejected.
    """
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    for key, value in section.items():
        _checked(value, kinds[key], f"{name} key {key!r}")
    return dict(section)


def _solver_config(config: dict, seed_override) -> SolverConfig:
    solver = _section(config, "solver", typing.get_type_hints(SolverConfig))
    if seed_override is not None:
        solver["seed"] = int(seed_override)
    return SolverConfig(**solver)


def _nodal_from_expr(config: dict, pd: ProblemData) -> np.ndarray:
    if "u" not in config:
        raise ValueError("this command needs a nodal expression under key 'u'")
    u = evaluate_on_nodes(config["u"], pd.grid)
    return apply_dirichlet(u, pd.grid)


def _pair_payload(pair, pd) -> dict:
    gm = gradient_magnitude(gradient(pair.u, pd.grid))
    return {
        "lambda": pair.lam,
        "residual": pair.residual,
        "u_norm": luxemburg_norm(gm, pd.p, pd.grid.cell_volume).norm,
        "I_value": pair.snapshot.I_lambda,
        "iterations": pair.iterations,
        "mechanism": pair.mechanism,
        "converged": pair.converged,
        "alpha": pair.alpha,
        "snapshot": asdict(pair.snapshot),
    }


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
    if "problem" not in config:
        raise ValueError("config needs a 'problem' section")
    pd = build_problem(config)
    cfg = _solver_config(config, seed)
    results: dict = {}
    exit_code = 0
    dumps = {}

    if command == "norms":
        u = _nodal_from_expr(config, pd)
        tol = _option(config, "tol", float, 1e-12)
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
        u = _nodal_from_expr(config, pd)
        lam = _option(config, "lambda", float, 0.0)
        results = asdict(energies(u, pd, lam))
    elif command in ("solve-sublinear", "solve-superlinear", "sphere-max"):
        alpha = _option(config, "alpha", float)
        if command == "solve-sublinear":
            pair = solve_sublinear(pd, alpha, _option(config, "lambda", float), cfg)
        elif command == "solve-superlinear":
            pair = solve_mountain_pass(pd, alpha, _option(config, "lambda", float), cfg)
        else:
            pair = solve_sphere_max(pd, alpha, cfg)
        results = _pair_payload(pair, pd)
        if command == "sphere-max":
            results["first_level"] = pair.snapshot.F
        if not pair.converged:
            exit_code = 3
        if out:
            dumps[_sibling(out, ".u.txt")] = pair.u
    elif command == "sweep":
        lambdas = _option(config, "lambdas", list)
        report = spectrum_sweep(pd, lambdas, _option(config, "alpha", float, 1.0), cfg)
        results = {"rows": [asdict(r) for r in report.rows]}
        if not report.all_converged:
            exit_code = 3
        if out:
            _write_csv(_sibling(out, ".csv"), report.rows)
    elif command == "family":
        pairs = eigenfamily(pd, _option(config, "mu", float), _option(config, "radii", list), cfg)
        results = {"pairs": [_pair_payload(p, pd) for p in pairs]}
        gaps = [
            float(np.linalg.norm(a.u - b.u))
            for i, a in enumerate(pairs)
            for b in pairs[i + 1 :]
        ]
        results["min_nodal_gap"] = min(gaps) if gaps else 0.0
        results["distinct"] = bool(gaps) and min(gaps) > 10.0 * cfg.grad_tol
        rows = [
            SweepRow(
                p.lam,
                p.residual,
                _pair_payload(p, pd)["u_norm"],
                p.snapshot.I_lambda,
                p.iterations,
                p.mechanism,
                p.converged,
                p.alpha,
            )
            for p in pairs
        ]
        if not all(p.converged for p in pairs):
            exit_code = 3
        if out:
            _write_csv(_sibling(out, ".csv"), rows)
            for k, p in enumerate(pairs):
                dumps[_sibling(out, f".u{k}.txt")] = p.u
    elif command == "rayleigh":
        report = rayleigh_extrema(
            pd,
            _option(config, "alpha", float, 1.0),
            _option(config, "trials", int, 6),
            seed=cfg.seed,
        )
        results = {
            "nu_star": report.nu_star,
            "nu_sup": report.nu_sup,
            "lambda_star": report.lambda_star,
            "mu_star": report.mu_star,
            "trials": report.trials,
        }
    elif command == "lambda-alpha":
        info = lambda_alpha_detail(pd, _option(config, "alpha", float))
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
    except KeyError as exc:
        print(f"vexspec: error: missing config key {exc}", file=sys.stderr)
        return 2
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
