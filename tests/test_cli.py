"""Command line plumbing: configs in, deterministic reports and dumps out."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vexspec import SolverConfig, energies, make_problem, rectangle_grid, residual
from vexspec import cli
from vexspec.cli import build_problem, main, read_nodal, run, write_nodal
from vexspec.expressions import evaluate_on_nodes
from vexspec.mesh import apply_dirichlet

BASE_PROBLEM = {
    "extents": [65],
    "lengths": [1.0],
    "p": "3",
    "q": "2",
    "s": "400",
    "V": "1",
}


def sublinear_config(**extra):
    cfg = {
        "problem": dict(BASE_PROBLEM),
        "solver": {"max_iters": 60000, "grad_tol": 1e-6, "seed": 0},
        "alpha": 1.0,
        "lambda": 0.2,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_norms_of_zero_expression():
    report, code = run("norms", sublinear_config(u="0"))
    assert code == 0
    res = report["results"]
    assert res["norm_p"] == 0.0 and res["norm_q"] == 0.0 and res["grad_norm_p"] == 0.0
    assert res["modular_p"] == 0.0
    assert res["weight_norm_s"] > 0.0


def test_energies_command_matches_direct_evaluation():
    cfg = sublinear_config(u="sin(3.14159*x)")
    cfg["lambda"] = 0.5
    report, code = run("energies", cfg)
    assert code == 0
    pd = build_problem(cfg)
    u = apply_dirichlet(evaluate_on_nodes("sin(3.14159*x)", pd.grid), pd.grid)
    snap = energies(u, pd, 0.5)
    assert report["results"]["G"] == snap.G
    assert report["results"]["I_lambda"] == snap.I_lambda


def test_missing_nodal_expression():
    with pytest.raises(ValueError, match="key 'u'"):
        run("norms", sublinear_config())


def test_solve_sublinear_with_dumps(tmp_path):
    out = tmp_path / "report.json"
    cfg = sublinear_config()
    report, code = run("solve-sublinear", cfg, out=str(out))
    assert code == 0
    res = report["results"]
    assert res["mechanism"] == "ball_min"
    assert res["converged"] is True
    assert res["residual"] < 1e-6
    assert res["lambda"] == 0.2

    on_disk = json.loads(out.read_text())
    assert on_disk["results"]["residual"] == res["residual"]
    assert on_disk["provenance"]["seed"] == 0

    u, spacing = read_nodal(str(tmp_path / "report.u.txt"))
    pd = build_problem(cfg)
    assert u.shape == pd.grid.shape
    assert spacing == pd.grid.spacing
    # repr round-trip is exact, so the certificate recomputes bit for bit
    assert residual(u, pd, 0.2) == res["residual"]


def test_nodal_dump_round_trip(tmp_path, rng):
    cfg = sublinear_config()
    pd = build_problem(cfg)
    u = rng.standard_normal(pd.grid.shape)
    path = tmp_path / "u.txt"
    write_nodal(str(path), u, pd.grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "65"
    assert len(lines) == 2 + int(np.prod(pd.grid.shape))
    back, spacing = read_nodal(str(path))
    assert np.array_equal(back, u)
    assert spacing == pd.grid.spacing


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = sublinear_config(lambdas=[0.5, 2.0])
    report, code = run("sweep", cfg, out=str(out))
    assert code == 0
    rows = report["results"]["rows"]
    assert len(rows) == 2 and all(r["converged"] for r in rows)
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "lambda,residual,u_norm,I_value,iterations,mechanism,converged"
    assert len(csv_lines) == 3
    assert csv_lines[1].split(",")[5] == "ball_min"


def test_sweep_nonconvergence_exit_code():
    cfg = sublinear_config(lambdas=[0.5])
    cfg["solver"] = {"max_iters": 3, "grad_tol": 1e-12, "seed": 0}
    report, code = run("sweep", cfg)
    assert code == 3
    assert report["results"]["rows"][0]["converged"] is False


def family_config():
    problem = {
        "extents": [65],
        "lengths": [1.0],
        "p": "2 + 0.5*max(min((abs(x - 0.5) - 0.3)/0.15, 1), 0)",
        "q": "2 - 0.5*max(min((0.2 - abs(x - 0.5))/0.08, 1), 0)",
        "s": "400",
        "V": "1",
    }
    return {
        "problem": problem,
        "solver": {"max_iters": 40000, "grad_tol": 1e-6, "seed": 0},
        "radii": [1.0, 2.0],
    }


def test_family_command(tmp_path):
    from vexspec import alpha_independent_threshold

    cfg = family_config()
    cfg["mu"] = 0.5 * alpha_independent_threshold(build_problem(cfg))
    out = tmp_path / "family.json"
    report, code = run("family", cfg, out=str(out))
    assert code == 0
    pairs = report["results"]["pairs"]
    assert len(pairs) == 2
    assert all(p["lambda"] == cfg["mu"] for p in pairs)
    assert report["results"]["distinct"] is True
    assert report["results"]["min_nodal_gap"] > 1e-3
    u0, _ = read_nodal(str(tmp_path / "family.u0.txt"))
    u1, _ = read_nodal(str(tmp_path / "family.u1.txt"))
    # the gap is relative and blind to sign and to the reflections that keep p, q and V
    pd = build_problem(cfg)
    symmetric = all(np.array_equal(f, f[::-1]) for f in (pd.p.values, pd.q.values, pd.V))
    images = [u1, u1[::-1]] if symmetric else [u1]
    dist = min(np.linalg.norm(u0 - s * v) for v in images for s in (1.0, -1.0))
    gap = float(dist / max(np.linalg.norm(u0), np.linalg.norm(u1)))
    assert report["results"]["min_nodal_gap"] == gap
    (row,) = report["results"]["pair_gaps"]
    assert row["levels"] == [0, 1] and row["gap"] == gap and row["distinct"] is True
    values = [p["snapshot"]["I_lambda"] for p in pairs]
    assert row["dI_lambda"] == abs(values[0] - values[1])
    assert (tmp_path / "family.csv").exists()


def test_family_csv_rows_match_the_pair_payloads(tmp_path, monkeypatch):
    """The CSV and the JSON report share one row per pair, one gradient norm each."""
    import csv

    import vexspec.solvers as solvers
    from vexspec import alpha_independent_threshold

    norms, norm = [], solvers.luxemburg_norm

    def spy(*args, **kwargs):
        norms.append(args)
        return norm(*args, **kwargs)

    cfg = family_config()
    cfg["mu"] = 0.5 * alpha_independent_threshold(build_problem(cfg))
    monkeypatch.setattr(solvers, "luxemburg_norm", spy)
    report, code = run("family", cfg, out=str(tmp_path / "family.json"))
    assert code == 0
    pairs = report["results"]["pairs"]
    with open(tmp_path / "family.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(pairs) == len(norms) == 2
    for row, pair in zip(rows, pairs):
        assert float(row["u_norm"]) == pair["u_norm"]
        assert float(row["lambda"]) == pair["lambda"]
        assert int(row["iterations"]) == pair["iterations"]


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_family_rectangle_config_fields_are_mirror_symmetric_bitwise():
    """The 2D family configs pin their parity classes, and fold their solves onto a quarter
    of the grid, only if p, q and V are exactly symmetric."""
    for name in ("family_rectangle.json", "family_pass_rectangle.json"):
        pd = build_problem(json.loads((CONFIGS / name).read_text()))
        for field in (pd.p.values, pd.q.values, pd.V):
            assert np.array_equal(field, field[::-1]) and np.array_equal(field, field[:, ::-1])


def test_family_flags_levels_that_collapse_on_asymmetric_data(monkeypatch):
    """A 0.1% tilt of V in x breaks the mirror that kept the (1,1) and (2,1) modes apart.

    Levels alpha = 1 and alpha = 4 then land on u and -u of one critical
    point: a nodal distance of 5.7e-3 (twice their norm) but a relative gap
    of about 4e-8 up to sign.  The report says the family is not distinct and a
    warning names the pair.  The fold declines the tilted x axis; V is
    still symmetric in y, so that axis folds.
    """
    import vexspec.solvers as solvers

    cfg = json.loads((CONFIGS / "family_rectangle.json").read_text())
    cfg["problem"]["V"] = "1 + 0.001*x"
    cfg["radii"] = [1.0, 2.0, 4.0]
    folds, fold = [], solvers._fold

    def spy(pd, w):
        out = fold(pd, w)
        folds.append([axis for axis, _ in out[2]])
        return out

    monkeypatch.setattr(solvers, "_fold", spy)
    with pytest.warns(RuntimeWarning, match="radii 1.0 and 4.0 landed on one function"):
        report, code = run("family", cfg)
    assert code == 0
    assert folds == [[1], [1], [1]]
    res = report["results"]
    assert res["distinct"] is False and res["min_nodal_gap"] < 1e-6
    rows = {tuple(row["levels"]): row for row in res["pair_gaps"]}
    assert not rows[0, 2]["distinct"] and rows[0, 2]["gap"] == res["min_nodal_gap"]
    assert rows[0, 1]["distinct"] and rows[1, 2]["distinct"]


def test_rayleigh_command():
    cfg = sublinear_config()
    cfg["problem"]["extents"] = [33]
    cfg["trials"] = 2
    report, code = run("rayleigh", cfg)
    assert code == 0
    res = report["results"]
    assert set(res) == {"nu_star", "nu_sup", "lambda_star", "mu_star", "trials"}
    assert res["trials"] == 2
    assert res["nu_star"] > 0


def test_lambda_alpha_command():
    cfg = sublinear_config(constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0})
    report, code = run("lambda-alpha", cfg)
    assert code == 0
    assert abs(report["results"]["value"] - 3.0 ** (-2.0 / 3.0)) <= 1e-12
    assert report["results"]["branch"] == "alpha_p_sup >= 1"


def test_reports_are_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path, sublinear_config())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve-sublinear", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve-sublinear", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_provenance(tmp_path):
    cfg = write_config(tmp_path, sublinear_config())
    out = tmp_path / "seeded.json"
    assert main(["solve-sublinear", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    assert json.loads(out.read_text())["provenance"]["seed"] == 7


def test_report_to_stdout_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path, sublinear_config(constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0}))
    assert main(["lambda-alpha", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    parsed = json.loads(captured.out)
    assert parsed["command"] == "lambda-alpha"
    assert "finished in" in captured.err


def test_invalid_exponent_exits_with_diagnostic(tmp_path, capsys):
    bad = sublinear_config()
    bad["problem"]["p"] = "1"
    path = write_config(tmp_path, bad)
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must exceed 1" in err and "at cell (0,) (midpoint (0.0078125,))" in err

    bad["problem"]["p"] = "2 +"
    path = write_config(tmp_path, bad, "bad2.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "column" in capsys.readouterr().err

    # an overflowing literal is named at its column, not by exponent_field's finiteness check
    bad["problem"]["p"] = "2 + 1e400"
    path = write_config(tmp_path, bad, "bad3.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "column 5: non-finite number at cell (0,)" in capsys.readouterr().err


def test_negative_weight_rejected(tmp_path, capsys):
    bad = sublinear_config()
    bad["problem"]["V"] = "x - 0.5"
    path = write_config(tmp_path, bad)
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "positive everywhere; value -0.4921875 at cell (0,)" in capsys.readouterr().err
    # exp overflows to inf from the cell with midpoint 45.5/64 on: the expression names it,
    # with no numpy overflow warning
    bad["problem"]["V"] = "exp(1000*x)"
    path = write_config(tmp_path, bad, "inf.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-sublinear", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "column 1: non-finite exp at cell (45,) (coords (0.7109375,))" in err
    # an overflowing product is named at its column, not by make_problem's weight check
    bad["problem"]["V"] = "1e308*10"
    path = write_config(tmp_path, bad, "product.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "column 6: non-finite product at cell (0,)" in capsys.readouterr().err


def test_missing_config_sections(tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": 1.0})
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "problem" in capsys.readouterr().err
    path = write_config(tmp_path, {"problem": dict(BASE_PROBLEM)}, "nolam.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "missing config key" in capsys.readouterr().err
    # run and build_problem name a missing key in a ValueError, not a bare KeyError
    cfg = sublinear_config()
    del cfg["lambda"], cfg["problem"]["p"]
    with pytest.raises(ValueError, match="missing config key 'lambda'"):
        run("solve-sublinear", cfg)
    with pytest.raises(ValueError, match="missing problem key 'p'"):
        build_problem(cfg)


def test_unknown_solver_key_exits_with_diagnostic(tmp_path, capsys):
    cfg = sublinear_config(solver={"bogus": 1, "path_nodes": 21})
    assert main(["solve-sublinear", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "unknown solver keys ['bogus', 'path_nodes']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, message",
    [
        ({"max_iters": "many"}, "solver key 'max_iters' must be an integer, got 'many'"),
        ({"max_iters": True}, "solver key 'max_iters' must be an integer, got True"),
        ({"max_iters": 100.0}, "solver key 'max_iters' must be an integer, got 100.0"),
        ({"seed": "x"}, "solver key 'seed' must be an integer, got 'x'"),
        ({"grad_tol": "1e-6"}, "solver key 'grad_tol' must be a finite number, got '1e-6'"),
        ({"grad_tol": None}, "solver key 'grad_tol' must be a finite number, got None"),
        ({"grad_tol": float("inf")}, "solver key 'grad_tol' must be a finite number, got inf"),
    ],
    ids=["max_iters-str", "max_iters-bool", "max_iters-float", "seed-str", "grad_tol-str",
         "grad_tol-null", "grad_tol-inf"],
)
def test_mistyped_solver_value_exits_with_diagnostic(tmp_path, capsys, solver, message):
    cfg = sublinear_config(solver=solver, constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0})
    assert main(["solve-sublinear", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert message in capsys.readouterr().err


def test_solver_section_must_be_an_object(tmp_path, capsys):
    cfg = sublinear_config(solver=[["max_iters", 10]])
    assert main(["solve-sublinear", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "'solver' must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "constants, message",
    [
        ({"C_emb": 1.0}, "unknown constants keys ['C_emb']"),
        ({"embed_trials": 2.0}, "constants key 'embed_trials' must be an integer, got 2.0"),
        ({"C_embed": None}, "constants key 'C_embed' must be a finite number, got None"),
        ({"C_embed": -1.0}, "C_embed must be a positive constant (got -1.0)"),
        ({"embed_trials": 0}, "embed_trials must be positive (got 0)"),
        ({"embed_seed": -1, "embed_trials": 2}, "embed_seed must be a non-negative integer (got -1)"),
        ([["C_H", 1.0]], "'constants' must be a JSON object"),
        ({"safety_factor": 2.0}, "unknown constants keys ['safety_factor']"),
        ({"embed_iters": 250}, "unknown constants keys ['embed_iters']"),
    ],
    ids=["unknown", "trials-float", "C_embed-null", "C_embed-negative", "trials-zero",
         "seed-negative", "not-object", "safety-removed", "iters-removed"],
)
def test_invalid_constants_exit_with_diagnostic(tmp_path, capsys, constants, message):
    cfg = sublinear_config(constants=constants, u="x*(1 - x)")
    assert main(["energies", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value, kind",
    [
        ("rayleigh", "trials", 2.7, "an integer"),
        ("rayleigh", "trials", True, "an integer"),
        ("rayleigh", "trials", "3", "an integer"),
        ("rayleigh", "alpha", "1.0", "a finite number"),
        ("solve-sublinear", "alpha", float("nan"), "a finite number"),
        ("solve-sublinear", "lambda", True, "a finite number"),
        ("solve-superlinear", "lambda", [0.2], "a finite number"),
        ("energies", "lambda", None, "a finite number"),
        ("lambda-alpha", "alpha", float("inf"), "a finite number"),
        ("family", "mu", "0.5", "a finite number"),
        ("family", "radii", [], "a non-empty list of finite numbers"),
        ("family", "radii", 0.1, "a non-empty list of finite numbers"),
        ("sweep", "lambdas", [0.2, None], "a non-empty list of finite numbers"),
        ("sweep", "lambdas", [0.2, False], "a non-empty list of finite numbers"),
        ("sweep", "alpha", "2", "a finite number"),
    ],
    ids=[
        "trials-float", "trials-bool", "trials-str", "rayleigh-alpha-str", "alpha-nan",
        "lambda-bool", "lambda-list", "energies-lambda-null", "lambda-alpha-inf", "mu-str",
        "radii-empty", "radii-scalar", "lambdas-null", "lambdas-bool", "sweep-alpha-str",
    ],
)
def test_mistyped_command_value_exits_with_diagnostic(tmp_path, capsys, command, key, value, kind):
    """Command-level values are checked like the sections, never coerced."""
    cfg = sublinear_config(u="x*(1 - x)", mu=0.1, radii=[0.5], lambdas=[0.2])
    cfg[key] = value
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 2
    assert f"config key {key!r} must be {kind}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("extents", [1]),
        ("extents", [5, 5, 5]),
        ("extents", [True, 5]),
        ("extents", 65),
        ("extents", [65.7]),
        ("extents", ["65"]),
        ("lengths", [float("nan")]),
        ("lengths", [float("inf")]),
        ("lengths", [True]),
        ("lengths", [1.0, 1.0]),
    ],
    ids=["extents-one", "extents-3d", "extents-bool", "extents-scalar", "extents-float",
         "extents-str", "lengths-nan", "lengths-inf", "lengths-bool", "lengths-dim"],
)
def test_invalid_grid_exits_with_diagnostic(tmp_path, capsys, key, value):
    """Grid values are checked where they enter, before a spacing is divided out."""
    cfg = sublinear_config(constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0})
    cfg["problem"][key] = value
    assert main(["lambda-alpha", "--config", str(write_config(tmp_path, cfg))]) == 2
    kind = {"extents": "a list of 1 or 2 integers >= 3",
            "lengths": "a list of finite numbers > 0"}[key]
    assert f"problem key {key!r} must be {kind}" in capsys.readouterr().err


def test_build_problem_grid_from_extents_and_lengths():
    """The grid has the configured extents and side lengths, unit lengths when none are set."""
    cfg = sublinear_config(constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0})
    cfg["problem"].update(extents=[7, 5], lengths=[1.5, 2.0])
    assert build_problem(cfg).grid == rectangle_grid((7, 5), (1.5, 2.0))
    del cfg["problem"]["lengths"]
    assert build_problem(cfg).grid == rectangle_grid((7, 5))


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("lambda-alpha", "problem", "p", 3, "problem key 'p' must be an expression string, got 3"),
        ("lambda-alpha", "problem", "p", None, "problem key 'p' must be an expression string"),
        ("lambda-alpha", "problem", "p", ["3"], "problem key 'p' must be an expression string"),
        ("lambda-alpha", "problem", "V", 1, "problem key 'V' must be an expression string, got 1"),
        ("energies", None, "u", 0, "config key 'u' must be an expression string, got 0"),
        ("lambda-alpha", None, "problem", [1], "config key 'problem' must be a JSON object"),
        ("lambda-alpha", "problem", "bogus", 1, "unknown problem keys ['bogus']"),
        ("lambda-alpha", None, "lamdas", [1.0], "unknown config keys ['lamdas']"),
    ],
    ids=["p-int", "p-null", "p-list", "V-int", "u-int", "problem-list", "problem-unknown",
         "top-level-unknown"],
)
def test_bad_config_key_exits_before_any_work(tmp_path, capsys, monkeypatch, command, section,
                                              key, value, message):
    """The top level and every section are checked against the schema before make_problem
    runs: an ill-typed or unknown key exits 2 with a message that names it."""
    cfg = json.loads((CONFIGS / "sweep_sublinear.json").read_text())
    (cfg[section] if section else cfg)[key] = value
    monkeypatch.setattr(cli, "make_problem", None)
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config_passes_the_schema(path):
    """Each shipped config has only known keys of the right kinds, at the top level and in
    every section."""
    cfg = json.loads(path.read_text())
    for name in cli._SCHEMA:
        cli._section(cfg, name)


def test_schema_sections_match_the_code_they_configure():
    """The constants are make_problem's keywords, the solver keys SolverConfig's fields, and
    every top-level key but the sections is read by some command."""
    import dataclasses
    import inspect

    keywords = [p.name for p in inspect.signature(make_problem).parameters.values()
                if p.kind is p.KEYWORD_ONLY]
    assert list(cli._SCHEMA["constants"]) == keywords
    assert list(cli._SCHEMA["solver"]) == [f.name for f in dataclasses.fields(SolverConfig)]
    read = set().union(*(cli._DEFAULTS[command] for command in cli.COMMANDS))
    assert read == set(cli._SCHEMA["config"]) - {"problem", "constants", "solver"}


def sphere_config(n=33):
    problem = dict(BASE_PROBLEM, extents=[n], p="2", q="2")
    return {
        "problem": problem,
        "constants": {"C_embed": 1.0},
        "solver": {"max_iters": 60000, "grad_tol": 1e-6, "seed": 0},
        "alpha": 1.0,
    }


def test_sphere_max_command_reports_the_first_level():
    """p = q = 2: lam is the closed-form discrete first eigenvalue, F = alpha / lam."""
    cfg = sphere_config()
    report, code = run("sphere-max", cfg)
    assert code == 0
    res = report["results"]
    h = 1.0 / 32
    discrete = (4.0 / h**2) * np.tan(np.pi * h / 2.0) ** 2
    assert res["mechanism"] == "sphere_max" and res["converged"] is True
    assert abs(res["lambda"] - discrete) <= 1e-9 * discrete
    assert res["first_level"] == pytest.approx(1.0 / res["lambda"], rel=1e-9)


def superlinear_config():
    problem = dict(BASE_PROBLEM, p="2", q="4")
    return {
        "problem": problem,
        "constants": {"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0},
        "solver": {"max_iters": 60000, "grad_tol": 1e-6, "seed": 0},
        "alpha": 0.05,
        "lambda": 1.0,
    }


@pytest.mark.parametrize("command", ["solve-superlinear", "sphere-max", "family"])
def test_single_solves_exit_3_when_unconverged(tmp_path, command):
    """Three searches leave each solve, and each level of a family, unconverged.  The
    sphere solve takes the variable exponents: at p = q = 2 its first-mode seed is the
    exact discrete eigenfunction, certified after 0 searches; here it ends at residual
    0.10 and certifies after 8."""
    if command == "solve-superlinear":
        cfg = superlinear_config()
    elif command == "sphere-max":
        cfg = sphere_config()
        cfg["problem"].update(p="2.6 + 0.8*x", q="1.5 + 0.7*x*x")
    else:
        cfg = json.loads((CONFIGS / "family_rectangle.json").read_text())
    cfg["solver"]["max_iters"] = 3
    out = tmp_path / "report.json"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    res = json.loads(out.read_text())["results"]
    pairs = res.get("pairs", [res])  # a family reports one pair per radius
    assert len(pairs) == len(cfg.get("radii", [None]))
    assert all(pair["converged"] is False and pair["iterations"] == 3 for pair in pairs)


def test_unreadable_or_malformed_config(tmp_path, capsys):
    assert main(["norms", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norms", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["norms", "--config", str(arr)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        run("frobnicate", sublinear_config())


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, sublinear_config(constants={"C_H": 1.0, "C_embed": 1.0, "V_norm": 1.0}))
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "vexspec.cli", "lambda-alpha", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert abs(report["results"]["value"] - 3.0 ** (-2.0 / 3.0)) <= 1e-12
