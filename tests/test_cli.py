"""Command line plumbing: configs in, deterministic reports and dumps out."""

import json
import subprocess
import sys

import numpy as np
import pytest

from vexspec import energies, residual
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
    assert len(lines) == 2 + pd.grid.n_nodes
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
    assert report["results"]["min_nodal_gap"] > 1e-5
    u0, _ = read_nodal(str(tmp_path / "family.u0.txt"))
    u1, _ = read_nodal(str(tmp_path / "family.u1.txt"))
    assert float(np.linalg.norm(u0 - u1)) == report["results"]["min_nodal_gap"]
    assert (tmp_path / "family.csv").exists()


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
    assert "must exceed 1" in err and "cell" in err

    bad["problem"]["p"] = "2 +"
    path = write_config(tmp_path, bad, "bad2.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "column" in capsys.readouterr().err


def test_negative_weight_rejected(tmp_path, capsys):
    bad = sublinear_config()
    bad["problem"]["V"] = "x - 0.5"
    path = write_config(tmp_path, bad)
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "positive" in capsys.readouterr().err


def test_missing_config_sections(tmp_path, capsys):
    path = write_config(tmp_path, {"alpha": 1.0})
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "problem" in capsys.readouterr().err
    path = write_config(tmp_path, {"problem": dict(BASE_PROBLEM)}, "nolam.json")
    assert main(["solve-sublinear", "--config", str(path)]) == 2
    assert "missing config key" in capsys.readouterr().err


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
        ({"embed_iters": "many"}, "constants key 'embed_iters' must be an integer, got 'many'"),
        ({"embed_trials": 2.0}, "constants key 'embed_trials' must be an integer, got 2.0"),
        ({"C_embed": None}, "constants key 'C_embed' must be a finite number, got None"),
        ({"safety_factor": -1}, "safety_factor must be positive (got -1)"),
        ({"C_embed": -1.0}, "C_embed must be a positive constant (got -1.0)"),
        ({"embed_trials": 0}, "embed_trials must be positive (got 0)"),
        ({"embed_iters": -5}, "embed_iters must be positive (got -5)"),
        ([["C_H", 1.0]], "'constants' must be a JSON object"),
    ],
    ids=["unknown", "iters-str", "trials-float", "C_embed-null", "safety-negative",
         "C_embed-negative", "trials-zero", "iters-negative", "not-object"],
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


@pytest.mark.parametrize("command", ["solve-superlinear", "sphere-max"])
def test_single_solves_exit_3_when_unconverged(tmp_path, command):
    cfg = superlinear_config() if command == "solve-superlinear" else sphere_config()
    cfg["solver"]["max_iters"] = 3
    out = tmp_path / "report.json"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    res = json.loads(out.read_text())["results"]
    assert res["converged"] is False and res["iterations"] == 3


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
