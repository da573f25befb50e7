"""Tests of the span tracer: self time, the solve-scoped ratio, rebinding."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_self_time_and_stencil_ratio_from_spans():
    names = ["solvers.solve_sphere_max", "mesh.gradient", "functionals.energies"]
    # energies [0, 10] holds gradient [1, 3]; the solve [20, 30] holds
    # energies [21, 29], which holds gradient [22, 23] and gradient [24, 26]
    spans = {
        "names": np.array(names),
        "name_id": np.array([2, 1, 0, 2, 1, 1]),
        "parent": np.array([-1, 0, -1, 2, 3, 3]),
        "start": np.array([0.0, 1.0, 20.0, 21.0, 22.0, 24.0]),
        "end": np.array([10.0, 3.0, 30.0, 29.0, 23.0, 26.0]),
    }
    out = tracing.layer_metrics(spans, {"solvers.iterations": 4})
    assert out["functionals.energies.calls"] == 2
    assert out["functionals.energies.self_s"] == pytest.approx(8.0 + 5.0)
    assert out["mesh.gradient.self_s"] == pytest.approx(5.0)
    assert out["solvers.solve_sphere_max.self_s"] == pytest.approx(2.0)
    assert out["solvers.stencil_calls_per_iter"] == pytest.approx(2 / 4)


def test_install_rebinds_every_namespace_and_counts():
    script = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / 'src')!r}]
        import numpy as np
        import vexspec, vexspec.cli, tracing
        tracer = tracing.Tracer()
        tracer.install(vexspec)
        for mod in (vexspec, vexspec.mesh, vexspec.functionals, vexspec.solvers, vexspec.cli):
            assert getattr(mod, "gradient").__wrapped__ is not None
        grid = vexspec.interval_grid(9)
        pd = vexspec.make_problem(grid, vexspec.constant_exponent(3.0, (8,)),
                                  vexspec.constant_exponent(2.0, (8,)),
                                  vexspec.constant_exponent(400.0, (8,)), np.ones(8),
                                  C_embed=1.0)
        u = np.sin(np.pi * np.linspace(0, 1, 9))
        u[[0, -1]] = 0.0
        vexspec.functionals.grad_G(u, pd)
        out = tracing.layer_metrics(tracer.spans(), tracer.counts)
        assert out["functionals.grad_G.calls"] == 1, out
        assert out["mesh.gradient.calls"] == 1, out
        assert out["mesh.require_dirichlet.calls"] == 1, out
        assert out["spaces.luxemburg_norm.calls"] == 1, out
        assert out["mesh.bytes_computed"] > 0, out
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
