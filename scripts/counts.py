"""Deterministic work counts of the benchmark workloads at seed 1.

    python scripts/counts.py                               # the "counts" entry of BENCH_counts.json
    python scripts/counts.py --root PARENT --key previous  # a parent checkout's, for comparison

Each workload of bench/workloads.py (imported, never changed) is set up
once and runs one round of its operations at seed 1, with vexspec imported
from the measured checkout's src/.  Per set-up and per operation it counts

- `searches`, `ticks` and `trials` of `_sobolev_descent`: the searches its
  rows ran, its admit calls and the trial rows those calls took;
- `points` and `point_rows`: the `_Point` evaluators built and their rows;
- `riesz_columns`: the right-hand sides `riesz_solve` solved;
- `root_evals`: the log-sum evaluations of `_power_sum_root`.

The counts measure work, not time, so no machine's speed moves them.
Like bench/tracing.py, the functions are wrapped in every vexspec module
namespace that holds them; `_Point` is counted through its constructor.
tests/test_counts.py fails when a count rises above the committed
"counts" entry.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
NAMES = ("searches", "ticks", "trials", "points", "point_rows", "riesz_columns", "root_evals")


def _rows(x, dim: int) -> int:
    """The rows of a stack of grid arrays, 1 for a single array."""
    return math.prod(x.shape[: x.ndim - dim])


class Counter:
    """Counts the work of the vexspec package `vx` while installed (a context manager)."""

    def __init__(self, vx):
        self.vx, self.counts, self.undo = vx, dict.fromkeys(NAMES, 0), []

    def take(self) -> dict:
        """The counts since the last take, reset to zero."""
        out, self.counts = self.counts, dict.fromkeys(NAMES, 0)
        return out

    def __enter__(self):
        vx, counts = self.vx, self
        functionals, mesh, spaces = vx.functionals, vx.mesh, vx.spaces

        def descent(fn, start, admit, direction, grid, *args):
            def counted_admit(u, raw, ctx):
                counts.counts["ticks"] += 1
                counts.counts["trials"] += len(raw)
                return admit(u, raw, ctx)

            out = fn(start, counted_admit, direction, grid, *args)
            counts.counts["searches"] += int(out[3].sum())
            return out

        def riesz(fn, g, grid, *args, **kwargs):
            counts.counts["riesz_columns"] += _rows(g, grid.dim)
            return fn(g, grid, *args, **kwargs)

        def root(fn, *args, **kwargs):
            out = fn(*args, **kwargs)
            counts.counts["root_evals"] += int(out[1].sum())
            return out

        for home, name, wrap in ((functionals, "_sobolev_descent", descent),
                                 (mesh, "riesz_solve", riesz),
                                 (spaces, "_power_sum_root", root)):
            original = getattr(home, name)
            wrapper = functools.partial(wrap, original)
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.undo.append((mod, attr, original))

        point = functionals._Point
        init = point.__init__

        def counted_init(pt, u, pd, *args, **kwargs):
            counts.counts["points"] += 1
            counts.counts["point_rows"] += _rows(u, pd.grid.dim)
            init(pt, u, pd, *args, **kwargs)

        point.__init__ = counted_init
        self.undo.append((point, "__init__", init))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo = []

    def _modules(self):
        vx = self.vx
        return [vx] + [getattr(vx, m) for m in
                       ("cli", "expressions", "functionals", "mesh", "solvers", "spaces")]


def import_checkout(root: Path):
    """vexspec from root/src and the workloads module of root/bench."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        vx = importlib.import_module("vexspec")
        importlib.import_module("vexspec.cli")
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    if not Path(vx.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise ImportError(f"vexspec imported from {vx.__file__}, not {root / 'src'}")
    return vx, workloads


def measure(vx, workloads) -> dict:
    """{workload: {"setup": counts, operation: counts, ...}} for one set-up and one round."""
    out = {}
    with Counter(vx) as counter:
        for name, wl in workloads.WORKLOADS.items():
            state = wl.setup(vx, SEED)
            out[name] = {"setup": counter.take()}
            for op in wl.operations(vx, state, SEED):
                op.call()
                out[name][op.name] = counter.take()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--key", default="counts", help="entry of the output file to write")
    args = ap.parse_args(argv)
    counts = measure(*import_checkout(args.root.resolve()))
    out = ROOT / "BENCH_counts.json"
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("command", "python scripts/counts.py")
    data["seed"] = SEED
    data[args.key] = counts
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
