"""vexspec benchmark: one workload per fresh, single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep_ball_1d, sphere_rayleigh_1d, family_pass_2d, or `all`
to run each in turn.  With --trace 0 the last line of standard output is
one JSON object with the end-to-end metrics (setup_s, solve_s, op_p50_s,
peak_rss_mb).  With --trace 1 the workload runs twice, untraced and then
traced, and the metrics are the per-layer figures of the traced run plus
its overhead over the untraced one.  Result files and spans go to
`.bench_out/` at the root of the checkout.

The exit code is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep_ball_1d", "sphere_rayleigh_1d", "family_pass_2d")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
RUN_TIMEOUT_S = 170  # for all the workers of one workload
END_TO_END = {"setup_s": "s", "solve_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process with one BLAS/OpenMP thread."""
    timeout = deadline - time.monotonic()
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode]
    if mode == "traced":
        cmd.append(str(OUT / f"{workload}-seed{seed}-spans.npz"))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} ({mode}) ran past the {RUN_TIMEOUT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    return "calls/iter" if name.endswith("per_iter") else "count"


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """The result line for one workload, and the raw worker outputs behind it."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        base = run_worker(workload, seed, seconds, "once", deadline)
        traced = run_worker(workload, seed, seconds, "traced", deadline)
        runs = [base, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["solve_s"] - base["solve_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        runs = [run_worker(workload, seed, seconds, "measure", deadline)]
        metrics = {k: {"value": runs[0][k], "unit": unit} for k, unit in END_TO_END.items()}
    for res in runs:
        for problem in res["problems"]:
            print(f"{workload}: {problem}", file=sys.stderr)
    line = {
        "correct": all(res["correct"] for res in runs),
        "attempted": sum(res["attempted"] for res in runs),
        "failed": sum(res["failed"] for res in runs),
        "metrics": metrics,
    }
    return line, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "vexspec" / "__init__.py").is_file():
        print(f"bench: no vexspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            lines[name], runs = measure(name, args.seed, args.seconds, bool(args.trace))
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps({"result": lines[name], "workers": runs}, indent=1) + "\n")
            if len(names) > 1:
                print(json.dumps(dict(lines[name], workload=name)))
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{n}.{k}": v for n, line in lines.items()
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
