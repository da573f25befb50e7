"""One benchmark workload in one process; started by run.py.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_FILE]

MODE is `measure` (the workload's `setup_repeats` set-ups, then rounds of
its operations until SECONDS of solve time have passed), `once` (one set-up,
one round) or `traced` (as `once`, with every layer wrapped by tracing.py;
the spans go to SPANS_FILE).  Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import vexspec from the checkout's own sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vexspec
    import vexspec.cli  # also loads vexspec.expressions

    if not Path(vexspec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vexspec imported from {vexspec.__file__}, not {src}")
    return vexspec


def run_round(vx, wl, state, seed):
    """Run every operation once; returns (results, seconds, failed, errors)."""
    results, seconds, failed, errors = {}, {}, set(), []
    for op in wl.operations(vx, state, seed):
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a raising operation counts as failed and is reported
            seconds[op.name] = time.perf_counter() - t0
            failed.add(op.name)
            errors.append(f"{op.name} raised:\n{traceback.format_exc()}")
            continue
        seconds[op.name] = time.perf_counter() - t0
        results[op.name] = result
        if op.failed(result):
            failed.add(op.name)
    return results, seconds, failed, errors


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    vx = import_program()
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(vx)

    setup_s = []
    for _ in range(wl.setup_repeats if mode == "measure" else 1):
        t0 = time.perf_counter()
        state = wl.setup(vx, seed)
        setup_s.append(time.perf_counter() - t0)

    round_s, op_s, problems = [], [], []
    attempted = failed_count = 0
    while True:
        results, seconds_by_op, failed, errors = run_round(vx, wl, state, seed)
        round_s.append(sum(seconds_by_op.values()))
        op_s += seconds_by_op.values()
        attempted += len(seconds_by_op)
        failed_count += len(failed)
        problems += errors
        problems += [f"{name}: failed" for name in sorted(failed - set(wl.KNOWN_FAULTS))]
        if not errors:
            problems += wl.check(state, results, failed)
        if mode != "measure" or sum(round_s) >= seconds:
            break

    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_count,
        "problems": problems,
        "rounds": len(round_s),
        "setup_s": statistics.median(setup_s),
        "setup_runs_s": setup_s,
        "solve_s": statistics.median(round_s),
        "op_p50_s": statistics.median(op_s),
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        spans = tracer.spans()
        if len(argv) > 4:
            tracer.write(argv[4])
        out["layers"] = tracing.layer_metrics(spans, tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
