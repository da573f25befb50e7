"""The deterministic work counts of the benchmark workloads do not rise.

scripts/counts.py runs each workload of bench/workloads.py at seed 1 and
counts its descent searches, ticks and trials, `_Point` evaluators and
their rows, Riesz columns and root-kernel evaluations.  The "counts" entry
of BENCH_counts.json holds the committed figures; a change that lowers one
rewrites it with `python scripts/counts.py`.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_count_rises_above_the_committed_file():
    spec = importlib.util.spec_from_file_location("counts", ROOT / "scripts" / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    committed = json.loads((ROOT / "BENCH_counts.json").read_text())["counts"]
    fresh = counts.measure(*counts.import_checkout(ROOT))
    rose = [
        f"{workload} {phase} {name}: {old} -> {fresh[workload][phase][name]}"
        for workload, phases in committed.items()
        for phase, row in phases.items()
        for name, old in row.items()
        if fresh[workload][phase][name] > old
    ]
    assert not rose, "counts above BENCH_counts.json:\n" + "\n".join(rose)
