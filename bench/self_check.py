"""The benchmark's own self-check.

    python3 bench/self_check.py

1. BENCHMARK.json names exactly the workloads and metrics run.py prints.
2. For each workload, two traced batches with seed 0, in two fresh
   processes, give identical answers, quality ratios, failures and layer
   counts (iterations, matvecs, calls, bytes).

Exits 0 when both hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"{key} differs from run.py: {sorted(set(declared) ^ set(units))}")
    return problems


def check_repeat(workload, seed):
    runner = run.Runner(workload, seed, time.monotonic() + run.RUN_LIMIT_S)
    try:
        first, second = (runner.spawn("batch", True) for _ in range(2))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    problems = []
    if run.signature(first) != run.signature(second):
        problems.append(f"{workload}: answers differ between two runs of seed {seed}")
    for name, value in first["counts"].items():
        if second["counts"][name] != value:
            problems.append(f"{workload}: {name} {value} then {second['counts'][name]}")
    return problems


def main():
    problems = check_spec()
    for workload in run.WORKLOADS:
        problems += check_repeat(workload, 0)
    for problem in problems:
        print(f"self-check failed: {problem}")
    print("self-check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
