"""The momentforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed job list in fresh worker processes (one batch
each, closed loop, one job at a time, BLAS pinned to one thread) until the
next batch would end after S seconds, with set-up-only processes between
batches where they fit and after them to fill the S seconds, at least until
set-up has been timed MIN_SETUPS times. With --trace 0 every batch is
untraced and the result carries the end-to-end metrics. With --trace 1
untraced and traced batches alternate and the result carries the
per-layer metrics; the tracing overhead is their batch_s difference.

Prints a table of every metric with its unit, the environment, and as the
last line one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import COUNT_NAMES, SPAN_NAMES  # noqa: E402
from worker import BLAS_THREADS, THREAD_VARS  # noqa: E402

WORKLOADS = ("dp_release", "cli_small", "sde_spectra")
MIN_SETUPS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
}
# Deterministic for a seed but not across seeds (over five seeds the DP
# mean ratio spread 21% and the max 60%), so they carry no regression
# bound: they are reported with the per-layer metrics and in every table.
ANSWERS = {
    "answers.quality_ratio_max": "ratio",
    "answers.quality_ratio_mean": "ratio",
    "answers.fail_rate": "ratio",
}


def _per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        units[name] = "bytes" if name.startswith("fileio.bytes") else "count"
    units["recovery.s_per_iter"] = "s"
    units["dpsynth.cache_reuse_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units.update(ANSWERS)
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes for one run and keeps their reports."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.traces = ROOT / ".bench_work" / "traces"
        self.traces.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, **{var: BLAS_THREADS for var in THREAD_VARS})
        self.count = 0

    def spawn(self, mode, traced):
        self.count += 1
        out = self.work / f"worker{self.count}.json"
        spans = self.traces / f"{self.workload}-seed{self.seed}-{self.count}.spans.json"
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--trace", str(int(traced)), "--mode", mode,
            "--spawned-at", repr(spawned_at),
            "--workdir", str(self.work / f"inputs{self.count}"),
            "--out", str(out), "--spans", str(spans),
        ]
        remaining = self.deadline - spawned_at
        try:
            # the worker's stdout goes to stderr: the last stdout line is ours
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {self.count} did not finish within the run limit")
        if proc.returncode != 0:
            raise BenchError(f"worker {self.count} exited with code {proc.returncode}")
        report = json.loads(out.read_text())
        report["wall_s"] = time.monotonic() - spawned_at
        shutil.rmtree(self.work / f"inputs{self.count}", ignore_errors=True)
        return report


def collect(runner, seconds, trace):
    """Batches until the next one, with the set-ups still owed to
    MIN_SETUPS, would end after `seconds`, with a set-up between two
    batches where it fits, then set-ups until the next one would end after
    `seconds`, and at least MIN_SETUPS of them. Spreading the set-ups over
    the run keeps one slow stretch of the machine from setting their
    median; keeping time for the owed ones keeps a run from overrunning
    `seconds` by several set-ups."""
    end = time.monotonic() + seconds
    kinds = itertools.cycle([False, True] if trace else [False])
    needed = {False, True} if trace else {False}
    batches, setups = [], []

    def setup():
        setups.append(runner.spawn("setup", False)["setup_s"])

    while True:
        batches.append(runner.spawn("batch", next(kinds)))
        setups.append(batches[-1]["setup_s"])
        done = needed <= {b["traced"] for b in batches}
        # the last batch and set-up estimate the next ones' wall times
        owed = max(MIN_SETUPS - len(setups) - 1, 0) * setups[-1]
        next_end = time.monotonic() + batches[-1]["wall_s"] + owed
        if done and next_end > end:
            break
        if next_end + setups[-1] <= end:
            setup()
    while len(setups) < MIN_SETUPS or time.monotonic() + setups[-1] <= end:
        setup()
    return batches, setups


def signature(batch):
    return [(j["name"], j.get("failed"), j.get("ratio"), "error" in j) for j in batch["jobs"]]


def verify(batches):
    """Problems that make the run incorrect: jobs that raised, answers
    outside their bounds, and deterministic results that did not repeat."""
    problems = []
    for job in batches[0]["jobs"]:
        if "error" in job:
            problems.append(f"{job['name']} raised:\n{job['error']}")
        elif not job["ratio"] <= 1.0:
            problems.append(f"{job['name']}: {job['note']}")
    first = signature(batches[0])
    if any(signature(b) != first for b in batches[1:]):
        problems.append("answers differ between batches of the same seed")
    traced = [b["counts"] for b in batches if b["traced"]]
    if any(counts != traced[0] for counts in traced[1:]):
        problems.append("layer counts differ between traced batches of the same seed")
    return problems


def end_to_end(batches, setups):
    untraced = [b for b in batches if not b["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(b["batch_s"] for b in untraced),
        "job_s_p50": statistics.median(t for b in untraced for t in b["job_s"]),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in untraced),
    }


def failures(batches):
    """(attempted, failed) over the seed's job list. Later batches repeat the
    same jobs for timing, and verify() requires their answers to be the
    same, so each job counts once: the figures depend on the seed only, not
    on how many batches fit in the run's seconds."""
    jobs = batches[0]["jobs"]
    return len(jobs), sum(1 for j in jobs if j.get("failed", True))


def answers(batches):
    """Achieved error / bound and failed / attempted over the seed's jobs."""
    ratios = [j["ratio"] for j in batches[0]["jobs"] if "ratio" in j]
    attempted, failed = failures(batches)
    return {
        "answers.quality_ratio_max": max(ratios, default=math.nan),
        "answers.quality_ratio_mean": statistics.fmean(ratios) if ratios else math.nan,
        "answers.fail_rate": failed / attempted,
    }


def per_layer(batches):
    traced = [b for b in batches if b["traced"]]
    untraced = [b for b in batches if not b["traced"]]
    counts = traced[0]["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
        metrics[f"{name}.self_s"] = statistics.median(b["self_s"][name] for b in traced)
    for name in COUNT_NAMES:
        metrics[name] = counts[name]
    qp_iters = counts["recovery.solve_weighted_qp.iterations"]
    qp_self = metrics["recovery.solve_weighted_qp.self_s"]
    metrics["recovery.s_per_iter"] = qp_self / qp_iters if qp_iters else 0.0
    dp_jobs = counts["dpsynth.dp_synthesize.calls"] + counts["dpsynth.dp_synthesize_multi.calls"]
    power = counts["recovery.power_step_bound.calls"]
    metrics["dpsynth.cache_reuse_share"] = (dp_jobs - power) / dp_jobs if dp_jobs else 0.0
    metrics["trace.overhead_s"] = statistics.median(b["batch_s"] for b in traced) - statistics.median(
        b["batch_s"] for b in untraced
    )
    metrics.update(answers(batches))
    return metrics


def _print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    # SIGTERM raises SystemExit, so subprocess.run kills and waits for the
    # running worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)
    try:
        batches, setups = collect(runner, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    problems = verify(batches)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = failures(batches)
    untraced_jobs = sum(len(b["job_s"]) for b in batches if not b["traced"])

    e2e = end_to_end(batches, setups)
    _print_table(f"{args.workload} seed {args.seed}: end to end, untraced "
                 f"({untraced_jobs} jobs in {len(batches)} batches, {len(setups)} set-ups)",
                 e2e, END_TO_END)
    _print_table(f"answers ({failed} of {attempted} jobs failed)", answers(batches), ANSWERS)
    for job in batches[0]["jobs"]:
        if job.get("failed", True):
            print(f"    failed: {job['name']}: {job.get('note') or 'raised'}")
    if args.trace:
        layers = per_layer(batches)
        _print_table("per layer, traced", {k: v for k, v in layers.items() if k not in ANSWERS}, PER_LAYER)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print("environment " + json.dumps(dict(batches[0]["environment"], seed=args.seed)))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
