"""One benchmark process: set up a workload, run its job list once, write
what it measured as JSON.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1
        --mode batch|setup --spawned-at T --workdir DIR --out FILE [--spans FILE]

`--spawned-at` is the parent's time.monotonic() just before it started
this process, so setup_s covers interpreter start, imports, input
generation and the BLAS/LAPACK warm-up. `--mode setup` stops there.
"""

import os

# pinned before numpy is imported, here and in run.py
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """The checkout's own momentforge, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import momentforge

    if not Path(momentforge.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"momentforge imported from {momentforge.__file__}, not {SRC}")


def _warm_up(np):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    a = a @ a.T
    np.linalg.eigvalsh(a)
    np.linalg.solve(a + 256 * np.eye(256), a[0])


def _environment(np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("batch", "setup"), default="batch")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced batch writes its spans")
    args = parser.parse_args(argv)

    _import_package()
    import numpy as np

    import tracing
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    _warm_up(np)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.monotonic() - args.spawned_at
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "environment": _environment(np),
    }
    if args.mode == "batch":
        job_s, outcomes = [], []
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            start = time.perf_counter()
            try:
                result = job.run()
                job_s.append(time.perf_counter() - start)
                # checks call no library code: they add no spans and no job time
                outcome = job.check(result)
            except Exception:  # a failing job is recorded; the batch goes on
                if len(job_s) == index:
                    job_s.append(time.perf_counter() - start)
                outcomes.append({"name": job.name, "error": traceback.format_exc()})
                continue
            outcomes.append({"name": job.name, "failed": outcome.failed,
                             "ratio": outcome.ratio, "note": outcome.note})
        report["batch_s"] = sum(job_s)
        report["job_s"] = job_s
        report["jobs"] = outcomes
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            self_s, counts = tracer.layer_summary()
            report["self_s"] = self_s
            report["counts"] = counts
            tracer.write(args.spans)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
