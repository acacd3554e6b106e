"""Scaling-study harness for the private synthesis pipeline.

Synthetic generators sampled by inverse CDF on a fixed grid, a sweep of
dataset sizes over powers of two with repeated trials, and the CSV rows
(n, trial, w1, expected_bound) the study emits. Trials are independent
given their derived seeds, so they can run in parallel; output order is by
(n, trial) regardless of completion order.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, w1_distance
from .dpsynth import PrivacyBudget, dp_synthesize, expected_error_curve

GENERATOR_GRID_SIZE = 10_000


def generator_pdf(name, x):
    """Unnormalized densities of the built-in 1-D generators."""
    x = np.asarray(x, dtype=float)
    if name == "gaussian":
        return np.exp(-0.5 * x * x)
    if name == "sine":
        return np.sin(np.pi * x) + 1.0
    if name == "powerlaw":
        return (x + 1.1) ** -2.0
    raise ValueError(f"unknown generator {name!r}")


GENERATORS = ("gaussian", "sine", "powerlaw")


def sample_generator(name, n, seed):
    """n draws by inverse CDF over a 10^4-point grid on [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, GENERATOR_GRID_SIZE)
    masses = generator_pdf(name, grid)
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="left")
    return grid[np.clip(idx, 0, grid.size - 1)]


def trial_seeds(base_seed, n, trial):
    """Independent (data seed, mechanism seed) derived from the run seed."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(int(n), int(trial)))
    data_seed, noise_seed = ss.generate_state(2)
    return int(data_seed), int(noise_seed)


@dataclass
class ScalingRow:
    n: int
    trial: int
    w1: float
    expected_bound: float


def _run_one(args):
    name, n, trial, epsilon, delta, base_seed = args
    data_seed, noise_seed = trial_seeds(base_seed, n, trial)
    data = sample_generator(name, n, data_seed)
    budget = PrivacyBudget(epsilon=epsilon, delta=delta)
    result = dp_synthesize(data, budget, noise_seed)
    sample_dist = DiscreteDistribution.uniform_over(data)
    w1 = w1_distance(sample_dist, result.distribution)
    return ScalingRow(
        n=n,
        trial=trial,
        w1=w1,
        expected_bound=expected_error_curve(n, epsilon, delta),
    )


def delta_for(n):
    """delta = 1/n^2, the privacy parameter of the scaling study at size n."""
    return 1.0 / (n * n)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_children():
    """Set every BLAS thread count to 1 in the environment that processes
    started inside the block inherit; restore it on exit. The BLAS already
    loaded in this process keeps its own thread count."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


def doubling_sizes(nmin, nmax):
    """The sweep's sizes nmin, 2 nmin, 4 nmin, ... up to nmax. Refuses an
    nmin below 2 and an nmax below nmin."""
    if nmin < 2:
        raise ValueError("--nmin must be at least 2")
    if nmax < nmin:
        raise ValueError("--nmax must be at least --nmin")
    n_values = [nmin]
    while 2 * n_values[-1] <= nmax:
        n_values.append(2 * n_values[-1])
    return n_values


def write_scaling_csv(rows, path):
    """The study's CSV: header n,trial,w1,expected_bound, one line per row,
    floats as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "trial", "w1", "expected_bound"])
        for row in rows:
            writer.writerow([row.n, row.trial, "%.17g" % row.w1, "%.17g" % row.expected_bound])


def run_dp_scaling(name, n_values, trials, epsilon, seed, jobs=1):
    """All (n, trial) runs for one generator, ordered by (n, trial).

    With jobs > 1 the runs go to at most `jobs` worker processes, each a
    fresh interpreter ("spawn") that reads a BLAS thread count of 1 before
    it imports NumPy, so the workers do not contend for the cores with
    BLAS threads of their own. Each worker imports the caller's main
    module, so a script that calls this with jobs > 1 needs the
    `if __name__ == "__main__"` guard.
    """
    tasks = [
        (name, int(n), trial, epsilon, delta_for(int(n)), seed)
        for n in sorted(n_values)
        for trial in range(trials)
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread_children(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            rows = list(pool.map(_run_one, tasks))
    else:
        rows = [_run_one(t) for t in tasks]
    rows.sort(key=lambda r: (r.n, r.trial))
    return rows


def loglog_slope(ns, means):
    """Least-squares slope of log(mean W1) against log n."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


RATE_SLOPE_FAST_END = -1.3
RATE_SLOPE_FRACTION = 0.7


@dataclass
class RateSlopeCheck:
    slope: float
    curve_slope: float

    @property
    def slow_end(self):
        return RATE_SLOPE_FRACTION * self.curve_slope

    @property
    def ok(self):
        return RATE_SLOPE_FAST_END <= self.slope <= self.slow_end

    @property
    def window(self):
        return (
            f"[{RATE_SLOPE_FAST_END}, {self.slow_end:.4f}] "
            f"(slow end = {RATE_SLOPE_FRACTION} x curve slope {self.curve_slope:.4f})"
        )


def rate_slope_check(ns, means, epsilon):
    """Log-log slope of mean W1 against the slope of the Õ(1/n) curve
    (criterion 4b).

    The slope must lie in [-1.3, 0.7 * s], where s is the slope of
    `expected_error_curve` with delta = 1/n^2 over the same n. The log
    factors of that curve make s about -0.76 over n = 2^7..2^13, so the slow
    end is about -0.53. An error falling like 1/n or like the curve passes,
    and one falling like n^(-1/2) fails; but n^(-1/2)/log n, which is not
    Õ(1/n), has slope about -0.65 over that range and passes too. Over so
    short a range the check cannot tell the two rates apart, so it does not
    verify the rate; it rejects errors that fall no faster than n^(-1/2).
    The level is carried by criterion 4a (mean W1 at most 5x the curve).
    """
    curve = [expected_error_curve(n, epsilon, delta_for(n)) for n in ns]
    return RateSlopeCheck(slope=loglog_slope(ns, means), curve_slope=loglog_slope(ns, curve))


def mean_w1_by_n(rows):
    """(sorted n values, mean W1 per n) from scaling rows."""
    ns = sorted({row.n for row in rows})
    means = [float(np.mean([row.w1 for row in rows if row.n == n])) for n in ns]
    return ns, means
