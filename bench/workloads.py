"""The benchmark's workloads.

Each workload turns a seed into inputs (at set-up), a fixed list of timed
jobs, and a check of every answer against a reference that the code under
test did not produce. Jobs reach the library only through its public
functions and the in-process CLI, and always look them up through their
module at call time, so that the traced run sees the wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from momentforge import cli, dpsynth, sde

from reference import (
    GENERATORS,
    cheb_moments_plain,
    dp_tail_bound,
    norm_inverse_sum,
    planted_symmetric,
    read_distribution_csv,
    sample_density,
    w1_1d,
)


@dataclass
class Outcome:
    """A checked answer: `ratio` is achieved error / the job's stated bound.
    A job fails when the program reports failure or the ratio exceeds 1."""

    failed: bool
    ratio: float
    note: str = ""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _outcome(ratio, flagged, flag_note):
    notes = [flag_note] if flagged else []
    if not ratio <= 1.0:
        notes.append(f"error {ratio:.3g} x its bound")
    return Outcome(failed=bool(notes), ratio=float(ratio), note="; ".join(notes))


# ---------------------------------------------------------------------------
# dp_release: the private synthesis pipeline in scaling-study order


DP_EPSILON = 0.5
DP_SIZES = ((2048, 5), (8192, 1))  # (n, consecutive trials)
DP_MULTI = ((2, 1024), (3, 1024))  # (d, n)
DP_BOUND_FACTOR = 5.0  # criterion 5: W1 <= 5 x the beta = 0.05 tail bound


def _dp_1d_job(name, data, delta, noise_seed):
    n = data.size
    bound = DP_BOUND_FACTOR * dp_tail_bound(n, DP_EPSILON, delta)

    def run():
        budget = dpsynth.PrivacyBudget(epsilon=DP_EPSILON, delta=delta)
        return dpsynth.dp_synthesize(data, budget, noise_seed)

    def check(result):
        dist = result.distribution
        w1 = w1_1d(dist.support, dist.weights, data, 1.0)
        return _outcome(w1 / bound, not result.report.converged, "not converged")

    return Job(name, run, check)


def _dp_multi_job(name, data, delta, noise_seed):
    n, d = data.shape
    root = (DP_EPSILON * n) ** (1.0 / d)
    half_steps, m = math.ceil(root), math.ceil(2.0 * root)
    # Each axis marginal is fitted to that axis's pure moments, released with
    # the 1-D schedule j * sigma_d^2; so the bound is the 1-D tail bound
    # scaled by the noise ratio sigma_d / sigma_1, plus the axis rounding
    # error 1/(2h). The marginal W1 is at most the d-dim W1 (projection is
    # 1-Lipschitz), so this checks a lower bound of the d-dim error.
    noise_ratio = math.sqrt(
        (4.0 * 2.0**d / math.pi**d) * norm_inverse_sum(m, d) / ((16.0 / math.pi) * (1.0 + math.log(m)))
    )
    bound = DP_BOUND_FACTOR * (noise_ratio * dp_tail_bound(n, DP_EPSILON, delta) + 0.5 / half_steps)

    def run():
        budget = dpsynth.PrivacyBudget(epsilon=DP_EPSILON, delta=delta)
        return dpsynth.dp_synthesize_multi(data, budget, noise_seed)

    def check(result):
        dist = result.distribution
        w1 = max(w1_1d(dist.support[:, a], dist.weights, data[:, a], 1.0) for a in range(d))
        return _outcome(w1 / bound, not result.report.converged, "not converged")

    return Job(name, run, check)


def dp_release(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    jobs = []
    trial = 0
    for n, trials in DP_SIZES:
        for _ in range(trials):
            gen = GENERATORS[trial % len(GENERATORS)]
            data = sample_density(gen, n, rng)
            name = f"dp1d-n{n}-{gen}"
            jobs.append(_dp_1d_job(name, data, 1.0 / n**2, int(rng.integers(2**62))))
            trial += 1
    for d, n in DP_MULTI:
        # independent axes, one scaling-study shape each
        data = np.stack([sample_density(GENERATORS[a], n, rng) for a in range(d)], axis=1)
        jobs.append(_dp_multi_job(f"dp{d}d-n{n}", data, 1.0 / n**2, int(rng.integers(2**62))))
    return jobs


# ---------------------------------------------------------------------------
# cli_small: small consistent systems and the MLE, through the CLI on files


RECOVER_DEGREES = (16, 32, 64)
RECOVER_PER_DEGREE = 2
RECOVER_ATOMS = 5
# The recover instances are one fixed draw, the same for every seed: solve
# time varies a hundredfold between random instances (about 0.1 s to the
# 10 s iteration cap at k = 64), so a per-seed draw would make batch_s
# measure the draw instead of the code. The draw was taken once, not selected.
RECOVER_POOL_SEED = 2408_12385
RECOVER_BOUND = 40.0  # criterion 3: W1 <= 40 / k

POPMLE_T = (8, 32, 128)
POPMLE_POPULATIONS = ((2.0, 5.0), (0.5, 0.5), (5.0, 1.5))  # Beta(a, b) truths
POPMLE_COINS = 100_000
POPMLE_GRID = 1000


def _recover_job(name, workdir, k, support, weights):
    moments_path = workdir / f"{name}.moments.csv"
    moments = cheb_moments_plain(support, weights, k)
    with open(moments_path, "w") as fh:
        fh.write("j,m\n")
        fh.writelines(f"{j},{m:.17g}\n" for j, m in enumerate(moments, start=1))
    out = workdir / f"{name}.dist.csv"
    argv = ["recover", "--moments", str(moments_path), "--out", str(out),
            "--report", str(workdir / f"{name}.report.json")]

    def run():
        return cli.main(argv)

    def check(code):
        x, w = read_distribution_csv(out)
        ratio = w1_1d(x, w, support, weights) * k / RECOVER_BOUND
        return _outcome(ratio, code != 0, f"exit code {code}")

    return Job(name, run, check)


def _popmle_job(name, workdir, t, tosses, biases):
    obs_path = workdir / f"{name}.obs.csv"
    obs_path.write_text("\n".join(map(str, tosses.tolist())) + "\n")
    out = workdir / f"{name}.dist.csv"
    argv = ["popmle", "--obs", str(obs_path), "--t", str(t), "--grid", str(POPMLE_GRID),
            "--out", str(out), "--report", str(workdir / f"{name}.report.json")]
    # the MLE must beat the naive per-coin estimator, both against the truth
    naive_w1 = w1_1d(tosses / t, 1.0, biases, 1.0)

    def run():
        return cli.main(argv)

    def check(code):
        x, w = read_distribution_csv(out)
        # the CLI writes [0, 1] biases on the stored [-1, 1] axis
        ratio = w1_1d((x + 1.0) / 2.0, w, biases, 1.0) / naive_w1
        return _outcome(ratio, code != 0, f"exit code {code}")

    return Job(name, run, check)


def cli_small(seed, workdir):
    pool = np.random.default_rng(RECOVER_POOL_SEED)
    jobs = []
    for k in RECOVER_DEGREES:
        for i in range(RECOVER_PER_DEGREE):
            support = pool.uniform(-1.0, 1.0, RECOVER_ATOMS)
            weights = pool.dirichlet(np.ones(RECOVER_ATOMS))
            jobs.append(_recover_job(f"recover-k{k}-{i}", workdir, k, support, weights))
    rng = np.random.default_rng([seed, 2])
    for a, b in POPMLE_POPULATIONS:
        biases = rng.beta(a, b, POPMLE_COINS)
        for t in POPMLE_T:
            tosses = rng.binomial(t, biases)
            jobs.append(_popmle_job(f"popmle-beta{a:g},{b:g}-t{t}", workdir, t, tosses, biases))
    return jobs


# ---------------------------------------------------------------------------
# sde_spectra: dense planted spectra and a large sparse operator


SDE_DELTA = 0.1
SDE_DENSE = ((1024, 2), (2048, 3))  # (n, matrices)
SDE_DENSE_EPSILON = 0.1
SDE_SPARSE_N = 2**20
SDE_SPARSE_EPSILONS = (0.2, 0.1, 0.05)
# reduced constants that make the probe pipeline the cheaper path here
SDE_PROBE_CONSTANT = 0.02
SDE_DEGREE_CONSTANT = 8.0
SDE_TOEPLITZ_OFFDIAG = 0.45  # spectrum 0.9 cos(pi j / (n + 1))


def _planted_spectrum(n, rng):
    """Two bumps inside [-1, 1]."""
    low = rng.normal(-0.35, 0.2, n)
    high = rng.normal(0.5, 0.1, n)
    lam = np.where(rng.random(n) < 0.6, low, high)
    return np.sort(np.clip(lam, -0.95, 0.95))


def _sde_job(name, make_operator, truth, epsilon, probe_seed, scale_factor, **constants):
    # criterion 7's S from the known spectrum, not from the library's own
    # estimate: the norm on the dense path, and on the probe path twice the
    # norm, the value the power-method bound S = 2 x estimate aims at
    scale = scale_factor * float(np.max(np.abs(truth)))

    def run():
        return sde.estimate_spectral_density(
            make_operator(), epsilon, SDE_DELTA, probe_seed, **constants
        )

    def check(result):
        dist = result.distribution
        w1 = w1_1d(dist.support, dist.weights, truth, 1.0)
        ratio = w1 / (epsilon * scale)
        return _outcome(ratio, not result.report.lp_feasible, "moment fit infeasible")

    return Job(name, run, check)


def sde_spectra(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for n, count in SDE_DENSE:
        for i in range(count):
            lam = _planted_spectrum(n, rng)
            matrix = planted_symmetric(lam, rng)
            jobs.append(_sde_job(
                f"sde-dense-n{n}-{i}",
                lambda m=matrix: sde.LinearOperator.from_dense(m),
                lam,
                SDE_DENSE_EPSILON,
                int(rng.integers(2**62)),
                scale_factor=1.0,
            ))
    n = SDE_SPARSE_N
    off = np.full(n - 1, SDE_TOEPLITZ_OFFDIAG)
    toeplitz = scipy.sparse.diags([off, off], [-1, 1], format="csr")
    truth = np.sort(2.0 * SDE_TOEPLITZ_OFFDIAG * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    for eps in SDE_SPARSE_EPSILONS:
        jobs.append(_sde_job(
            f"sde-toeplitz-n{n}-eps{eps:g}",
            lambda: sde.LinearOperator(n, lambda v: toeplitz @ v),
            truth,
            eps,
            int(rng.integers(2**62)),
            scale_factor=2.0,
            probe_constant=SDE_PROBE_CONSTANT,
            degree_constant=SDE_DEGREE_CONSTANT,
        ))
    return jobs


WORKLOADS = {
    "dp_release": dp_release,
    "cli_small": cli_small,
    "sde_spectra": sde_spectra,
}
