"""Estimating a population of binomial parameters.

Each of N coins has a hidden bias drawn from a mixing distribution on
[0, 1]; we observe t tosses per coin. The fingerprint (head-count
histogram) is a sufficient statistic. The nonparametric MLE of the mixing
distribution is fitted by EM over a uniform grid; the naive per-coin
empirical estimator is the baseline. Shifted-Chebyshev-to-Bernstein
conversion coefficients, used in the error analysis of the MLE, are
computed exactly from integer binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import DiscreteDistribution, w1_distance


@dataclass(frozen=True)
class Fingerprint:
    """Counts n_s of coins showing s heads out of t tosses."""

    t: int
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size != self.t + 1:
            raise ValueError("need one count per head total 0..t")
        if np.any(counts < 0) or counts.sum() == 0:
            raise ValueError("counts must be nonnegative with positive total")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_coins(self):
        return int(self.counts.sum())

    @property
    def fractions(self):
        return self.counts / self.counts.sum()


def fingerprint(observations, t):
    """Exact head-count histogram of integer observations in [0, t].

    Integer arrays are counted as they are; float arrays must hold whole
    numbers, and both checks run on the values before any cast."""
    obs = np.asarray(observations)
    if obs.size == 0:
        raise ValueError("no observations")
    if not np.issubdtype(obs.dtype, np.integer) and np.any(obs != np.floor(obs)):
        raise ValueError("observations must be integers")
    if obs.min() < 0 or obs.max() > t:
        raise ValueError("observation outside [0, t]")
    return Fingerprint(t=t, counts=np.bincount(obs.astype(np.int64, copy=False), minlength=t + 1))


def _log_binomial_pmf_table(t, grid):
    """log Binom(t, s, y) for s = 0..t (rows) over grid biases y (columns).

    Log-space with explicit endpoint handling, so t up to a few hundred
    cannot underflow.
    """
    y = np.asarray(grid, dtype=float)
    s = np.arange(t + 1)
    log_choose = (
        np.array([math.lgamma(t + 1) - math.lgamma(v + 1) - math.lgamma(t - v + 1) for v in s])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(y)
        log_1my = np.log1p(-y)
        table = (
            log_choose[:, None]
            + s[:, None] * log_y[None, :]
            + (t - s)[:, None] * log_1my[None, :]
        )
    # endpoints: y = 0 gives a point mass at s = 0, y = 1 at s = t
    if y[0] == 0.0:
        table[:, 0] = -np.inf
        table[0, 0] = 0.0
    if y[-1] == 1.0:
        table[:, -1] = -np.inf
        table[t, -1] = 0.0
    return table


@dataclass
class EmResult:
    distribution: DiscreteDistribution
    log_likelihood: float
    trace: np.ndarray
    iterations: int
    converged: bool
    max_drift: float = 0.0


def npmle_em(fp, grid_size=1000, tol=1e-7, max_iters=10000):
    """Mixing-distribution MLE on the uniform grid {0, ..., 1} by EM.

    Multiplicative updates keep the weights on the simplex (renormalized
    each step); the log-likelihood is nondecreasing and iteration stops
    once its gain per coin drops below `tol`. A fingerprint concentrated
    on a single head count returns the best single grid atom without
    iterating.
    """
    if grid_size < 2:
        raise ValueError("need at least two grid points")
    t = fp.t
    grid = np.arange(grid_size) / (grid_size - 1)
    log_pmf = _log_binomial_pmf_table(t, grid)
    h = fp.fractions

    hot = np.flatnonzero(fp.counts)
    if hot.size == 1:
        best = int(np.argmax(log_pmf[hot[0]]))
        dist = unit_interval_distribution(np.array([grid[best]]), np.array([1.0]))
        ll = float(fp.counts[hot[0]] * log_pmf[hot[0], best])
        return EmResult(dist, ll, np.array([ll]), 0, True)

    pmf = np.exp(log_pmf)
    active = h > 0
    pmf_act = pmf[active]
    h_act = h[active]
    n = fp.n_coins
    w = np.full(grid_size, 1.0 / grid_size)
    mix = pmf_act @ w
    ll = float(n * (h_act @ np.log(mix)))
    trace = [ll]
    converged = False
    iterations = 0
    max_drift = 0.0
    for iterations in range(1, max_iters + 1):
        w = w * (pmf_act.T @ (h_act / mix))
        drift = abs(w.sum() - 1.0)
        max_drift = max(max_drift, drift)
        if drift > 1e-9:
            raise RuntimeError("EM weights drifted off the simplex")
        w = w / w.sum()
        mix = pmf_act @ w
        new_ll = float(n * (h_act @ np.log(mix)))
        if new_ll < ll - 1e-8 * max(1.0, abs(ll)):
            raise RuntimeError("EM log-likelihood decreased")
        gain = new_ll - ll
        ll = new_ll
        trace.append(ll)
        if gain < tol * n:
            converged = True
            break
    keep = w > 1e-15
    support01 = grid[keep]
    weights = w[keep] / w[keep].sum()
    dist = unit_interval_distribution(support01, weights)
    return EmResult(dist, ll, np.asarray(trace), iterations, converged, max_drift)


def naive_estimator(observations, t):
    """Uniform distribution over the per-coin empirical biases X_i / t."""
    obs = np.asarray(observations, dtype=float)
    if np.any((obs < 0) | (obs > t)):
        raise ValueError("observation outside [0, t]")
    return unit_interval_distribution(obs / t, np.full(obs.size, 1.0 / obs.size))


def unit_interval_distribution(support01, weights):
    """DiscreteDistribution on [0,1] (stored on [-1,1] via y -> 2y - 1)."""
    support01 = np.asarray(support01, dtype=float)
    if np.any((support01 < -1e-12) | (support01 > 1.0 + 1e-12)):
        raise ValueError("support outside [0, 1]")
    return DiscreteDistribution(np.clip(support01, 0.0, 1.0) * 2.0 - 1.0, weights)


def unit_support(dist):
    """The [0,1]-scale support of a distribution built for this module."""
    return (dist.support + 1.0) / 2.0


def w1_unit_interval(p, q):
    """Exact Wasserstein-1 on [0,1]: the [-1,1] distance of the affine
    images, halved (the map y -> 2y - 1 doubles every gap)."""
    for dist in (p, q):
        if np.any((dist.support < -1.0 - 1e-12) | (dist.support > 1.0 + 1e-12)):
            raise ValueError("support outside the stored [-1,1] range")
    return 0.5 * w1_distance(p, q)


@dataclass(frozen=True)
class BernsteinConversion:
    """Coefficients writing the shifted degree-m first-kind polynomial in
    the degree-t Bernstein basis: T_m(2x - 1) = sum_j C(t,m,j) B_j^t(x)."""

    t: int
    m: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def coefficient_bound(self):
        return (self.t + 1) * math.exp(self.m**2 / self.t)


def cheb_to_bernstein_exact(t, m):
    """Exact conversion coefficients as Fractions.

    C(t,m,j) = sum_i (-1)^{m-i} binom(2m, 2i) binom(t-m, j-i) / binom(t, j);
    the inner binom(m, i) factors cancel, leaving integer numerators.
    The identity also holds at m = t, where the degree-raising step is
    trivial, so that edge is allowed.
    """
    if not 1 <= m <= t:
        raise ValueError("need 1 <= m <= t")
    out = []
    for j in range(t + 1):
        num = 0
        for i in range(max(0, j - (t - m)), min(m, j) + 1):
            term = math.comb(2 * m, 2 * i) * math.comb(t - m, j - i)
            num += -term if (m - i) % 2 else term
        out.append(Fraction(num, math.comb(t, j)))
    return out


def cheb_to_bernstein(t, m):
    """Float view of the exact conversion coefficients."""
    exact = cheb_to_bernstein_exact(t, m)
    return BernsteinConversion(t=t, m=m, values=np.array([float(v) for v in exact]))
