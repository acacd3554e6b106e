"""Private synthetic data via noisy Chebyshev moment matching.

The 1-D pipeline rounds the data to a uniform grid, releases Gaussian-noised
normalized moments with a per-index variance schedule, and fits a
distribution on the same grid by weighted moment regression. The d in {2,3}
variant does the same over a tensor grid and tensor moments. Both apply the
moment map in double precision without a dense table: the 1-D grid through
`recovery.NufftBasis`, the tensor grid through `recovery.KroneckerBasis`,
each built once per release for both the exact moments and the fit.
Everything after the noise draw is `synthesize_from_noisy_moments`, the one
fit of both pipelines: a pure function of the noisy moments and public
parameters, so a 1-D or tensor run can be replayed without the raw data.
The mechanism's seed is a secret key, not part of the release: with it and
the public parameters anyone can subtract the noise.

The release (`NoisyMoments`) is the library's only object that holds
normalized moments, sqrt(2/pi) times the plain ones (tensor index K:
`multi_moment_normalizers`); every other moment and coefficient is plain.
The 1-D fit rescales the release to plain moments by sqrt(pi/2).

The mechanism treats the dataset size n as public: the noise variance
sigma^2 depends on n (as 1/n^2), so a release reveals n. Data outside
[-1,1] is clamped and counted; the count (`DpSynthesisReport.clamped`) is
of clamped coordinates, not points (a tensor point at (1.5, 1.5) counts 2).
It is data-dependent and not privatized, so it is a private diagnostic, not
part of the release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from ._normal import seeded_standard_normals
from .distributions import (
    TENSOR_UNIFORM,
    DiscreteDistribution,
    Grid,
    MomentVector,
    grid_round_indices,
    multi_index_array,
    round_to_grid,
)
from .recovery import KroneckerBasis, NufftBasis, fit_simplex, solve_weighted_qp


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) with the derived per-run noise scales."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    def sigma2(self, n, k):
        """Base noise variance for n points and k released 1-D moments."""
        return (
            (16.0 / math.pi)
            * (1.0 + math.log(k))
            * math.log(1.25 / self.delta)
            / (self.epsilon**2 * n**2)
        )

    def sigma2_multi(self, n, m, d):
        """Base noise variance for the tensor release, via the exact norm sum."""
        s = norm_inverse_sum(m, d)
        return (
            (4.0 * 2.0**d / math.pi**d)
            * s
            * math.log(1.25 / self.delta)
            / (n**2 * self.epsilon**2)
        )


def sensitivity_sq_bound(n, k):
    """Squared l2 sensitivity bound of the scaled moment release: the map
    sends a dataset to (j^{-1/2} mean of normalized T_j) for j = 1..k, and
    changing one of n points moves it by at most this much in squared l2.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return 8.0 * (1.0 + math.log(k)) / (math.pi * n**2)


def norm_inverse_sum(m, d):
    """Exact sum of 1/||K||_2 over K in {0..m}^d \\ {0}."""
    if d not in (2, 3):
        raise ValueError("norm sum is defined for d in {2, 3}")
    axes = np.meshgrid(*([np.arange(m + 1)] * d), indexing="ij")
    sq = sum(a.astype(np.int64) ** 2 for a in axes).ravel()[1:]
    return float(np.sum(1.0 / np.sqrt(sq)))


def norm_inverse_sum_bound(m, d):
    """The closed-form upper bound 4 (pi e)^{d/2} m^{d-1} / (2^d d)."""
    return 4.0 * (math.pi * math.e) ** (d / 2.0) / 2.0**d * m ** (d - 1) / d


def gaussian_mechanism_delta(sigma, sensitivity, epsilon):
    """The exact delta at which adding N(0, sigma^2 I) noise to a release of
    l2 sensitivity `sensitivity` is (epsilon, delta)-private:
    Phi(D/(2 sigma) - eps sigma/D) - e^eps Phi(-D/(2 sigma) - eps sigma/D)
    (Balle and Wang 2018, Thm. 8). The noise schedules satisfy their budget
    when this is at most budget.delta with sigma^2 = `sigma2` and
    D^2 = `sensitivity_sq_bound` (1-D), or sigma^2 = `sigma2_multi` and
    D^2 = 2^(d+1) norm_inverse_sum / (pi^d n^2) (tensor release)."""
    if sigma <= 0.0 or sensitivity <= 0.0:
        raise ValueError("sigma and sensitivity must be positive")
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return float(ndtr(a - b) - math.exp(epsilon) * ndtr(-a - b))


def gaussian_noise_vector(indices, sigma2, seed):
    """Seeded Gaussian noise with per-index variances.

    `indices` is either an integer k (variances j * sigma2, j = 1..k) or
    integer multi-indices, a (k, d) array or a list of tuples (variances
    ||K||_2 * sigma2). Identical seeds give identical bytes; see
    momentforge._normal for the sampling method.
    """
    if sigma2 < 0:
        raise ValueError("variance must be nonnegative")
    if np.isscalar(indices):
        variances = sigma2 * np.arange(1, int(indices) + 1, dtype=float)
    else:
        variances = sigma2 * np.sqrt(_norms_sq(indices))
    draws = seeded_standard_normals(seed, variances.size)
    return draws * np.sqrt(variances), variances


def _norms_sq(indices):
    """||K||_2^2 of each integer multi-index, exact, as floats."""
    return (np.asarray(indices, dtype=np.int64) ** 2).sum(axis=1).astype(float)


@dataclass(frozen=True)
class NoisyMoments:
    """The released object: noisy normalized moments plus their schedule,
    the one normalized-moment type of the library."""

    values: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    # multi-index release only: the moments' integer (k, d) multi-index array
    indices: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        for name, dtype in (("values", float), ("variances", float), ("indices", np.int64)):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=dtype)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def k(self):
        return self.values.size


def expected_error_curve(n, epsilon, delta):
    """log(eps n) sqrt(log(1/delta)) / (eps n), the expected-error shape
    (leading constant 1, as plotted)."""
    en = epsilon * n
    if en <= 1.0:
        raise ValueError("epsilon * n must exceed 1")
    return math.log(en) * math.sqrt(math.log(1.0 / delta)) / en


def high_probability_bound(n, epsilon, delta, beta=0.05):
    """Tail version of the error curve at failure probability beta."""
    en = epsilon * n
    if en <= 1.0:
        raise ValueError("epsilon * n must exceed 1")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    return (
        math.sqrt(math.log(1.0 / beta) + math.log(en))
        * math.sqrt(math.log(en) * math.log(1.0 / delta))
        / en
    )


@dataclass
class DpSynthesisReport:
    n: int
    k: int
    r: int
    sigma2: float
    gamma: float
    expected_bound: float
    hp_bound_beta05: float
    clamped: int  # clamped coordinates, not points: (1.5, 1.5) counts 2
    objective: float
    iterations: int
    converged: bool
    d: int = 1
    norm_sum: float = None
    rounding_bound: float = None


@dataclass
class DpSynthesisResult:
    distribution: DiscreteDistribution
    noisy_moments: NoisyMoments
    report: DpSynthesisReport


def _clamp_data(data):
    arr = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    clamped = int(np.sum((arr < -1.0) | (arr > 1.0)))
    return np.clip(arr, -1.0, 1.0), clamped


def synthesize_from_noisy_moments(noisy, grid):
    """Post-processing half of both pipelines: fit the grid distribution to
    the released noisy moments. Pure in (noisy moments, public parameters).

    A 1-D release (`indices` None) fits on `grid`, the uniform grid of its
    pipeline. A tensor release must carry `multi_index_array(m, d)` as its
    indices and come with the pipeline's tensor grid,
    `Grid.tensor_uniform(ceil(m / 2), d)`; anything else is a ValueError.
    Returns the distribution and the fit's `QPSolution`.
    """
    if noisy.indices is None:
        return _fit_grid(noisy, grid, NufftBasis(grid.points, noisy.k))
    m, d = int(noisy.indices.max()), noisy.indices.shape[1]
    if not np.array_equal(noisy.indices, multi_index_array(m, d)):
        raise ValueError("tensor release indices must be multi_index_array(m, d)")
    half_steps = math.ceil(m / 2)
    if grid.kind != TENSOR_UNIFORM or not np.array_equal(
        grid.points, Grid.tensor_uniform(half_steps, d).points
    ):
        raise ValueError(f"a degree-{m} tensor release needs Grid.tensor_uniform({half_steps}, {d})")
    return _fit_grid(noisy, grid, KroneckerBasis(grid.axis_points, m, d))


def _fit_grid(noisy, grid, basis):
    # basis is the release's moment map on `grid`, built from public
    # parameters only: NufftBasis(grid.points, k) for a 1-D release, which
    # fits the plain moments sqrt(pi/2) * values with weights 1/j^2, and
    # KroneckerBasis for a tensor release, which fits the values with
    # weights 1/||K||^2
    if noisy.indices is None:
        plain = MomentVector(noisy.values * math.sqrt(math.pi / 2.0))
        solution = solve_weighted_qp(plain, basis)
    else:
        solution = fit_simplex(basis, 1.0 / _norms_sq(noisy.indices), noisy.values)
    weights = solution.weights / solution.weights.sum()
    dist = DiscreteDistribution(grid.points, weights).pruned()
    return dist, solution


def dp_synthesize(data, budget, seed):
    """The 1-D private synthesis pipeline.

    Grid spacing 1/ceil(eps n), k = ceil(2 eps n) noisy normalized moments
    with variances j sigma^2, then the exact 1/j^2-weighted moment
    regression over the same grid (`synthesize_from_noisy_moments`); the
    report's `converged` is the fit's own certificate. `seed` keys the
    noise: it must stay secret, and the release does not carry it.
    """
    values, clamped = _clamp_data(data)
    if values.ndim != 1:
        raise ValueError("1-D pipeline expects a flat data vector")
    n = values.size
    if n < 2:
        raise ValueError("need at least two data points")
    en = budget.epsilon * n
    if math.ceil(en) < 1 or en < 1.0:
        raise ValueError("epsilon * n below 1 leaves a degenerate grid")
    half_steps = math.ceil(en)
    grid = Grid.uniform(half_steps)
    k = math.ceil(2.0 * en)
    sigma2 = budget.sigma2(n, k)

    idx = grid_round_indices(values, grid)
    counts = np.bincount(idx, minlength=grid.size)
    rounded_weights = counts / n
    basis = NufftBasis(grid.points, k)
    exact_plain = basis.apply(rounded_weights)
    exact_norm = exact_plain * math.sqrt(2.0 / math.pi)
    noise, variances = gaussian_noise_vector(k, sigma2, seed)
    noisy = NoisyMoments(values=exact_norm + noise, variances=variances)

    dist, solution = _fit_grid(noisy, grid, basis)
    report = DpSynthesisReport(
        n=n,
        k=k,
        r=grid.size,
        sigma2=sigma2,
        gamma=math.sqrt(max(solution.objective, 0.0)),
        expected_bound=expected_error_curve(n, budget.epsilon, budget.delta),
        hp_bound_beta05=high_probability_bound(n, budget.epsilon, budget.delta, 0.05),
        clamped=clamped,
        objective=solution.objective,
        iterations=solution.iterations,
        converged=solution.converged,
        rounding_bound=1.0 / (2.0 * half_steps),
    )
    return DpSynthesisResult(distribution=dist, noisy_moments=noisy, report=report)


def dp_synthesize_multi(data, budget, seed):
    """The d in {2,3} tensor pipeline.

    Per-coordinate spacing 1/ceil((eps n)^{1/d}), degrees up to
    m = ceil(2 (eps n)^{1/d}), per-index noise variance ||K||_2 sigma^2 with
    sigma^2 built from the exact norm sum, and the exact
    1/||K||_2^2-weighted fit of the normalized tensor moments over the
    tensor grid (`synthesize_from_noisy_moments`); the report's `converged`
    is the fit's own certificate. `seed` keys the noise as in
    `dp_synthesize`.
    """
    points = np.asarray(data, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError("expected an (n, d) array with d in {2, 3}")
    points, clamped = _clamp_data(points)
    n, d = points.shape
    if n < 2:
        raise ValueError("need at least two data points")
    en = budget.epsilon * n
    root = en ** (1.0 / d)
    half_steps = math.ceil(root)
    m = math.ceil(2.0 * root)
    grid = Grid.tensor_uniform(half_steps, d)
    s = norm_inverse_sum(m, d)
    sigma2 = budget.sigma2_multi(n, m, d)

    rounded = round_to_grid(points, grid)
    basis = KroneckerBasis(grid.axis_points, m, d)
    # accumulate the rounded data's weights on the tensor grid
    axis = grid.axis_points
    flat_idx = np.zeros(n, dtype=np.int64)
    for coord in range(d):
        pos = np.searchsorted(axis, rounded[:, coord])
        flat_idx = flat_idx * axis.size + pos
    counts = np.bincount(flat_idx, minlength=grid.points.shape[0])
    grid_weights = counts / n
    exact = basis.apply(grid_weights)
    noise, variances = gaussian_noise_vector(basis.indices, sigma2, seed)
    noisy = NoisyMoments(values=exact + noise, variances=variances, indices=basis.indices)

    dist, solution = _fit_grid(noisy, grid, basis)
    report = DpSynthesisReport(
        n=n,
        k=basis.k,
        r=grid.points.shape[0],
        sigma2=sigma2,
        gamma=math.sqrt(max(solution.objective, 0.0)),
        expected_bound=float("nan"),
        hp_bound_beta05=float("nan"),
        clamped=clamped,
        objective=solution.objective,
        iterations=solution.iterations,
        converged=solution.converged,
        d=d,
        norm_sum=s,
        rounding_bound=d / (2.0 * half_steps),
    )
    return DpSynthesisResult(distribution=dist, noisy_moments=noisy, report=report)
