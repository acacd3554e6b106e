"""Private synthetic data via noisy Chebyshev moment matching.

One pipeline, `dp_synthesize`, serves d = 1, 2 and 3: it rounds the data to
a uniform (tensor, for d > 1) grid, releases Gaussian-noised normalized
moments of degree m = ceil(2 (eps n)^{1/d}) per axis with variances
||K||_2 sigma^2, and fits a distribution on the same grid by the
1/||K||_2^2-weighted moment regression. Every release carries its integer
index array `multi_index_array(m, d)`, the (k, 1) rows 1..k in 1-D. The
moment map (`_release_basis`, built once per release for the exact moments
and the fit) is the one rule that depends on d: the plain
`recovery.NufftBasis` times sqrt(2/pi) in 1-D, the normalized
`recovery.KroneckerBasis` on a tensor grid. The fit,
`synthesize_from_noisy_moments`, is a pure function of the release, which
fixes its own grid, so any run can be replayed from its noisy moments
alone. The mechanism's seed is a secret key, not part of the release: with
it and the public parameters anyone can subtract the noise.

The release (`NoisyMoments`) is the library's only object that holds
normalized moments, `multi_moment_normalizers` times the plain ones
(sqrt(2/pi) in 1-D); every other moment and coefficient is plain.

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
    DiscreteDistribution,
    Grid,
    grid_round_indices,
    multi_index_array,
)
from .recovery import KroneckerBasis, NufftBasis, fit_simplex


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

    def sigma2(self, n, indices):
        """Base noise variance for n points and the release's index array
        `multi_index_array(m, d)`. The tensor rule's sensitivity 2^(d+1) S /
        (pi^d n^2), S = `norm_inverse_sum(m, d)`, would read 4 H_k / (pi n^2)
        at d = 1, below the 1-D worst case 8 sum_{odd j <= k} (1/j) /
        (pi n^2) at (-1, 1); so d = 1 keeps the rule of `sensitivity_sq_bound`.
        """
        k, d = np.shape(indices)
        if d == 1:
            return (
                (16.0 / math.pi)
                * (1.0 + math.log(k))
                * math.log(1.25 / self.delta)
                / (self.epsilon**2 * n**2)
            )
        s = norm_inverse_sum(int(np.max(indices)), d)
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
    (Balle and Wang 2018, Thm. 8). The one pipeline's noise satisfies its
    budget when this is at most budget.delta with sigma^2 =
    `PrivacyBudget.sigma2(n, indices)` and D^2 = `sensitivity_sq_bound`
    for d = 1, or D^2 = 2^(d+1) norm_inverse_sum / (pi^d n^2) for the
    tensor release."""
    if sigma <= 0.0 or sensitivity <= 0.0:
        raise ValueError("sigma and sensitivity must be positive")
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return float(ndtr(a - b) - math.exp(epsilon) * ndtr(-a - b))


def gaussian_noise_vector(indices, sigma2, seed):
    """Seeded Gaussian noise with variances ||K||_2 * sigma2 for the rows K
    of integer multi-indices `indices`, a (k, d) array or a list of tuples
    (j * sigma2 for the (k, 1) 1-D rows j). Identical seeds give identical
    bytes; see momentforge._normal for the sampling method.
    """
    if sigma2 < 0:
        raise ValueError("variance must be nonnegative")
    variances = sigma2 * np.sqrt(_norms_sq(indices))
    draws = seeded_standard_normals(seed, variances.size)
    return draws * np.sqrt(variances), variances


def _norms_sq(indices):
    """||K||_2^2 of each integer multi-index, exact, as floats."""
    return (np.asarray(indices, dtype=np.int64) ** 2).sum(axis=1).astype(float)


@dataclass(frozen=True)
class NoisyMoments:
    """The released object: noisy normalized moments plus their schedule,
    the one normalized-moment type of the library. `indices` holds the
    moments' integer (k, d) index array, `multi_index_array(m, d)`."""

    values: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("values", float), ("variances", float), ("indices", np.int64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("moments must be finite")
        if self.indices.ndim != 2 or self.indices.shape[0] != self.values.size:
            raise ValueError("indices must be a (k, d) array with one row per value")

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


def _clamp_data(arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    clamped = int(np.sum((arr < -1.0) | (arr > 1.0)))
    return np.clip(arr, -1.0, 1.0), clamped


def _release_grid(degree, d):
    """The grid of a release of degree m per axis: ceil(m / 2) half steps
    per axis, uniform for d = 1 and tensor for d in {2, 3}; so degree
    ceil(2 r) gives ceil(r) half steps."""
    half_steps = math.ceil(degree / 2)
    return Grid.uniform(half_steps) if d == 1 else Grid.tensor_uniform(half_steps, d)


def _release_basis(grid, degree, d):
    """(B, c): the moment map of a release of degree m on its grid, and the
    scale with which c B z is the release's normalized moments of grid
    weights z. The plain `NufftBasis` with c = sqrt(2/pi) for d = 1, whose
    1 / c is sqrt(pi/2) to the last bit; the normalized `KroneckerBasis`
    with c = 1 for d in {2, 3}."""
    if d == 1:
        return NufftBasis(grid.points, degree), math.sqrt(2.0 / math.pi)
    return KroneckerBasis(grid.axis_points, degree, d), 1.0


def synthesize_from_noisy_moments(noisy):
    """Post-processing half of the pipeline: fit the grid distribution to
    the released noisy moments. Pure in the release, whose indices must be
    `multi_index_array(m, d)` for some m and d (else it is a ValueError):
    they fix the grid (`_release_grid`, so k moments in 1-D fit on
    `Grid.uniform(ceil(k / 2))`) and the moment map (`_release_basis`).
    Returns the distribution and the fit's `QPSolution`.
    """
    m, d = int(noisy.indices.max()), noisy.indices.shape[1]
    if not np.array_equal(noisy.indices, multi_index_array(m, d)):
        raise ValueError("release indices must be multi_index_array(m, d)")
    grid = _release_grid(m, d)
    return _fit_grid(noisy, grid, *_release_basis(grid, m, d))


def _fit_grid(noisy, grid, basis, scale):
    # the 1/||K||^2-weighted fit of the release divided by its scale: the
    # plain moments sqrt(pi/2) * values in 1-D, the values for a tensor
    solution = fit_simplex(basis, 1.0 / _norms_sq(noisy.indices), noisy.values * (1.0 / scale))
    weights = solution.weights / solution.weights.sum()
    dist = DiscreteDistribution(grid.points, weights).pruned()
    return dist, solution


def dp_synthesize(data, budget, seed):
    """The private synthesis pipeline for an (n,) array (d = 1, where eps n
    must exceed 1) or an (n, d) array with d in {2, 3}: per-axis spacing
    1/ceil((eps n)^{1/d}), sigma^2 = `budget.sigma2(n, indices)`, then the
    fit of `synthesize_from_noisy_moments` over the same grid; the report's
    `converged` is the fit's own certificate. `seed` keys the noise: it
    must stay secret, and the release does not carry it.
    """
    points = np.asarray(data, dtype=float)
    if points.ndim not in (1, 2) or points.ndim == 2 and points.shape[1] not in (2, 3):
        raise ValueError("expected an (n,) array or an (n, d) array with d in {2, 3}")
    points, clamped = _clamp_data(points)
    n = points.shape[0]
    d = 1 if points.ndim == 1 else points.shape[1]
    eps, delta = budget.epsilon, budget.delta
    # before the fit: the 1-D curves refuse eps n <= 1; a tensor has none yet
    curves = (
        (expected_error_curve(n, eps, delta), high_probability_bound(n, eps, delta, 0.05))
        if d == 1
        else (math.nan, math.nan)
    )
    if n < 2:
        raise ValueError("need at least two data points")
    m = math.ceil(2.0 * (eps * n) ** (1.0 / d))
    grid = _release_grid(m, d)
    basis, scale = _release_basis(grid, m, d)
    indices = multi_index_array(m, d)
    sigma2 = budget.sigma2(n, indices)

    counts = np.bincount(grid_round_indices(points, grid), minlength=grid.size)
    exact = basis.apply(counts / n) * scale
    noise, variances = gaussian_noise_vector(indices, sigma2, seed)
    noisy = NoisyMoments(values=exact + noise, variances=variances, indices=indices)

    dist, solution = _fit_grid(noisy, grid, basis, scale)
    report = DpSynthesisReport(
        n=n,
        k=noisy.k,
        r=grid.size,
        sigma2=sigma2,
        gamma=math.sqrt(max(solution.objective, 0.0)),
        expected_bound=curves[0],
        hp_bound_beta05=curves[1],
        clamped=clamped,
        objective=solution.objective,
        iterations=solution.iterations,
        converged=solution.converged,
        d=d,
        norm_sum=norm_inverse_sum(m, d) if d > 1 else None,
        rounding_bound=d / (2.0 * grid.half_steps),
    )
    return DpSynthesisResult(distribution=dist, noisy_moments=noisy, report=report)


def dp_synthesize_multi(data, budget, seed):
    """`dp_synthesize` for an (n, d) array with d in {2, 3} only. It stays
    because the benchmark calls it by name, and goes away with the benchmark
    change (ROADMAP item 1)."""
    if np.ndim(data) != 2:
        raise ValueError("expected an (n, d) array with d in {2, 3}")
    return dp_synthesize(data, budget, seed)
