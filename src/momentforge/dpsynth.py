"""Private synthetic data via noisy Chebyshev moment matching.

The 1-D pipeline rounds the data to a uniform grid, releases Gaussian-noised
normalized moments with a per-index variance schedule, and fits a
distribution on the same grid by weighted moment regression. The d in {2,3}
variant does the same over a tensor grid and tensor moments. Everything
after the noise draw is a pure function of the noisy moments and public
parameters, so a run can be replayed without the raw data.

Data outside [-1,1] is clamped (and counted); clamping is itself
data-dependent, which is a privacy caveat for production use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._normal import seeded_standard_normals
from .chebyshev import cheb_t_table
from .distributions import (
    DiscreteDistribution,
    Grid,
    MomentVector,
    NORMALIZED,
    grid_round_indices,
    multi_indices,
    multi_moment_normalizer,
    round_to_grid,
)
from .recovery import (
    EXACT_MAX_ENTRIES,
    INIT_DAMPED,
    DenseBasis,
    RecoveryConfig,
    fit_simplex,
    power_step_bound,
    solve_weighted_qp,
)


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


def gaussian_noise_vector(indices, sigma2, seed):
    """Seeded Gaussian noise with per-index variances.

    `indices` is either an integer k (variances j * sigma2, j = 1..k) or a
    list of index tuples (variances ||K||_2 * sigma2). Identical seeds give
    identical bytes; see momentforge._normal for the sampling method.
    """
    if sigma2 < 0:
        raise ValueError("variance must be nonnegative")
    if np.isscalar(indices):
        variances = sigma2 * np.arange(1, int(indices) + 1, dtype=float)
    else:
        variances = sigma2 * np.array([math.sqrt(sum(v * v for v in K)) for K in indices])
    draws = seeded_standard_normals(seed, variances.size)
    return draws * np.sqrt(variances), variances


@dataclass(frozen=True)
class NoisyMoments:
    """The released object: noisy normalized moments plus their schedule."""

    values: np.ndarray = field(repr=False)
    variances: np.ndarray = field(repr=False)
    seed: int = None
    indices: tuple = None  # multi-index release only

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        var = np.asarray(self.variances, dtype=float).copy()
        vals.setflags(write=False)
        var.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "variances", var)

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
    clamped: int
    objective: float
    iterations: int
    converged: bool
    d: int = 1
    norm_sum: float = None
    rounding_bound: float = None
    w1_vs_input: float = None


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


_qp_cache: dict = {}


def _cached_qp_pieces(grid, k):
    key = (grid.kind, grid.size, k)
    hit = _qp_cache.get(key)
    if hit is not None:
        basis, bound, pts = hit
        if np.array_equal(pts, grid.points):
            return basis, bound
    if grid.size * k >= EXACT_MAX_ENTRIES:
        # only the first-order solver runs at this size, so it alone needs
        # the folded table and the step bound
        basis = _FoldedUniformBasis(grid.points, k)
        j = np.arange(1, k + 1)
        bound = power_step_bound(basis, 1.0 / (j * j))
    else:
        basis, bound = DenseBasis(cheb_t_table(k, grid.points)[1:]), None
    _qp_cache.clear()  # keep at most one (large) cached basis
    _qp_cache[key] = (basis, bound, grid.points)
    return basis, bound


class _FoldedUniformBasis:
    """The moment map on a symmetric uniform grid, folded by parity.

    T_j(-x) = (-1)^j T_j(x), so even-degree rows act on z_i + z_{-i} and
    odd-degree rows on z_i - z_{-i}; both half-size tables together hold
    half the entries of the dense table. Stored in single precision: it is
    only built at EXACT_MAX_ENTRIES entries or more.
    """

    def __init__(self, points, k):
        r = points.shape[0]
        if r % 2 == 0 or not np.allclose(points, -points[::-1]):
            raise ValueError("folding needs a symmetric odd-size grid")
        self.points = points
        self.size = r
        self.k = k
        self.mid = r // 2
        half_pts = points[self.mid :]  # 0, ..., 1
        table = cheb_t_table(k, half_pts)
        self.even_j = np.arange(2, k + 1, 2)
        self.odd_j = np.arange(1, k + 1, 2)
        self.rows_even = table[self.even_j].astype(np.float32)  # on x >= 0
        self.rows_odd = table[self.odd_j][:, 1:].astype(np.float32)  # on x > 0

    def apply(self, z):
        zf = z.astype(np.float64, copy=False)
        plus = zf[self.mid :]
        minus = zf[self.mid :: -1]
        even_in = (plus + minus).astype(np.float32)
        even_in[0] = np.float32(zf[self.mid])
        odd_in = (plus[1:] - minus[1:]).astype(np.float32)
        out = np.empty(self.k)
        out[self.even_j - 1] = self.rows_even @ even_in
        out[self.odd_j - 1] = self.rows_odd @ odd_in
        return out

    def apply_adjoint(self, v):
        ve = v[self.even_j - 1].astype(np.float32)
        vo = v[self.odd_j - 1].astype(np.float32)
        even_half = (self.rows_even.T @ ve).astype(np.float64)
        odd_half = (self.rows_odd.T @ vo).astype(np.float64)
        out = np.empty(self.size)
        out[self.mid] = even_half[0]
        out[self.mid + 1 :] = even_half[1:] + odd_half
        out[self.mid - 1 :: -1] = even_half[1:] - odd_half
        return out


def synthesize_from_noisy_moments(noisy, grid, solver_cfg=None):
    """Post-processing half of the pipeline: fit the grid distribution to the
    released noisy moments. Pure in (noisy moments, public parameters)."""
    k = noisy.k
    plain = MomentVector(noisy.values, NORMALIZED).to_plain()
    if solver_cfg is None:
        # the fit stops changing (in transport distance) after a few hundred
        # steps; the cap scales down for the very large grids
        cap = int(max(320, min(900, 2.4e6 / grid.size)))
        solver_cfg = RecoveryConfig(
            k=k, grid=grid, tolerance=3e-7, max_iters=cap, init=INIT_DAMPED
        )
    basis, bound = _cached_qp_pieces(grid, k)
    solution = solve_weighted_qp(plain, solver_cfg, basis=basis, step_bound=bound)
    weights = solution.weights / solution.weights.sum()
    dist = DiscreteDistribution(grid.points, weights).pruned()
    return dist, solution


def dp_synthesize(data, budget, seed, sigma2_override=None, solver_cfg=None):
    """The 1-D private synthesis pipeline.

    Grid spacing 1/ceil(eps n), k = ceil(2 eps n) noisy normalized moments
    with variances j sigma^2, then weighted moment regression over the same
    grid. `sigma2_override` exists for tests that need the noiseless path.
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
    sigma2 = budget.sigma2(n, k) if sigma2_override is None else float(sigma2_override)

    idx = grid_round_indices(values, grid)
    counts = np.bincount(idx, minlength=grid.size)
    rounded_weights = counts / n
    basis, bound = _cached_qp_pieces(grid, k)
    exact_plain = basis.apply(rounded_weights)
    exact_norm = exact_plain * math.sqrt(2.0 / math.pi)
    noise, variances = gaussian_noise_vector(k, sigma2, seed)
    noisy = NoisyMoments(values=exact_norm + noise, variances=variances, seed=seed)

    dist, solution = synthesize_from_noisy_moments(noisy, grid, solver_cfg)
    # a noisy objective keeps creeping below its statistical floor forever,
    # so the iteration-stall flag alone understates convergence: the fit is
    # done once the residual sits at the expected noise energy
    noise_floor = (math.pi / 2.0) * sigma2 * float(np.sum(1.0 / np.arange(1, k + 1)))
    converged = solution.converged or solution.objective <= noise_floor
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
        converged=converged,
        rounding_bound=1.0 / (2.0 * half_steps),
    )
    return DpSynthesisResult(distribution=dist, noisy_moments=noisy, report=report)


def _tensor_moment_rows(grid, indices, m):
    """(num indices, num grid points) table of normalized tensor values."""
    d = grid.d
    axis_tables = [cheb_t_table(m, grid.points[:, axis]) for axis in range(d)]
    rows = np.empty((len(indices), grid.points.shape[0]))
    for row, K in enumerate(indices):
        prod = axis_tables[0][K[0]]
        for axis in range(1, d):
            prod = prod * axis_tables[axis][K[axis]]
        rows[row] = prod * multi_moment_normalizer(K, d)
    return rows


def dp_synthesize_multi(data, budget, seed, sigma2_override=None):
    """The d in {2,3} tensor pipeline.

    Per-coordinate spacing 1/ceil((eps n)^{1/d}), degrees up to
    m = ceil(2 (eps n)^{1/d}), per-index noise variance ||K||_2 sigma^2 with
    sigma^2 built from the exact norm sum, and a 1/||K||_2^2-weighted fit of
    the normalized tensor moments over the tensor grid through
    `fit_simplex`: exact below EXACT_MAX_ENTRIES table entries, else
    accelerated projected gradient (relative stall tolerance 1e-9, at most
    20000 iterations).
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
    sigma2 = (
        budget.sigma2_multi(n, m, d) if sigma2_override is None else float(sigma2_override)
    )

    rounded = round_to_grid(points, grid)
    rounded_dist = DiscreteDistribution.uniform_over(rounded)
    indices = multi_indices(m, d)
    rows = _tensor_moment_rows(grid, indices, m)
    # accumulate the rounded data's weights on the tensor grid
    axis = grid.axis_points
    flat_idx = np.zeros(n, dtype=np.int64)
    for coord in range(d):
        pos = np.searchsorted(axis, rounded[:, coord])
        flat_idx = flat_idx * axis.size + pos
    counts = np.bincount(flat_idx, minlength=grid.points.shape[0])
    grid_weights = counts / n
    exact = rows @ grid_weights
    noise, variances = gaussian_noise_vector(indices, sigma2, seed)
    noisy = NoisyMoments(
        values=exact + noise, variances=variances, seed=seed, indices=tuple(indices)
    )

    norms_sq = np.array([sum(v * v for v in K) for K in indices], dtype=float)
    weights = 1.0 / norms_sq
    basis = DenseBasis(rows)
    uniform = partial(np.full, basis.size, 1.0 / basis.size)
    solution = fit_simplex(basis, weights, noisy.values, uniform, 1e-9, 20000)
    z, f = solution.weights, solution.objective
    dist = DiscreteDistribution(grid.points, z / z.sum()).pruned()
    # same noise-floor convergence notion as the 1-D pipeline: the expected
    # residual energy of the release is sigma^2 * sum 1/||K||
    converged = solution.converged or f <= sigma2 * s
    report = DpSynthesisReport(
        n=n,
        k=len(indices),
        r=grid.points.shape[0],
        sigma2=sigma2,
        gamma=math.sqrt(max(f, 0.0)),
        expected_bound=float("nan"),
        hp_bound_beta05=float("nan"),
        clamped=clamped,
        objective=f,
        iterations=solution.iterations,
        converged=converged,
        d=d,
        norm_sum=s,
        rounding_bound=d / (2.0 * half_steps),
    )
    return DpSynthesisResult(distribution=dist, noisy_moments=noisy, report=report)
