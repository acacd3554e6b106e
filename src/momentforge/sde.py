"""Spectral density estimation from matrix-vector products.

A symmetric operator is accessed only through products; the pipeline bounds
its norm by the power method, estimates Chebyshev moments of the eigenvalue
distribution by stochastic trace estimation with a per-degree probe
schedule, and recovers a distribution through the box-constrained moment
fit. When the probe schedule would cost more products than reading the
matrix column by column, the pipeline reads the matrix instead and
eigendecomposes it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import seeded_rademacher
from .distributions import (
    DiscreteDistribution,
    MomentVector,
    PLAIN,
)
from .recovery import RecoveryConfig, lp_grid_size, solve_moment_lp


class LinearOperator:
    """A symmetric matrix seen only through matrix-vector products.

    Carries the dimension and a monotone product counter. Linearity and
    symmetry are the caller's promise; tests spot-check both on random probes.
    """

    def __init__(self, n, matvec):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = int(n)
        self._matvec = matvec
        self._count = 0

    @property
    def matvec_count(self):
        return self._count

    def _charge(self, amount):
        self._count += amount

    def apply(self, vector):
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.n,):
            raise ValueError("vector shape mismatch")
        self._charge(1)
        return np.asarray(self._matvec(v), dtype=float)

    def apply_block(self, block):
        """Apply to each column; counts one product per column."""
        b = np.asarray(block, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.n:
            raise ValueError("block shape mismatch")
        self._charge(b.shape[1])
        out = self._matvec(b)
        return np.asarray(out, dtype=float)

    def scaled(self, factor):
        """The operator factor * A, sharing this counter."""
        parent = self

        class _Scaled(LinearOperator):
            def __init__(self):
                super().__init__(parent.n, None)

            def apply(self, vector):
                return factor * parent.apply(vector)

            def apply_block(self, block):
                return factor * parent.apply_block(block)

            @property
            def matvec_count(self):
                return parent.matvec_count

            def _charge(self, amount):  # charged by the parent
                pass

        return _Scaled()

    @classmethod
    def from_dense(cls, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense operator needs a square matrix")
        return cls(a.shape[0], lambda v: a @ v)

    @classmethod
    def from_diagonal(cls, diag):
        d = np.asarray(diag, dtype=float)

        def matvec(v):
            if v.ndim == 2:
                return d[:, None] * v
            return d * v

        return cls(d.size, matvec)


@dataclass(frozen=True)
class SdeConfig:
    """Run parameters: target accuracy, failure budget and the derived
    degree, per-moment accuracy, per-degree failure share and grid size."""

    epsilon: float
    delta: float
    seed: int
    probe_constant: float = 16.0  # C in the probe schedule
    degree_constant: float = 80.0  # k = ceil(degree_constant / epsilon)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.probe_constant < 0:
            raise ValueError("probe constant must be nonnegative")

    @property
    def k(self):
        return max(1, math.ceil(self.degree_constant / self.epsilon))

    @property
    def gamma(self):
        k = self.k
        return 1.0 / (k * math.sqrt(1.0 + math.log(k)))

    @property
    def alpha(self):
        return self.delta / self.k

    @property
    def grid_size(self):
        return lp_grid_size(self.k)


def probe_schedule(n, k, gamma, alpha, probe_constant):
    """Probe counts l_j = ceil(1 + C log^2(1/alpha) / (n j gamma^2)), j=1..k."""
    j = np.arange(1, k + 1, dtype=float)
    raw = 1.0 + probe_constant * math.log(1.0 / alpha) ** 2 / (n * j * gamma * gamma)
    return np.ceil(raw).astype(np.int64)


def schedule_matvec_cost(schedule):
    """Total products when each probe's recurrence stream is shared downward:
    probe i runs to the largest degree still using it, so the cost is the
    plain sum of the schedule."""
    return int(np.sum(schedule))


@dataclass
class PowerMethodBound:
    value: float
    is_zero: bool
    iterations: int


def power_method_bound(op, iters, seed):
    """S = 2 x (largest Rayleigh-quotient estimate seen); norm <= S <= 2 norm
    whp once iters ~ 10 log n. A zero operator yields the 1e-30 floor, flagged.

    The per-iterate estimate is ||A v|| for unit v, the square root of the
    Rayleigh quotient of A^2, which stays informative when the extreme
    eigenvalues have opposite signs and similar size.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(op.n)
    v = v / np.linalg.norm(v)
    best = 0.0
    for _ in range(iters):
        w = op.apply(v)
        wnorm = float(np.linalg.norm(w))
        best = max(best, wnorm)
        if wnorm == 0.0:
            break
        v = w / wnorm
    if best == 0.0:
        return PowerMethodBound(value=1e-30, is_zero=True, iterations=iters)
    return PowerMethodBound(value=2.0 * best, is_zero=False, iterations=iters)


def hutchinson_cheb_moments(op, cfg, k=None, schedule=None):
    """Stochastic Chebyshev moment estimates of the spectral density.

    m_j = mean over the first l_j probes of g^T T_j(A) g / n, with Rademacher
    probes sharing one recurrence stream each, so column i is advanced only
    while degree-j estimates still use it. The operator must already have
    norm at most 1. Returns (moments, matvecs used, schedule).
    """
    n = op.n
    if k is None:
        k = cfg.k
    if schedule is None:
        schedule = probe_schedule(n, k, cfg.gamma, cfg.alpha, cfg.probe_constant)
    start_count = op.matvec_count
    probes = seeded_rademacher(cfg.seed, (n, int(schedule[0])))
    estimates = np.empty(k)
    t_prev = probes  # T_0(A) G
    t_cur = op.apply_block(probes[:, : schedule[0]])  # T_1(A) G
    estimates[0] = np.einsum("ij,ij->", probes[:, : schedule[0]], t_cur) / (schedule[0] * n)
    for j in range(2, k + 1):
        active = int(schedule[j - 1])
        t_next = 2.0 * op.apply_block(t_cur[:, :active]) - t_prev[:, :active]
        estimates[j - 1] = np.einsum("ij,ij->", probes[:, :active], t_next) / (active * n)
        t_prev, t_cur = t_cur[:, :active], t_next
    used = op.matvec_count - start_count
    return MomentVector(estimates, PLAIN), used, schedule


@dataclass
class SdeReport:
    n: int
    norm_bound: float
    k: int
    gamma: float
    matvecs: int
    budget_formula_value: float
    floor_matvecs: int
    path: str
    lp_feasible: bool = True
    tolerance_doubled: bool = False


@dataclass
class SdeResult:
    distribution: DiscreteDistribution
    report: SdeReport


def matvec_budget(n, epsilon, delta):
    """min{n, (1/eps)(1 + log^2(1/eps) log^2(1/(eps delta)) / (n eps))}."""
    stream = (1.0 / epsilon) * (
        1.0
        + math.log(1.0 / epsilon) ** 2 * math.log(1.0 / (epsilon * delta)) ** 2 / (n * epsilon)
    )
    return min(float(n), stream)


def _dense_read_density(op):
    """Read the matrix with standard-basis products and eigendecompose."""
    columns = op.apply_block(np.eye(op.n))
    sym = 0.5 * (columns + columns.T)
    eigs = np.linalg.eigvalsh(sym)
    return eigs


def estimate_spectral_density(op, epsilon, delta, seed, norm_bound=None, probe_constant=16.0, degree_constant=80.0):
    """End-to-end spectral density estimation with W1 error about eps * S.

    Chooses, from public parameters alone, between the probe pipeline and
    reading the matrix directly (whichever needs fewer products); the probe
    pipeline scales by the power-method bound, estimates moments, and feeds
    the box-constrained moment fit with tolerances sqrt(j) gamma +
    j sqrt(2 pi) / g. An infeasible fit doubles the tolerance once.
    """
    cfg = SdeConfig(
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        probe_constant=probe_constant,
        degree_constant=degree_constant,
    )
    n = op.n
    k = cfg.k
    schedule = probe_schedule(n, k, cfg.gamma, cfg.alpha, cfg.probe_constant)
    power_iters = 0 if norm_bound is not None else max(1, math.ceil(10 * math.log(max(n, 2))))
    stream_cost = schedule_matvec_cost(schedule) + power_iters
    budget_value = matvec_budget(n, epsilon, delta)
    floor = math.ceil(1.0 / epsilon)

    if epsilon <= 1.0 / n or stream_cost >= n:
        start = op.matvec_count
        eigs = np.sort(_dense_read_density(op))
        report = SdeReport(
            n=n,
            norm_bound=float(np.max(np.abs(eigs))),
            k=k,
            gamma=cfg.gamma,
            matvecs=op.matvec_count - start,
            budget_formula_value=budget_value,
            floor_matvecs=floor,
            path="dense",
        )
        return SdeResult(distribution=_rescaled_support(eigs, 1.0), report=report)

    if norm_bound is None:
        power = power_method_bound(op, power_iters, seed)
        norm_bound = power.value
    start = op.matvec_count
    scaled = op.scaled(1.0 / norm_bound)
    moments, used, schedule = hutchinson_cheb_moments(scaled, cfg, k=k, schedule=schedule)
    g = cfg.grid_size
    j = np.arange(1, k + 1)
    tols = np.sqrt(j) * cfg.gamma + j * math.sqrt(2.0 * math.pi) / g
    lp_cfg = RecoveryConfig(k=k, g=g, tolerance=1e-12, max_iters=200 * g)
    solution = solve_moment_lp(moments, tols, lp_cfg)
    doubled = False
    if not solution.feasible:
        doubled = True
        solution = solve_moment_lp(moments, 2.0 * tols, lp_cfg)
    dist = DiscreteDistribution(lp_cfg.grid.points, solution.weights / solution.weights.sum())
    dist = dist.pruned()
    result = _rescaled_support(dist.support, norm_bound, dist.weights)
    report = SdeReport(
        n=n,
        norm_bound=norm_bound,
        k=k,
        gamma=cfg.gamma,
        matvecs=op.matvec_count - start + power_iters,
        budget_formula_value=budget_value,
        floor_matvecs=floor,
        path="hutchinson",
        lp_feasible=solution.feasible,
        tolerance_doubled=doubled,
    )
    return SdeResult(distribution=result, report=report)


def _rescaled_support(support, scale, weights=None):
    """Distribution with support multiplied by `scale` (eigenvalue axis)."""
    sup = np.asarray(support, dtype=float)
    if scale != 1.0:
        sup = sup * scale
    if weights is None:
        weights = np.full(sup.shape[0], 1.0 / sup.shape[0])
    return DiscreteDistribution.on_real_line(sup, weights)
