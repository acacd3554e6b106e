"""Spectral density estimation from matrix-vector products.

A symmetric operator is accessed only through products; the pipeline bounds
its norm by S from the power method, estimates Chebyshev moments of the
eigenvalue distribution of A / S by stochastic trace estimation with a
per-degree probe schedule (the recurrence multiplies each product of A by
1 / S or 2 / S in place), and recovers a distribution through the
box-constrained moment fit, the library's one exact simplex fit with
tolerance-scaled residuals.
The moment estimates use the product identities T_{2d} = 2 T_d^2 - 1 and
T_{2d+1} = 2 T_{d+1} T_d - T_1 (the kernel polynomial method's halving),
so degree k costs the probes' recurrence only up to degree ceil(k / 2):
l_1 + l_3 + l_5 + ... products for the schedule l_1 >= l_2 >= ... >= l_k.
The power method and the probes draw from independent seeded streams.
When the probe schedule would cost more products than reading the
matrix column by column, the pipeline reads the matrix instead, charging
n products, and eigendecomposes it directly: one LAPACK `dsyevd` call on
the matrix's transpose view, which reads one triangle. Symmetry is the
caller's promise; the `momentforge sde` command checks it within 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import seeded_rademacher
from .distributions import DiscreteDistribution, Grid, MomentVector
from .recovery import lp_grid_size, solve_moment_lp


class LinearOperator:
    """A symmetric matrix seen only through matrix-vector products.

    Carries the dimension and `matvec_count`, a monotone product counter.
    Linearity and symmetry are the caller's promise; tests spot-check both
    on random probes. `matvec` returns a new array, which the estimator
    scales in place.
    """

    def __init__(self, n, matvec):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = int(n)
        self._matvec = matvec
        self.matvec_count = 0
        self._dense = None  # the matrix itself, when built from one

    def apply(self, vector):
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.n,):
            raise ValueError("vector shape mismatch")
        self.matvec_count += 1
        return np.asarray(self._matvec(v), dtype=float)

    def apply_block(self, block):
        """Apply to each column; counts one product per column."""
        b = np.asarray(block, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.n:
            raise ValueError("block shape mismatch")
        self.matvec_count += b.shape[1]
        out = self._matvec(b)
        return np.asarray(out, dtype=float)

    @classmethod
    def from_dense(cls, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense operator needs a square matrix")
        op = cls(a.shape[0], lambda v: a @ v)
        op._dense = a
        return op

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
    """Products `hutchinson_cheb_moments` spends on a schedule: degree d of
    the recurrence runs on the l_{2d-1} probes whose moments still need it,
    so the cost is l_1 + l_3 + l_5 + ..., about half the schedule's sum."""
    return int(np.sum(schedule[0::2]))


@dataclass
class PowerMethodBound:
    value: float
    is_zero: bool
    iterations: int


def power_iterations(n, alpha):
    """Products after which `power_method_bound` gives norm <= S <= 2 norm
    with probability at least 1 - alpha: 2 + ceil(log_3 M), where
    M = 2 (n + 2 sqrt(n t) + 2 t) / (pi p^2), p = alpha / 2, t = ln(1 / p).

    S <= 2 norm always holds, since each estimate is ||A v|| <= ||A||. For
    the other side, let c be the Gaussian start's coefficients in A's
    eigenbasis, so c ~ N(0, I_n), and scale A to norm 1 with c_1 on a top
    eigenvalue. Before product i the iterate is A^(i-1) c up to scale.
    Splitting the eigenvalues at lambda^2 >= theta, with B the top part's
    mass sum lambda^(2i-2) c^2 >= c_1^2,

        ||A v||^2 >= theta B / (B + theta^(i-1) ||c||^2)
                  >= theta / (1 + theta^(i-1) ||c||^2 / c_1^2),

    so ||A v||^2 >= theta / (1 + rho) once theta^(i-1) ||c||^2 / c_1^2
    <= rho. With theta = rho = 1/3 that is ||A v|| >= norm / 2, reached by
    i = 2 + ceil(log_3(||c||^2 / c_1^2)). Two events bound the ratio:
    P(c_1^2 < pi p^2 / 2) <= p, since N(0, 1)'s density is at most
    1 / sqrt(2 pi); and P(||c||^2 > n + 2 sqrt(n t) + 2 t) <= e^(-t) = p
    (Laurent and Massart 2000, Lemma 1). Outside both, the ratio is at
    most M, and their union has probability at most 2p = alpha.
    """
    p = alpha / 2.0
    t = math.log(1.0 / p)
    m = 2.0 * (n + 2.0 * math.sqrt(n * t) + 2.0 * t) / (math.pi * p * p)
    return 2 + math.ceil(math.log(m, 3))


def power_method_bound(op, iters, seed):
    """S = 2 x (largest Rayleigh-quotient estimate seen); norm <= S <= 2 norm
    with probability at least 1 - alpha once iters >= power_iterations(n,
    alpha). A zero operator yields the 1e-30 floor, flagged.

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


def _check_norm_bound(norm_bound):
    if not (math.isfinite(norm_bound) and norm_bound > 0.0):
        raise ValueError("norm bound must be positive and finite")


def hutchinson_cheb_moments(op, schedule, seed, norm_bound=1.0):
    """Stochastic Chebyshev moment estimates of the spectral density of
    A / S, S = `norm_bound`, which must be at least A's norm.

    m_j = mean over the first l_j probes g of g^T T_j(A / S) g / n, with
    Rademacher probes drawn from `PCG64(seed)` and a nonincreasing schedule
    of positive counts l_1 >= ... >= l_k, k = len(schedule) >= 1. The
    recurrence takes T_1 G = (1 / S)(A G) and
    T_{d+1} G = (2 / S)(A T_d G) - T_{d-1} G. The
    product identities T_{2d} = 2 T_d^2 - 1 and T_{2d+1} = 2 T_{d+1} T_d - T_1
    give the same estimates from the recurrence run only to degree
    ceil(k / 2):

        m_{2d}   = (2 sum ||T_d g||^2 - sum g.g) / (l_{2d} n)
        m_{2d+1} = (2 sum (T_{d+1} g).(T_d g) - sum g.T_1 g) / (l_{2d+1} n)

    each sum over the first l_j probes. Degree d advances the first
    l_{2d-1} columns, so the run costs sum_d l_{2d-1} = schedule[0::2].sum()
    products (`schedule_matvec_cost`). Returns (moments, matvecs used).
    """
    _check_norm_bound(norm_bound)
    n, k = op.n, len(schedule)
    counts = [int(c) for c in schedule]
    if not counts or counts[-1] < 1 or any(later > earlier for earlier, later in zip(counts, counts[1:])):
        raise ValueError("probe schedule must be nonempty, positive and nonincreasing")
    start_count = op.matvec_count
    probes = seeded_rademacher(seed, (n, counts[0]))
    t_prev = probes  # T_0 G
    t_cur = op.apply_block(probes)
    t_cur *= 1.0 / norm_bound  # T_1 G
    # prefix sums over columns of g.g and g.T_1 g, the identities' corrections
    gg = np.cumsum(np.einsum("ij,ij->j", probes, probes))
    gt1 = np.cumsum(np.einsum("ij,ij->j", probes, t_cur))
    estimates = np.empty(k)
    estimates[0] = gt1[counts[0] - 1] / (counts[0] * n)
    for d in range(1, (k + 1) // 2 + 1):
        if d > 1:  # T_d on the l_{2d-1} columns still in use
            active = counts[2 * d - 2]
            t_next = op.apply_block(t_cur[:, :active])
            t_next *= 2.0 / norm_bound
            t_next -= t_prev[:, :active]
            t_prev, t_cur = t_cur[:, :active], t_next
            cross = np.einsum("ij,ij->", t_cur, t_prev)
            estimates[2 * d - 2] = (2.0 * cross - gt1[active - 1]) / (active * n)
        if 2 * d <= k:
            even = counts[2 * d - 1]
            head = t_cur[:, :even]
            square = np.einsum("ij,ij->", head, head)
            estimates[2 * d - 1] = (2.0 * square - gg[even - 1]) / (even * n)
    return MomentVector(estimates), op.matvec_count - start_count


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
    """Read the matrix and eigendecompose, charging n products. An operator
    built from a dense matrix hands it over; any other is read by products
    with the standard basis.

    One LAPACK `dsyevd` call on the transpose view, which is already in
    Fortran order, so the read allocates no n x n array of its own. It
    reads one triangle (the lower one of the view, the upper one of the
    matrix) and never the other: symmetry is the caller's promise. The
    caller's matrix is not modified. Non-finite entries raise `ValueError`.
    """
    import scipy.linalg

    columns = op._dense
    if columns is None:
        columns = op.apply_block(np.eye(op.n))
    else:
        op.matvec_count += op.n
    return scipy.linalg.eigh(columns.T, lower=True, eigvals_only=True, driver="evd")


def estimate_spectral_density(op, epsilon, delta, seed, norm_bound=None, probe_constant=16.0, degree_constant=80.0):
    """End-to-end spectral density estimation with W1 error about eps * S.

    Chooses, from public parameters alone, between the probe pipeline and
    reading the matrix directly (whichever needs fewer products); the probe
    pipeline scales by the power-method bound, estimates moments, and feeds
    the box-constrained moment fit with tolerances sqrt(j) gamma +
    j sqrt(2 pi) / g: any grid distribution inside those boxes keeps the
    W1 bound, and the exact fit certifies that its answer lies inside them.
    An infeasible fit doubles the tolerance once. The power method draws
    from a child of `SeedSequence(seed)`, independent of the probes'
    `PCG64(seed)` stream. A given `norm_bound` must be positive and finite.
    """
    if norm_bound is not None:
        _check_norm_bound(norm_bound)
    cfg = SdeConfig(
        epsilon=epsilon,
        delta=delta,
        probe_constant=probe_constant,
        degree_constant=degree_constant,
    )
    n = op.n
    k = cfg.k
    schedule = probe_schedule(n, k, cfg.gamma, cfg.alpha, cfg.probe_constant)
    power_iters = 0 if norm_bound is not None else power_iterations(n, cfg.alpha)
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
        power_seed = np.random.SeedSequence(seed).spawn(1)[0]
        power = power_method_bound(op, power_iters, power_seed)
        norm_bound = power.value
    moments, used = hutchinson_cheb_moments(op, schedule, seed, norm_bound)
    grid = Grid.chebyshev(cfg.grid_size)
    j = np.arange(1, k + 1)
    tols = np.sqrt(j) * cfg.gamma + j * math.sqrt(2.0 * math.pi) / grid.size
    solution = solve_moment_lp(moments, tols, grid)
    doubled = False
    if not solution.feasible:
        doubled = True
        solution = solve_moment_lp(moments, 2.0 * tols, grid)
    dist = DiscreteDistribution(grid.points, solution.weights / solution.weights.sum())
    dist = dist.pruned()
    result = _rescaled_support(dist.support, norm_bound, dist.weights)
    report = SdeReport(
        n=n,
        norm_bound=norm_bound,
        k=k,
        gamma=cfg.gamma,
        matvecs=used + power_iters,
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
