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
An operator has one product, on an (n, l) block of columns, and one count
of the columns it was applied to; the report's product count is that
count's rise over the run.
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
from .recovery import distribution_from_weights, lp_grid_size, solve_moment_lp


class LinearOperator:
    """A symmetric matrix seen only through products with blocks of columns.

    `matvec` takes an (n, l) float array, l >= 1, and returns A times it as
    a new (n, l) array, which the estimator scales in place; it is never
    given a 1-D vector. Carries the dimension and `matvec_count`, a monotone
    counter of the columns multiplied. Linearity and symmetry are the
    caller's promise; tests spot-check both on random probes.
    """

    def __init__(self, n, matvec):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = int(n)
        self._matvec = matvec
        self.matvec_count = 0
        self._dense = None  # the matrix itself, when built from one

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
        return cls(d.size, lambda v: d[:, None] * v)


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
    """Returns S = 2 x (largest Rayleigh-quotient estimate seen) as a float;
    norm <= S <= 2 norm with probability at least 1 - alpha once iters >=
    power_iterations(n, alpha). A zero operator yields the 1e-30 floor.

    The per-iterate estimate is ||A v|| for unit v, the square root of the
    Rayleigh quotient of A^2, which stays informative when the extreme
    eigenvalues have opposite signs and similar size. The iterate is one
    (n, 1) column; a zero product ends the run early, so fewer than `iters`
    products may be taken (`op.matvec_count` counts them). A product whose
    norm is not finite (a NaN or infinite entry) is a ValueError.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal((op.n, 1))
    v = v / np.linalg.norm(v)
    best = 0.0
    for _ in range(iters):
        w = op.apply_block(v)
        wnorm = float(np.linalg.norm(w))
        if not math.isfinite(wnorm):
            raise ValueError("operator products must be finite")
        best = max(best, wnorm)
        if wnorm == 0.0:
            break
        v = w / wnorm
    return 2.0 * best if best > 0.0 else 1e-30


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
    products (`schedule_matvec_cost`), counted on `op.matvec_count`.
    Returns the `MomentVector`.
    """
    _check_norm_bound(norm_bound)
    n, k = op.n, len(schedule)
    counts = [int(c) for c in schedule]
    if not counts or counts[-1] < 1 or any(later > earlier for earlier, later in zip(counts, counts[1:])):
        raise ValueError("probe schedule must be nonempty, positive and nonincreasing")
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
    return MomentVector(estimates)


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

    The degree is k = ceil(degree_constant / epsilon), the per-moment
    accuracy gamma = 1 / (k sqrt(1 + ln k)) and the per-degree failure share
    alpha = delta / k; `probe_constant` is C in `probe_schedule`.
    Chooses, from public parameters alone, between the probe pipeline and
    reading the matrix directly (whichever needs fewer products); the probe
    pipeline scales by the power-method bound, estimates moments, and feeds
    the box-constrained moment fit with tolerances sqrt(j) gamma +
    j sqrt(2 pi) / g: any grid distribution inside those boxes keeps the
    W1 bound, and the exact fit certifies that its answer lies inside them.
    An infeasible fit doubles the tolerance once. The power method draws
    from a child of `SeedSequence(seed)`, independent of the probes'
    `PCG64(seed)` stream. A given `norm_bound` must be positive and finite.
    The report's `matvecs` is the rise of `op.matvec_count` over the call.
    """
    if norm_bound is not None:
        _check_norm_bound(norm_bound)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 <= probe_constant < math.inf:
        raise ValueError("probe constant must be nonnegative and finite")
    if not 0.0 < degree_constant < math.inf:
        raise ValueError("degree constant must be positive and finite")
    n = op.n
    k = math.ceil(degree_constant / epsilon)
    gamma = 1.0 / (k * math.sqrt(1.0 + math.log(k)))
    alpha = delta / k
    budget_value = matvec_budget(n, epsilon, delta)
    floor = math.ceil(1.0 / epsilon)
    start = op.matvec_count
    # epsilon <= 1/n goes dense before the k-entry schedule is built: it may not fit in memory
    dense = epsilon <= 1.0 / n
    if not dense:
        schedule = probe_schedule(n, k, gamma, alpha, probe_constant)
        power_iters = 0 if norm_bound is not None else power_iterations(n, alpha)
        dense = schedule_matvec_cost(schedule) + power_iters >= n

    if dense:
        eigs = np.sort(_dense_read_density(op))
        report = SdeReport(
            n=n,
            norm_bound=float(np.max(np.abs(eigs))),
            k=k,
            gamma=gamma,
            matvecs=op.matvec_count - start,
            budget_formula_value=budget_value,
            floor_matvecs=floor,
            path="dense",
        )
        distribution = DiscreteDistribution.on_real_line(eigs, np.full(n, 1.0 / n))
        return SdeResult(distribution=distribution, report=report)

    if norm_bound is None:
        power_seed = np.random.SeedSequence(seed).spawn(1)[0]
        norm_bound = power_method_bound(op, power_iters, power_seed)
    moments = hutchinson_cheb_moments(op, schedule, seed, norm_bound)
    grid = Grid.chebyshev(lp_grid_size(k))
    j = np.arange(1, k + 1)
    tols = np.sqrt(j) * gamma + j * math.sqrt(2.0 * math.pi) / grid.size
    solution = solve_moment_lp(moments, tols, grid)
    doubled = False
    if not solution.feasible:
        doubled = True
        solution = solve_moment_lp(moments, 2.0 * tols, grid)
    dist = distribution_from_weights(grid, solution.weights)
    report = SdeReport(
        n=n,
        norm_bound=norm_bound,
        k=k,
        gamma=gamma,
        matvecs=op.matvec_count - start,
        budget_formula_value=budget_value,
        floor_matvecs=floor,
        path="hutchinson",
        lp_feasible=solution.feasible,
        tolerance_doubled=doubled,
    )
    distribution = DiscreteDistribution.on_real_line(dist.support * norm_bound, dist.weights)
    return SdeResult(distribution=distribution, report=report)
