"""Distribution recovery from (noisy) Chebyshev moments.

A weighted least-squares fit over the probability simplex on a grid, the
feasibility variant with per-moment tolerance boxes, and the simplex
projection they share. `fit_simplex` is the one place that picks a method:
below EXACT_MAX_ENTRIES moment-table entries (k times the grid size) it
solves the fit exactly with a Lawson-Hanson active set; at or above it, it
runs accelerated projected gradient with gradient restarts and best-iterate
tracking. On Chebyshev-node grids the moment map is applied through a DCT,
so large grids never materialize a dense basis.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.fft

from .chebyshev import cheb_t_table, chebyshev_nodes, jackson_damping
from .distributions import (
    CHEBYSHEV_NODES,
    PLAIN,
    DiscreteDistribution,
    Grid,
    cheb_moments,
    moment_error_gamma,
)

PRUNE_THRESHOLD = 1e-15

# k times the grid size below which fits are solved exactly; at or above it
# the first-order method runs and dense moment tables are stored in float32
EXACT_MAX_ENTRIES = 4_000_000

INIT_UNIFORM = "uniform"
INIT_DAMPED = "damped_series"


def default_grid_size(k):
    """ceil(k^1.5), the grid size paired with a degree-k fit."""
    return int(math.ceil(k**1.5))


def lp_grid_size(k):
    """ceil(k^1.5 sqrt(1 + log k)), the finer grid the feasibility fit uses."""
    return int(math.ceil(k**1.5 * math.sqrt(1.0 + math.log(k))))


@dataclass(frozen=True)
class RecoveryConfig:
    """Solver parameters; grid and iteration cap default from k."""

    k: int
    g: int = None
    grid: Grid = None
    tolerance: float = 1e-10
    max_iters: int = None
    init: str = INIT_UNIFORM
    keep_trace: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        g = self.g
        if self.grid is not None:
            g = self.grid.size
        elif g is None:
            g = default_grid_size(self.k)
        if g < self.k:
            raise ValueError("grid size must be at least k")
        object.__setattr__(self, "g", int(g))
        if self.grid is None:
            object.__setattr__(self, "grid", Grid.chebyshev(self.g))
        if self.max_iters is None:
            object.__setattr__(self, "max_iters", 200 * self.g)


@dataclass
class QPSolution:
    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: np.ndarray = None


@dataclass
class LPSolution:
    weights: np.ndarray
    feasible: bool
    max_violation: float
    iterations: int
    trace: np.ndarray = None


@dataclass
class RecoveryResult:
    distribution: DiscreteDistribution
    k: int
    g: int
    gamma: float
    w1_bound: float
    w1_bound_optimistic: float
    objective: float
    iterations: int
    converged: bool


def simplex_project(v):
    """Euclidean projection onto {z >= 0, sum z = 1} (sort and threshold)."""
    vec = np.asarray(v, dtype=float)
    if vec.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(vec)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, vec.size + 1)
    rho = counts[u - shifted / counts > 0][-1]
    theta = shifted[rho - 1] / rho
    return np.maximum(vec - theta, 0.0)


class DenseBasis:
    """Moment map z -> (sum_i z_i T_j(x_i))_{j=1..k} as an explicit matrix.

    Tables of EXACT_MAX_ENTRIES entries or more only ever meet the
    first-order solver, so they are stored in single precision: the
    matrix-vector bandwidth halves, and the ~1e-7 relative error sits far
    below the noise floors of the problems big enough to trigger it.
    """

    def __init__(self, rows):
        if rows.size >= EXACT_MAX_ENTRIES:
            rows = rows.astype(np.float32)
        self.rows = rows
        self.k, self.size = rows.shape

    def apply(self, z):
        out = self.rows @ z.astype(self.rows.dtype, copy=False)
        return out.astype(np.float64, copy=False)

    def apply_adjoint(self, v):
        out = self.rows.T @ v.astype(self.rows.dtype, copy=False)
        return out.astype(np.float64, copy=False)

    def dense(self):
        return self.rows


class _DctBasis:
    """The same map on the full degree-g Chebyshev node set, via DCT-II.

    With nodes x_i = cos((2i-1)pi/(2g)) in descending order,
    (B z)_j = dct(z, type=2)[j] / 2 and the adjoint is the matching DCT-III.
    """

    def __init__(self, g, k):
        if k >= g:
            raise ValueError("DCT basis requires k < g")
        self.size = g
        self.k = k
        self.nodes = chebyshev_nodes(g)

    def apply(self, z):
        return scipy.fft.dct(z, type=2)[1 : self.k + 1] / 2.0

    def apply_adjoint(self, v):
        full = np.zeros(self.size)
        full[1 : self.k + 1] = v
        return scipy.fft.dct(full, type=3) / 2.0

    def dense(self):
        return cheb_t_table(self.k, self.nodes)[1:]


def _make_basis(grid, k):
    if grid.kind == CHEBYSHEV_NODES and k < grid.size and grid.size >= 64:
        return _DctBasis(grid.size, k)
    return DenseBasis(cheb_t_table(k, grid.points)[1:])


def power_step_bound(basis, weights, iters=50, headroom=1.1):
    """Upper bound on the largest curvature of the weighted residual objective.

    50 rounds of power iteration on the Hessian map v -> 2 B^T (w * (B v)),
    inflated by 10%; the monotone safeguard in the solver absorbs the rare
    underestimate.
    """
    rng = np.random.Generator(np.random.PCG64(0x5EED0 + 7 * basis.size + basis.k))
    v = rng.standard_normal(basis.size)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        hv = 2.0 * basis.apply_adjoint(weights * basis.apply(v))
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            break
        lam = float(v @ hv)
        v = hv / norm
    return headroom * max(lam, 1e-30)


def _accelerated_simplex_minimize(
    basis,
    objective,
    z0,
    step,
    tolerance,
    max_iters,
    keep_trace=False,
    stop_on_zero=False,
):
    """Accelerated projected gradient over the simplex, gradient restarts,
    best-iterate tracking (so the reported sequence is monotone).

    `objective(image)` returns (value, d value / d image). Momentum images
    are tracked as linear combinations of stored moment vectors, so each
    iteration costs one forward and one adjoint application.
    """
    z = np.asarray(z0, dtype=float)
    z_img = basis.apply(z)
    f_z, _ = objective(z_img)
    best, best_img, f_best = z, z_img, f_z
    y, y_img = z, z_img
    t = 1.0
    history = deque([f_best], maxlen=26)
    trace = [f_best] if keep_trace else None
    iterations = 0
    converged = f_best == 0.0 and stop_on_zero

    for iterations in range(1, max_iters + 1):
        if converged:
            iterations -= 1
            break
        _, dval = objective(y_img)
        grad = basis.apply_adjoint(dval)
        z_new = simplex_project(y - step * grad)
        z_new_img = basis.apply(z_new)
        f_new, _ = objective(z_new_img)
        if f_new < f_best:
            best, best_img, f_best = z_new, z_new_img, f_new
        if stop_on_zero and f_new == 0.0:
            converged = True
            if keep_trace:
                trace.append(f_best)
            break
        momentum = z_new - z
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if grad @ momentum > 0.0:
            # momentum points uphill: restart the acceleration
            t_next = 1.0
            y, y_img = z_new, z_new_img
        else:
            y = z_new + ((t - 1.0) / t_next) * momentum
            y_img = z_new_img + ((t - 1.0) / t_next) * (z_new_img - z_img)
        z, z_img, t = z_new, z_new_img, t_next
        history.append(f_best)
        if keep_trace:
            trace.append(f_best)
        if len(history) == history.maxlen:
            gain = history[0] - f_best
            if gain <= tolerance * max(f_best, 1e-300):
                converged = True
                break

    trace_arr = np.asarray(trace) if keep_trace else None
    return best, best_img, f_best, iterations, converged, trace_arr


def _add_column(q, w, col):
    """Extend E_S W = Q (Q orthonormal) by one column of E in O(rows * s),
    or None when the column lies in the span of Q to rounding."""
    r = q.T @ col
    rest = col - q @ r
    again = q.T @ rest  # reorthogonalize once
    rest -= q @ again
    rho = np.linalg.norm(rest)
    if rho <= 1e-12 * np.linalg.norm(col):
        return None
    grown = np.pad(w, ((0, 1), (0, 1)))
    grown[:-1, -1] = -(w @ (r + again)) / rho
    grown[-1, -1] = 1.0 / rho
    return np.column_stack([q, rest / rho]), grown


def _drop_column(q, w, j):
    """Remove support position j from E_S W = Q: a Householder reflection
    turns row j of W into a multiple of the last unit vector, after which
    the last columns of Q and W carry the dropped column alone."""
    h = w[j] / np.linalg.norm(w[j])
    h[-1] += 1.0 if h[-1] >= 0.0 else -1.0
    scale = 2.0 / (h @ h)
    q = q[:, :-1] - np.outer(scale * (q @ h), h[:-1])
    w = np.delete(w, j, axis=0)
    w = w[:, :-1] - np.outer(scale * (w @ h), h[:-1])
    return q, w


def _exact_simplex_fit(rows, weights, target, keep_trace=False):
    """min sum_j w_j ((B z)_j - m_j)^2 over the simplex, by a Lawson-Hanson
    active set (Lawson & Hanson, Solving Least Squares Problems, 1974) in
    Wolfe's minimum-norm-point form (Math. Programming 11, 1976).

    On the simplex the objective is ||D z||^2, d_i = sqrt(w) * (b_i - m).
    From the best vertex, each outer step adds the outside coordinate with
    the smallest gradient and takes the least-norm point of the affine hull
    of the support's columns, stepping back to the boundary and dropping
    the coordinates that leave it until that point is positive. The
    support's columns E_S, each lifted by a leading 1, are kept as
    E_S W = Q with Q orthonormal: the affine point is proportional to
    W W^T 1, and adding or dropping a column costs O(k s). Stops when the
    Frank-Wolfe gap max_j (grad . z - grad_j), which bounds the distance to
    the optimal objective, falls to rounding level; at most 3 g outer steps.
    """
    k, g = rows.shape
    lifted = np.empty((k + 1, g))
    lifted[0] = 1.0
    np.multiply(rows - target[:, None], np.sqrt(weights)[:, None], out=lifted[1:])
    d = lifted[1:]
    gap_tol = 10.0 * max(k, g) * np.finfo(float).eps
    start = int(np.argmin(np.einsum("ij,ij->j", d, d)))
    support = np.array([start])
    norm = np.linalg.norm(lifted[:, start])
    q, w = (lifted[:, start] / norm)[:, None], np.array([[1.0 / norm]])
    z = np.zeros(g)
    z[start] = 1.0
    resid = d[:, start]
    f = float(resid @ resid)
    best, f_best = z.copy(), f
    trace = [f] if keep_trace else None
    converged = False
    for outer in range(1, 3 * g + 1):
        grad = 2.0 * (d.T @ resid)
        level = grad[support] @ z[support]
        grad[support] = np.inf
        enter = int(np.argmin(grad))
        grown = _add_column(q, w, lifted[:, enter])
        # a column already in the support's affine hull means the gap is
        # rounding in the support's fit
        if level - grad[enter] <= gap_tol or grown is None:
            converged = True
            outer -= 1
            break
        q, w = grown
        support = np.append(support, enter)
        while True:
            s = w @ w.sum(axis=0)
            s /= s.sum()
            if s.min() > 0.0:
                break
            current = z[support]
            ratios = np.full(s.size, np.inf)
            neg = s <= 0.0
            ratios[neg] = current[neg] / (current[neg] - s[neg])
            block = int(np.argmin(ratios))
            current += ratios[block] * (s - current)
            current[block] = 0.0
            z[support] = np.maximum(current, 0.0)
            for j in np.flatnonzero(current <= 0.0)[::-1]:
                q, w = _drop_column(q, w, j)
            support = support[current > 0.0]
        z[support] = s
        resid = d[:, support] @ s
        f = float(resid @ resid)
        if f < f_best:
            best, f_best = z.copy(), f
        if keep_trace:
            trace.append(f_best)
    trace_arr = np.asarray(trace) if keep_trace else None
    return QPSolution(weights=best, objective=f_best, iterations=outer, converged=converged, trace=trace_arr)


def fit_simplex(basis, weights, target, start, tolerance, max_iters, step_bound=None, keep_trace=False):
    """min sum_j w_j ((B z)_j - m_j)^2 over the simplex, B the basis's map.

    The only code that picks a method. Below EXACT_MAX_ENTRIES entries
    (k times the grid size) the fit is solved exactly by an active set from
    the dense table. At or above that size accelerated projected gradient
    runs from `start()`, a callable that builds the warm start, with step
    1 / step_bound (a power-iteration bound when none is given); start,
    tolerance, max_iters and step_bound steer only that method.
    """
    if basis.k * basis.size < EXACT_MAX_ENTRIES:
        return _exact_simplex_fit(basis.dense(), weights, target, keep_trace)
    if step_bound is None:
        step_bound = power_step_bound(basis, weights)
    z, _, f, iters, converged, trace = _accelerated_simplex_minimize(
        basis,
        _weighted_lsq_objective(weights, target),
        start(),
        1.0 / step_bound,
        tolerance,
        max_iters,
        keep_trace=keep_trace,
    )
    return QPSolution(weights=z, objective=f, iterations=iters, converged=converged, trace=trace)


def _weighted_lsq_objective(weights, target):
    def objective(image):
        resid = image - target
        return float(weights @ (resid * resid)), 2.0 * weights * resid

    return objective


def _box_violation_objective(target, tols):
    def objective(image):
        resid = image - target
        excess = np.abs(resid) - tols
        np.maximum(excess, 0.0, out=excess)
        return float(excess @ excess), 2.0 * np.sign(resid) * excess

    return objective


def damped_series_init(grid, moments):
    """Deterministic warm start: the damping-smoothed moment density on the
    grid, clipped to be nonnegative and mixed with a uniform floor.
    """
    m_plain = moments.to_plain().values
    k = m_plain.size
    damping = jackson_damping(k).damping
    coeffs = np.concatenate([[1.0], 2.0 * damping[1:] * m_plain])
    table = cheb_t_table(k, grid.points)
    series = coeffs @ table
    interior = np.clip(grid.points, -1.0 + 1e-9, 1.0 - 1e-9)
    arcsine = 1.0 / np.sqrt(1.0 - np.minimum(interior * interior, 1.0 - 1e-12))
    density = np.maximum(series, 0.0) * arcsine
    total = density.sum()
    if not np.isfinite(total) or total <= 0.0:
        return np.full(grid.size, 1.0 / grid.size)
    z0 = 0.9 * density / total + 0.1 / grid.size
    return z0 / z0.sum()


def solve_weighted_qp(moments, cfg, basis=None, step_bound=None):
    """Minimize sum_j (m_j - sum_i z_i T_j(x_i))^2 / j^2 over the simplex."""
    m_plain = moments.to_plain()
    if m_plain.k != cfg.k:
        raise ValueError("moment degree does not match the configuration")
    if basis is None:
        basis = _make_basis(cfg.grid, cfg.k)
    j = np.arange(1, cfg.k + 1)
    if cfg.init == INIT_DAMPED:
        start = partial(damped_series_init, cfg.grid, m_plain)
    else:
        start = partial(np.full, basis.size, 1.0 / basis.size)
    return fit_simplex(
        basis,
        1.0 / (j * j),
        m_plain.values,
        start,
        cfg.tolerance,
        cfg.max_iters,
        step_bound=step_bound,
        keep_trace=cfg.keep_trace,
    )


def recover_distribution(moments, k=None, cfg=None):
    """Full moment-regression recovery on a Chebyshev-node grid.

    Fits the weighted residual over the simplex, prunes negligible weights
    and reports the a-posteriori moment error of the result against the
    input moments. Solver non-convergence is flagged, not fatal.
    """
    m_plain = moments.to_plain()
    if k is None:
        k = m_plain.k
    if cfg is None:
        cfg = RecoveryConfig(k=k)
    solution = solve_weighted_qp(m_plain, cfg)
    dist = _distribution_from_weights(cfg.grid, solution.weights)
    achieved = cheb_moments(dist, cfg.k, PLAIN)
    report = moment_error_gamma(m_plain, achieved)
    return RecoveryResult(
        distribution=dist,
        k=cfg.k,
        g=cfg.g,
        gamma=report.gamma,
        w1_bound=report.w1_bound,
        w1_bound_optimistic=report.w1_bound_optimistic,
        objective=solution.objective,
        iterations=solution.iterations,
        converged=solution.converged,
    )


def solve_moment_lp(moments, per_moment_tol, cfg=None, basis=None, step_bound=None):
    """Find simplex weights whose moments fall in [m_j - tol_j, m_j + tol_j].

    Runs the projected-gradient scheme on the summed squared box violations
    and stops the moment the violation hits zero; a residual violation above
    1e-9 after the iteration cap marks the problem infeasible-at-tolerance.
    """
    m_plain = moments.to_plain()
    k = m_plain.k
    tols = np.broadcast_to(np.asarray(per_moment_tol, dtype=float), (k,)).copy()
    if np.any(tols <= 0):
        raise ValueError("tolerances must be positive")
    if cfg is None:
        cfg = RecoveryConfig(k=k, g=lp_grid_size(k))
    if basis is None:
        basis = _make_basis(cfg.grid, k)
    if step_bound is None:
        step_bound = power_step_bound(basis, np.ones(k))
    z0 = np.full(basis.size, 1.0 / basis.size)
    z, z_img, f, iters, converged, trace = _accelerated_simplex_minimize(
        basis,
        _box_violation_objective(m_plain.values, tols),
        z0,
        1.0 / step_bound,
        cfg.tolerance,
        cfg.max_iters,
        keep_trace=cfg.keep_trace,
        stop_on_zero=True,
    )

    def violation(image):
        return float(np.max(np.maximum(np.abs(image - m_plain.values) - tols, 0.0)))

    max_violation = violation(z_img)
    if 0.0 < max_violation <= 1e-3 and k * basis.size < EXACT_MAX_ENTRIES:
        # near-consistent boxes behave like an equality system; the exact
        # fit toward the box centers usually lands inside (above the exact
        # size, a second first-order solve would cost as much as the first)
        centered = _exact_simplex_fit(basis.dense(), np.ones(k), m_plain.values).weights
        centered_violation = violation(basis.apply(centered))
        if centered_violation < max_violation:
            z, max_violation = centered, centered_violation
    feasible = max_violation <= 1e-9
    return LPSolution(
        weights=z,
        feasible=feasible,
        max_violation=max_violation,
        iterations=iters,
        trace=trace,
    )


def _distribution_from_weights(grid, weights):
    total = weights.sum()
    dist = DiscreteDistribution(grid.points, weights / total)
    return dist.pruned(PRUNE_THRESHOLD)
