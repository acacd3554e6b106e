"""Distribution recovery from (noisy) Chebyshev moments.

A weighted least-squares fit over the probability simplex on a grid and
its feasibility variant with per-moment tolerance boxes, both solved by one
exact solver, plus the Euclidean simplex projection. `fit_simplex` solves
the fit exactly at every size with a Lawson-Hanson active set that touches
the moment map only through its adjoint and single columns, so it never
needs a dense table. The feasibility fit is one `fit_simplex` call with
residuals scaled by their tolerances, followed by a check of the boxes.

The moment maps ("bases") share one protocol, stated on `DenseBasis`, and
all work in double precision: an explicit table (`DenseBasis`), a NUFFT on
arbitrary 1-D points (`NufftBasis`, which every 1-D fit uses) and a
Kronecker product of per-axis tables on tensor grids (`KroneckerBasis`).
The fast ones never materialize a dense table.

The entry points take only what they cannot work out: the degree k is the
moments' own, and the grid, when not given, is the Chebyshev nodes of
`default_grid_size(k)` for the regression and of `lp_grid_size(k)` for the
feasibility fit. Both refuse a grid of fewer than k points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from .chebyshev import cheb_t_table
from .distributions import (
    DiscreteDistribution,
    Grid,
    cheb_moments,
    moment_error_gamma,
    multi_index_array,
    multi_moment_normalizers,
)


def default_grid_size(k):
    """ceil(k^1.5), the grid size paired with a degree-k fit."""
    return int(math.ceil(k**1.5))


def lp_grid_size(k):
    """ceil(k^1.5 sqrt(1 + log k)), the finer grid the feasibility fit uses."""
    return int(math.ceil(k**1.5 * math.sqrt(1.0 + math.log(k))))


@dataclass
class QPSolution:
    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: np.ndarray


@dataclass
class LPSolution:
    weights: np.ndarray
    feasible: bool
    max_violation: float
    iterations: int


@dataclass
class RecoveryResult:
    """A fit and its report. `w1_bound` is 36/k + gamma, gamma the fit's
    moment error against the input (`moment_error_gamma`): a W1 bound only
    against a distribution whose moments equal the input. For a truth p
    behind noisy input moments, W1(p, fit) <= w1_bound + Gamma(p, input)."""

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

    A basis is anything with `k` (moments), `size` (grid points),
    `apply(z)` (the k moments of grid weights z), `apply_adjoint(v)` (its
    transpose, the product that prices every grid point) and `column(i)`,
    the exact float64 moments of grid point i. A fast basis may round in
    `apply` and `apply_adjoint` (to ~1e-13 relative here); `column` is
    what the fit's factor and gap test use.
    """

    def __init__(self, rows):
        self.rows = rows
        self.k, self.size = rows.shape

    def apply(self, z):
        return self.rows @ z

    def apply_adjoint(self, v):
        return self.rows.T @ v

    def column(self, i):
        return self.rows[:, i]


# The NUFFT spreading kernel: the "exponential of semicircle"
# exp(beta (sqrt(1 - z^2) - 1)), |z| <= 1 (Barnett, Magland and af
# Klinteberg 2019), spanning _ES_WIDTH points of a fine grid with
# _ES_OVERSAMPLING times as many points as modes, and their beta = 2.30 w
# for oversampling 2. The maps then agree with cos(j arccos x) to ~1e-14
# relative at k = 100, and beyond that to the ~j eps rounding of the
# cosines themselves.
_ES_WIDTH = 16
_ES_OVERSAMPLING = 2
_ES_BETA = 2.30 * _ES_WIDTH
# Gauss-Legendre rule for the kernel's Fourier transform over its support
_ES_NODES, _ES_WEIGHTS = np.polynomial.legendre.leggauss(2 * _ES_WIDTH + 40)
_ES_KERNEL_AT_NODES = _ES_WEIGHTS * np.exp(_ES_BETA * (np.sqrt(1.0 - _ES_NODES**2) - 1.0))


class NufftBasis:
    """The moment map on arbitrary points of [-1, 1] as a type-1/type-2
    NUFFT (Dutt and Rokhlin 1993) with the ES kernel, in double precision.

    With theta_i = arccos x_i, (B^T u)_i = sum_j u_j cos(j theta_i): the
    adjoint divides u by the kernel's Fourier transform, takes one inverse
    real FFT onto the fine grid of spacing 2 pi / N and gathers the _ES_WIDTH
    fine values around each theta_i; `apply` spreads z onto the fine grid
    and takes one real FFT. The gather is one sparse (size x N) CSR product
    with _ES_WIDTH kernel weights per row, their fine-grid columns taken
    modulo N for the periodic wrap at theta = 0, built once; the spread is
    the product with its transpose, a CSC view of the same arrays.
    Costs O(size * _ES_WIDTH + k log k) per product.
    """

    def __init__(self, points, k):
        self.points = np.asarray(points, dtype=float)
        self.size = self.points.size
        self.k = k
        theta = np.arccos(np.clip(self.points, -1.0, 1.0))
        modes = 2 * k + 1
        self.n_fine = scipy.fft.next_fast_len(
            max(_ES_OVERSAMPLING * modes, 2 * _ES_WIDTH), real=True
        )
        step = 2.0 * math.pi / self.n_fine
        half_width = 0.5 * _ES_WIDTH * step
        first = np.ceil(theta / step - 0.5 * _ES_WIDTH)
        fine = first[:, None] + np.arange(_ES_WIDTH)
        z = (theta[:, None] - fine * step) / half_width
        self.interpolation = scipy.sparse.csr_matrix(
            (
                np.exp(_ES_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0)).ravel(),
                (fine.astype(np.int64) % self.n_fine).ravel(),
                np.arange(0, _ES_WIDTH * self.size + 1, _ES_WIDTH),
            ),
            shape=(self.size, self.n_fine),
        )
        # the kernel's Fourier transform at j = 1..k
        j = np.arange(1, k + 1)
        phases = np.outer(j, half_width * _ES_NODES)
        kernel_hat = half_width * (np.cos(phases) @ _ES_KERNEL_AT_NODES)
        self.adjoint_scale = math.pi / kernel_hat
        self.apply_scale = step / kernel_hat

    def apply(self, z):
        spread = self.interpolation.T @ z
        return scipy.fft.rfft(spread)[1 : self.k + 1].real * self.apply_scale

    def apply_adjoint(self, v):
        spectrum = np.zeros(self.n_fine // 2 + 1)
        spectrum[1 : self.k + 1] = v * self.adjoint_scale
        return self.interpolation @ scipy.fft.irfft(spectrum, self.n_fine)

    def column(self, i):
        return np.cos(np.arange(1, self.k + 1) * np.arccos(self.points[i]))


class KroneckerBasis:
    """The normalized tensor moments on the C-order grid of d = 2 or 3 axes
    that each take the values `axis_points`, as `Grid.uniform(h, d)` does
    with its `axis_points`: row K of `indices`, the integer (k, d)
    array `multi_index_array(m, d)`, maps z to
    sqrt(2^nnz(K) / pi^d) sum_i z_i prod_a T_{K_a}(x_{i,a}), the scale
    being K's entry of `multi_moment_normalizers(indices)`.

    The box {0..m}^d minus the origin makes the map a Kronecker product of
    one (m+1) x len(axis_points) Chebyshev table per axis, so `apply`
    contracts the grid weights with it one axis at a time, keeps the
    C-order ravel without its first (zero-index) entry and scales it; the
    adjoint runs the same steps in reverse.
    """

    def __init__(self, axis_points, m, d):
        self.table = cheb_t_table(m, axis_points)
        self.d = d
        self.shape_in = (self.table.shape[1],) * d
        self.shape_out = (m + 1,) * d
        self.size = self.table.shape[1] ** d
        self.k = (m + 1) ** d - 1
        self.indices = multi_index_array(m, d)
        self.scale = multi_moment_normalizers(self.indices)

    def apply(self, z):
        out = z.reshape(self.shape_in)
        for _ in range(self.d):
            out = np.tensordot(out, self.table, axes=([0], [1]))
        return out.ravel()[1:] * self.scale

    def apply_adjoint(self, v):
        full = np.zeros(self.k + 1)
        full[1:] = v * self.scale
        out = full.reshape(self.shape_out)
        for _ in range(self.d):
            out = np.tensordot(out, self.table, axes=([0], [0]))
        return out.ravel()

    def column(self, i):
        col = np.ones(1)
        for axis_index in np.unravel_index(i, self.shape_in):
            col = np.multiply.outer(col, self.table[:, axis_index]).ravel()
        return col[1:] * self.scale


def power_step_bound(basis, weights, iters=50, headroom=1.1):
    """Upper bound on the largest curvature of the weighted residual objective.

    50 rounds of power iteration on the Hessian map v -> 2 B^T (w * (B v)),
    inflated by 10%. No fit calls it since both fits are exact; it stays
    because the benchmark's tracer wraps it by name and derives a metric
    from its call count.
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


# Q's columns live in Fortran-order blocks of this many columns
_Q_BLOCK = 32


class _BlockedQ:
    """The first `count` columns of an orthonormal Q, stored in a list of
    Fortran-order (rows x _Q_BLOCK) blocks that are never moved or copied:
    a new column goes into the last block, a full last block gets a new
    one, and an emptied last block is freed. Memory is at most
    (count + _Q_BLOCK) * rows doubles."""

    def __init__(self, rows):
        self.rows = rows
        self.blocks = []
        self.count = 0

    def _views(self):
        """(start, columns start..start+width of Q) for each block in use."""
        for start, block in zip(range(0, self.count, _Q_BLOCK), self.blocks):
            yield start, block[:, : min(_Q_BLOCK, self.count - start)]

    def project_out(self, v):
        """(Q^T v, v - Q Q^T v), one block at a time, so that each block is
        read twice while it is still in cache."""
        coefs = np.empty(self.count)
        rest = v.copy()
        for start, view in self._views():
            part = view.T @ v
            coefs[start : start + part.size] = part
            rest -= view @ part
        return coefs, rest

    def dot(self, c):
        """Q c."""
        out = np.zeros(self.rows)
        for start, view in self._views():
            out += view @ c[start : start + view.shape[1]]
        return out

    def last(self):
        """The last column of Q (a view)."""
        return self.blocks[-1][:, (self.count - 1) % _Q_BLOCK]

    def append(self, col):
        if self.count % _Q_BLOCK == 0:
            self.blocks.append(np.empty((self.rows, _Q_BLOCK), order="F"))
        self.blocks[-1][:, self.count % _Q_BLOCK] = col
        self.count += 1

    def reflect_and_pop(self, h, scale):
        """Q <- Q (I - scale h h^T) on every column but the last, which is
        then dropped; one column at a time, in place, so that no
        (rows x _Q_BLOCK) temporary is made."""
        qh = scale * self.dot(h)
        last = self.count - 1
        for start, view in self._views():
            for c in range(min(view.shape[1], last - start)):
                view[:, c] -= qh * h[start + c]
        self.count = last
        if self.count % _Q_BLOCK == 0:
            self.blocks.pop()


def _add_column(q, w, col):
    """Extend E_S W = Q (Q orthonormal, s = len(w) columns) by one column
    of E in O(rows * s): Gram-Schmidt with one reorthogonalization. Appends
    the new column of Q and returns the grown W, or None when the column
    lies in the span of Q to rounding."""
    s = w.shape[0]
    r, rest = q.project_out(col)
    again, rest = q.project_out(rest)  # reorthogonalize once
    rho = np.linalg.norm(rest)
    if rho <= 1e-12 * np.linalg.norm(col):
        return None
    q.append(rest / rho)
    grown = np.zeros((s + 1, s + 1))
    grown[:s, :s] = w
    grown[:-1, -1] = -(w @ (r + again)) / rho
    grown[-1, -1] = 1.0 / rho
    return grown


def _drop_column(q, w, j):
    """Remove support position j from E_S W = Q: a Householder reflection
    turns row j of W into a multiple of the last unit vector, after which
    the last columns of Q and W carry the dropped column alone and are
    removed. Q is updated in place; returns the new W."""
    h = w[j] / np.linalg.norm(w[j])
    h[-1] += 1.0 if h[-1] >= 0.0 else -1.0
    scale = 2.0 / (h @ h)
    q.reflect_and_pop(h, scale)
    w = np.delete(w, j, axis=0)
    return w[:, :-1] - np.outer(scale * (w @ h), h[:-1])


# the carried Q W^T 1 stands in for the full product only while its
# rounding bound is at most this fraction of the residual's largest entry
_CARRY_LIMIT = 1e-9


def _step_residual(q, v, lift_sum, dropped, rounding):
    """(Q W^T 1 after a step, a bound on the rounding it has gathered),
    given v, its value before the step's add, and v's bound. An add that
    drops nothing leaves the old column sums of W as they were, so v gains
    only the new column of Q times its sum, in O(rows) and in place, and
    eps (|v| + |that sum|) of rounding. After a drop, or once the bound
    passes _CARRY_LIMIT of the residual v[1:] (a fit whose residual has
    cancelled to near rounding level), it is the full product, bound 0."""
    if not dropped:
        rounding += np.finfo(float).eps * (np.abs(v).max() + abs(lift_sum[-1]))
        v += q.last() * lift_sum[-1]
        if rounding <= _CARRY_LIMIT * np.abs(v[1:]).max():
            return v, rounding
    return q.dot(lift_sum), 0.0


def fit_simplex(basis, weights, target):
    """min sum_j w_j ((B z)_j - m_j)^2 over the simplex, B the basis's map,
    by a Lawson-Hanson active set (Lawson & Hanson, Solving Least Squares
    Problems, 1974) in Wolfe's minimum-norm-point form (Math. Programming
    11, 1976).

    On the simplex the objective is ||D z||^2, d_i = sqrt(w) * (b_i - m).
    From the vertex with the largest B^T (w * m), each outer step
    prices every coordinate with one adjoint product, grad = 2 D^T r =
    2 (B^T u - (m . u)) with u = sqrt(w) * r, adds the outside coordinate
    with the smallest gradient, and takes the least-norm point of the
    affine hull of the support's columns, stepping back to the boundary and
    dropping the coordinates that leave it until that point is positive.
    The support's columns E_S, each lifted by a leading 1 and built from
    `basis.column`, are kept only as E_S W = Q with Q orthonormal: the
    affine point is proportional to W W^T 1 and its residual is
    (Q W^T 1)[1:] / sum(W W^T 1), and adding or dropping a column costs
    O(k s). Q W^T 1 is carried from step to step: an add that drops nothing
    keeps the old column sums of W, so it costs one new column of Q, O(k).
    It is the full product after a drop, while the residual is so small
    that the carried rounding could steer a decision (`_step_residual`),
    and once more when the fit ends at the point it reports, so the
    returned objective comes from it (after a step that fails to lower f,
    the objective is that of the step before, as the fit computed it). On
    every fit checked, the steps and the answer are those of a fit that
    takes the full product every step. Q lives in Fortran-order blocks of 32 columns
    that are never moved or copied, so its memory is at most (s + 32)(k + 1)
    doubles beside the basis, and dropping a column reflects Q block by
    block, in place.

    Converged when the Frank-Wolfe gap 2 (f - d_enter . r), which bounds
    the distance to the optimal objective, falls to rounding level (the
    entering price is recomputed from the exact column, so a fast map's
    rounding only steers which column enters), when the entering column
    already lies in the span of the support's, or when a step fails to lower f, which
    Wolfe's step does whenever the gap is positive unless f is at rounding
    level. At most 3 g outer steps; stopping there is not converged.
    `trace` holds the objective at the start and after each outer step.
    """
    k, g = basis.k, basis.size
    root_w = np.sqrt(weights)
    gap_tol = 10.0 * max(k, g) * np.finfo(float).eps

    def lifted(i):
        return np.concatenate([[1.0], root_w * (basis.column(i) - target)])

    start = int(np.argmax(basis.apply_adjoint(weights * target)))
    support, x = np.array([start]), np.array([1.0])
    col = lifted(start)
    norm = np.linalg.norm(col)
    q = _BlockedQ(k + 1)
    q.append(col / norm)
    w = np.array([[1.0 / norm]])
    v, rounding = q.dot(w.sum(axis=0)), 0.0
    resid = col[1:]
    f = float(resid @ resid)
    best = (support, x)
    trace = [f]
    converged = rejected = False
    for outer in range(1, 3 * g + 1):
        u = root_w * resid
        price = basis.apply_adjoint(u) - target @ u
        price[support] = np.inf
        enter = int(np.argmin(price))
        col = lifted(enter)
        gap = 2.0 * (f - col[1:] @ resid)
        grown = _add_column(q, w, col) if gap > gap_tol else None
        # a gap at rounding level, or a column already in the support's
        # affine hull, whose gap is then rounding in the support's fit
        if grown is None:
            converged = True
            outer -= 1
            break
        w = grown
        support, x = np.append(support, enter), np.append(x, 0.0)
        dropped = False
        while True:
            lift_sum = w.sum(axis=0)
            s = w @ lift_sum
            total = s.sum()
            s /= total
            if s.min() > 0.0:
                break
            ratios = np.full(s.size, np.inf)
            neg = s <= 0.0
            ratios[neg] = x[neg] / (x[neg] - s[neg])
            block = int(np.argmin(ratios))
            x = x + ratios[block] * (s - x)
            x[block] = 0.0
            for j in np.flatnonzero(x <= 0.0)[::-1]:
                w = _drop_column(q, w, j)
            support, x = support[x > 0.0], x[x > 0.0]
            dropped = True
        x = s
        v, rounding = _step_residual(q, v, lift_sum, dropped, rounding)
        resid = v[1:] / total
        f_step = float(resid @ resid)
        converged = rejected = f_step >= f
        if not converged:
            f, best = f_step, (support, x)
        trace.append(f)
        if converged:
            break
    if outer and not rejected:
        # the fit ends at the point it reports: its objective from the full product
        resid = q.dot(lift_sum)[1:] / total
        f = float(resid @ resid)
    z = np.zeros(g)
    z[best[0]] = best[1]
    return QPSolution(
        weights=z, objective=f, iterations=outer, converged=converged, trace=np.asarray(trace)
    )


def solve_weighted_qp(moments, basis):
    """Minimize sum_j (m_j - (B z)_j)^2 / j^2 over the simplex, B the
    basis's moment map on a grid of at least k points."""
    if moments.k != basis.k:
        raise ValueError("moment degree does not match the basis")
    if basis.size < basis.k:
        raise ValueError("grid size must be at least k")
    j = np.arange(1, basis.k + 1)
    return fit_simplex(basis, 1.0 / (j * j), moments.values)


def recover_distribution(moments, grid=None):
    """Full moment-regression recovery on a grid, by default the
    `default_grid_size(k)` Chebyshev nodes.

    Fits the weighted residual over the simplex, prunes negligible weights
    and reports the a-posteriori moment error of the result against the
    input moments. Solver non-convergence is flagged, not fatal.
    """
    k = moments.k
    if grid is None:
        grid = Grid.chebyshev(default_grid_size(k))
    solution = solve_weighted_qp(moments, NufftBasis(grid.points, k))
    dist = distribution_from_weights(grid, solution.weights)
    achieved = cheb_moments(dist, k)
    report = moment_error_gamma(moments, achieved)
    return RecoveryResult(
        distribution=dist,
        k=k,
        g=grid.size,
        gamma=report.gamma,
        w1_bound=report.w1_bound,
        w1_bound_optimistic=report.w1_bound_optimistic,
        objective=solution.objective,
        iterations=solution.iterations,
        converged=solution.converged,
    )


def solve_moment_lp(moments, per_moment_tol, grid=None):
    """Find simplex weights on a grid of at least k points, by default the
    `lp_grid_size(k)` Chebyshev nodes, whose moments fall in
    [m_j - tol_j, m_j + tol_j].

    One exact `fit_simplex` of the moments with each residual scaled by its
    tolerance, min sum_j ((B z)_j - m_j)^2 / tol_j^2, whose minimizer does
    not depend on the tolerances' common scale; the boxes are then checked
    on its image. A largest box excess above 1e-9 marks the problem
    infeasible-at-tolerance. `iterations` counts the fit's outer steps.
    Every tolerance must be positive, and a NaN one is refused; an infinite
    tolerance leaves its moment without a box.
    """
    k = moments.k
    tols = np.broadcast_to(np.asarray(per_moment_tol, dtype=float), (k,))
    if not np.all(tols > 0):
        raise ValueError("tolerances must be positive")
    if grid is None:
        grid = Grid.chebyshev(lp_grid_size(k))
    if grid.size < k:
        raise ValueError("grid size must be at least k")
    basis = NufftBasis(grid.points, k)
    fit = fit_simplex(basis, 1.0 / tols**2, moments.values)
    excess = np.abs(basis.apply(fit.weights) - moments.values) - tols
    max_violation = max(float(np.max(excess)), 0.0)
    return LPSolution(
        weights=fit.weights,
        feasible=max_violation <= 1e-9,
        max_violation=max_violation,
        iterations=fit.iterations,
    )


def distribution_from_weights(grid, weights):
    """The distribution of nonnegative grid weights: normalized to sum 1,
    then pruned of weights at most 1e-15."""
    return DiscreteDistribution(grid.points, weights / weights.sum()).pruned()
