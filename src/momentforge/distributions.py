"""Discrete distributions on [-1,1]^d and the operations built on them.

Holds the weighted-point-mass representation used everywhere, the exact
1-D Wasserstein-1 distance via the CDF-difference integral, and the
weighted moment-error functional with its distance bounds. Every rule here
that depends on the dimension serves d = 1, 2, 3 alike: the index box
{0..m}^d in C order, built in one place, orders both the Chebyshev moments
(`cheb_moments`, rows of `multi_index_array(m, d)`) and the points of a
uniform grid (`Grid.uniform(half_steps, d)`), on which `grid_round_indices`
rounds each coordinate on its axis with ties toward the smaller value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import DOMAIN_SLACK, cheb_t_table, chebyshev_nodes

WEIGHT_SUM_TOL = 1e-9

# Constants in the W1 bound 36/k + gamma; the 2*pi variant is the optimistic
# value reported alongside but never asserted.
W1_RATE_CONSTANT = 36.0
W1_RATE_CONSTANT_OPTIMISTIC = 2.0 * math.pi


@dataclass(frozen=True)
class DiscreteDistribution:
    """Weighted point masses on [-1,1]^d (d = 1 unless the support is 2-D)."""

    support: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if sup.ndim not in (1, 2):
            raise ValueError("support must be a vector or an (s, d) array")
        if wts.ndim != 1 or wts.size != sup.shape[0]:
            raise ValueError("one weight per support point required")
        if wts.size == 0:
            raise ValueError("empty distribution")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = wts.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 (got %.12g)" % total)
        if np.any(np.abs(sup) > 1.0 + DOMAIN_SLACK):
            raise ValueError("support outside [-1, 1]^d")
        sup = sup.copy()
        wts = wts.copy()
        sup.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", wts)

    @property
    def d(self):
        return 1 if self.support.ndim == 1 else self.support.shape[1]

    @property
    def size(self):
        return self.weights.size

    @classmethod
    def on_real_line(cls, support, weights):
        """Point masses without the [-1,1] support restriction.

        Used for outputs that live on a rescaled axis (eigenvalue
        distributions); weights are validated as usual.
        """
        sup = np.asarray(support, dtype=float).copy()
        wts = np.asarray(weights, dtype=float).copy()
        if wts.ndim != 1 or wts.size != sup.shape[0] or wts.size == 0:
            raise ValueError("one weight per support point required")
        if np.any(wts < 0) or abs(wts.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        obj = object.__new__(cls)
        sup.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(obj, "support", sup)
        object.__setattr__(obj, "weights", wts)
        return obj

    @classmethod
    def point_mass(cls, x):
        point = np.atleast_1d(np.asarray(x, dtype=float))
        if point.size == 1:
            return cls(point, np.array([1.0]))
        return cls(point[None, :], np.array([1.0]))

    @classmethod
    def uniform_over(cls, values):
        vals = np.asarray(values, dtype=float)
        n = vals.shape[0]
        return cls(vals, np.full(n, 1.0 / n))

    def pruned(self, threshold=1e-15):
        """Drop weights below `threshold` and renormalize the rest."""
        keep = self.weights > threshold
        if keep.all():
            return self
        if not keep.any():
            raise ValueError("pruning removed all mass")
        wts = self.weights[keep]
        return DiscreteDistribution(self.support[keep], wts / wts.sum())

    def mean(self):
        return self.support.T @ self.weights


@dataclass(frozen=True)
class MomentVector:
    """Plain Chebyshev moments m_j = sum_i w_i T_j(x_i): m_1..m_k in 1-D,
    or the tensor moments in `multi_index_array` order."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("moment values must form a nonempty vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("moments must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def k(self):
        return self.values.size


def cheb_moments(p, m):
    """Plain Chebyshev moments sum_i w_i prod_a T_{K_a}(x_{i,a}) for the rows
    K of `multi_index_array(m, d)`, in that order (d in {1, 2, 3}): in 1-D
    the moments j = 1..m.

    One contraction of the weights with the per-axis Chebyshev tables gives
    the moments for all of {0..m}^d in C order; the zero index is its first
    entry and is dropped.
    """
    if p.d > 3:
        raise ValueError("moments are defined for d in {1, 2, 3}")
    if m < 1:
        raise ValueError("need at least one moment")
    tables = [cheb_t_table(m, x) for x in p.support.reshape(p.size, p.d).T]
    if p.d == 1:
        # the matrix product, whose last bits an einsum does not reproduce
        return MomentVector(tables[0][1:] @ p.weights)
    axes = "abc"[: p.d]
    spec = ",".join(a + "i" for a in axes) + ",i->" + axes
    full = np.einsum(spec, *tables, p.weights, optimize=True)
    return MomentVector(full.ravel()[1:])


def _index_box(m, d):
    """All of {0..m}^d in C (lexicographic) order, as the rows of an integer
    ((m+1)^d, d) array."""
    if d not in (1, 2, 3):
        raise ValueError("index arrays are defined for d in {1, 2, 3}")
    axes = np.meshgrid(*([np.arange(m + 1)] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def multi_index_array(m, d):
    """All K in {0..m}^d except the zero index, in lexicographic order, as
    the rows of an integer (k, d) array; for d = 1 the (m, 1) rows 1..m."""
    return _index_box(m, d)[1:]


def multi_moment_normalizers(indices):
    """sqrt(2^nnz(K) / pi^d), the orthonormal-basis scale, for each row K
    of an integer (k, d) index array."""
    nnz = np.count_nonzero(indices, axis=1)
    return np.sqrt(2.0**nnz / math.pi ** indices.shape[1])


def w1_distance(p, q):
    """Exact 1-D Wasserstein-1 distance, the integral of |CDF_p - CDF_q|."""
    if p.d != 1 or q.d != 1:
        raise ValueError("exact transport distance implemented for d = 1 only")
    pts = np.concatenate([p.support, q.support])
    deltas = np.concatenate([p.weights, -q.weights])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    cdf_diff = np.cumsum(deltas[order])[:-1]
    return float(np.abs(cdf_diff) @ np.diff(pts))


@dataclass(frozen=True)
class MomentErrorReport:
    """Weighted moment error gamma and the distance bounds it implies."""

    gamma: float
    k: int
    w1_bound: float
    w1_bound_optimistic: float


def moment_error_gamma(mp, mq):
    """gamma = sqrt(sum_j (m_p,j - m_q,j)^2 / j^2) plus the 36/k + gamma
    bound on W1(p, q) for distributions p and q with moments mp and mq. For
    noisy moments mp of a truth t it bounds W1(t, q) only after adding
    gamma(t's moments, mp), by the triangle inequality."""
    if mp.k != mq.k:
        raise ValueError("moment vectors must share the same degree")
    j = np.arange(1, mp.k + 1)
    gamma = float(np.sqrt(np.sum(((mp.values - mq.values) / j) ** 2)))
    return MomentErrorReport(
        gamma=gamma,
        k=mp.k,
        w1_bound=W1_RATE_CONSTANT / mp.k + gamma,
        w1_bound_optimistic=W1_RATE_CONSTANT_OPTIMISTIC / mp.k + gamma,
    )


@dataclass(frozen=True)
class Grid:
    """A materialized point grid: (g,) points in 1-D, (g, d) rows for a
    tensor grid. A uniform grid also holds its steps per half interval,
    which rounding needs; Chebyshev nodes hold None."""

    points: np.ndarray = field(repr=False)
    half_steps: int = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ValueError("empty grid")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def d(self):
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    @property
    def axis_points(self):
        """The 2 * half_steps + 1 values each axis of a uniform grid takes."""
        return -1.0 + np.arange(2 * self.half_steps + 1) / self.half_steps

    @classmethod
    def uniform(cls, half_steps, d=1):
        """The points -1, -1 + 1/half_steps, ..., 1 on each of d axes, all
        (2 * half_steps + 1)^d of them in C order."""
        if half_steps < 1:
            raise ValueError("need at least one step per half interval")
        pts = -1.0 + _index_box(2 * half_steps, d) / half_steps
        return cls(pts[:, 0] if d == 1 else pts, half_steps)

    @classmethod
    def chebyshev(cls, g):
        return cls(chebyshev_nodes(g))


def round_to_grid(points, grid):
    """Round each point to the nearest grid value, ties toward the smaller."""
    return grid.points[grid_round_indices(points, grid)]


def grid_round_indices(points, grid):
    """Index form of round_to_grid: the row of `grid.points` each point
    rounds to. Points have the shape of the grid's: (n,) in 1-D, else
    (n, d). Each coordinate rounds on its axis, and the result is the flat
    C-order index."""
    if grid.half_steps is None:
        raise ValueError("rounding is defined on uniform grids")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != grid.points.ndim or pts.shape[1:] != grid.points.shape[1:]:
        shape = "(n,)" if grid.d == 1 else f"(n, {grid.d})"
        raise ValueError(f"expected an {shape} array of points")
    # Index arithmetic: ties sit exactly between grid points and the
    # ceil(u - 0.5) rule sends them to the smaller grid value.
    u = (pts.reshape(-1, grid.d) + 1.0) * grid.half_steps
    idx = np.ceil(u - 0.5).astype(int)
    axis_size = 2 * grid.half_steps + 1
    np.clip(idx, 0, axis_size - 1, out=idx)
    return np.ravel_multi_index(tuple(idx.T), (axis_size,) * grid.d)
