"""Discrete distributions on [-1,1]^d and the operations built on them.

Holds the weighted-point-mass representation used everywhere, Chebyshev
moment computation (1-D and tensor), the exact 1-D Wasserstein-1 distance
via the CDF-difference integral, grids with deterministic rounding rules,
and the weighted moment-error functional with its distance bounds.
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


def cheb_moments(p, k):
    """First k Chebyshev moments sum_i w_i T_j(x_i), j = 1..k (1-D only)."""
    if p.d != 1:
        raise ValueError("use cheb_moments_multi for d > 1")
    if k < 1:
        raise ValueError("need at least one moment")
    table = cheb_t_table(k, p.support)
    return MomentVector(table[1:] @ p.weights)


def multi_index_array(m, d):
    """All K in {0..m}^d except the zero index, in lexicographic order, as
    the rows of an integer (k, d) array."""
    if d not in (2, 3):
        raise ValueError("tensor moments are defined for d in {2, 3}")
    grids = np.meshgrid(*([np.arange(m + 1)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)[1:]


def multi_moment_normalizers(indices, d):
    """sqrt(2^nnz(K) / pi^d), the orthonormal-basis scale, for each row K
    of an integer (k, d) index array."""
    nnz = np.count_nonzero(indices, axis=1)
    return np.sqrt(2.0**nnz / math.pi**d)


def cheb_moments_multi(p, m):
    """Plain tensor moments sum_i w_i prod_a T_{K_a}(x_{i,a}) for the rows
    K of `multi_index_array(m, d)`, in that order (d in {2, 3}).

    One contraction of the weights with the per-axis Chebyshev tables
    gives the moments for all of {0..m}^d in C order; the zero index is
    its first entry and is dropped.
    """
    if p.d == 1:
        raise ValueError("use cheb_moments for d = 1")
    if p.d > 3:
        raise ValueError("tensor moments are defined for d in {2, 3}")
    tables = [cheb_t_table(m, p.support[:, axis]) for axis in range(p.d)]
    axes = "abc"[: p.d]
    spec = ",".join(a + "i" for a in axes) + ",i->" + axes
    full = np.einsum(spec, *tables, p.weights, optimize=True)
    return MomentVector(full.ravel()[1:])


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
    """gamma = sqrt(sum_j (m_p,j - m_q,j)^2 / j^2) plus the 36/k + gamma bound."""
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


UNIFORM = "uniform"
CHEBYSHEV_NODES = "chebyshev_nodes"
TENSOR_UNIFORM = "tensor_uniform"


@dataclass(frozen=True)
class Grid:
    """A materialized point grid with the metadata rounding needs."""

    kind: str
    points: np.ndarray = field(repr=False)
    spacing: float = None
    axis_points: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise ValueError("empty grid")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.axis_points is not None:
            ax = np.asarray(self.axis_points, dtype=float).copy()
            ax.setflags(write=False)
            object.__setattr__(self, "axis_points", ax)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def d(self):
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    @classmethod
    def uniform(cls, half_steps):
        """Points -1, -1 + 1/half_steps, ..., 1 (2*half_steps + 1 of them)."""
        if half_steps < 1:
            raise ValueError("need at least one step per half interval")
        idx = np.arange(2 * half_steps + 1)
        pts = -1.0 + idx / half_steps
        return cls(UNIFORM, pts, spacing=1.0 / half_steps)

    @classmethod
    def chebyshev(cls, g):
        return cls(CHEBYSHEV_NODES, chebyshev_nodes(g))

    @classmethod
    def tensor_uniform(cls, half_steps, d):
        if d not in (2, 3):
            raise ValueError("tensor grids are for d in {2, 3}")
        axis = Grid.uniform(half_steps).points
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(TENSOR_UNIFORM, pts, spacing=1.0 / half_steps, axis_points=axis)


def _round_uniform_axis(values, half_steps, axis_points):
    # Index arithmetic: ties sit exactly between grid points and the
    # ceil(u - 0.5) rule sends them to the smaller grid value.
    u = (np.asarray(values, dtype=float) + 1.0) * half_steps
    idx = np.ceil(u - 0.5).astype(int)
    np.clip(idx, 0, axis_points.size - 1, out=idx)
    return idx


def round_to_grid(points, grid):
    """Round each point to the nearest grid value, ties toward the smaller."""
    if grid.kind == UNIFORM:
        half_steps = int(round(1.0 / grid.spacing))
        idx = _round_uniform_axis(points, half_steps, grid.points)
        return grid.points[idx]
    if grid.kind == TENSOR_UNIFORM:
        pts = np.asarray(points, dtype=float)
        half_steps = int(round(1.0 / grid.spacing))
        out = np.empty_like(pts)
        for axis in range(pts.shape[1]):
            idx = _round_uniform_axis(pts[:, axis], half_steps, grid.axis_points)
            out[:, axis] = grid.axis_points[idx]
        return out
    raise ValueError("rounding is defined on uniform grids")


def grid_round_indices(points, grid):
    """Index form of round_to_grid (uniform 1-D grids)."""
    if grid.kind != UNIFORM:
        raise ValueError("index rounding is defined on uniform 1-D grids")
    half_steps = int(round(1.0 / grid.spacing))
    return _round_uniform_axis(points, half_steps, grid.points)
