"""Chebyshev polynomial primitives on [-1, 1].

Evaluation (first kind, tables, Clenshaw series evaluation), Chebyshev
nodes, the integer smoothing-kernel coefficients and the damping factors
derived from them, interpolation coefficients, and the weighted coefficient
energy used to certify Lipschitz-like coefficient decay.

All transforms here are direct O(k^2) sums; inputs with |x| up to 1e-12
outside [-1, 1] are clamped, anything further out is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DOMAIN_SLACK = 1e-12


def _clamped(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite point")
    if np.any(np.abs(arr) > 1.0 + DOMAIN_SLACK):
        raise ValueError("point outside [-1, 1] beyond the %g slack" % DOMAIN_SLACK)
    return np.clip(arr, -1.0, 1.0)


def cheb_t(j, x):
    """T_j(x) via the forward recurrence T_j = 2 x T_{j-1} - T_{j-2}.

    Accepts a scalar or array `x`; returns a float for scalar input.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    xc = _clamped(x)
    scalar = xc.ndim == 0
    xv = np.atleast_1d(xc)
    if j == 0:
        out = np.ones_like(xv)
    elif j == 1:
        out = xv.copy()
    else:
        prev = np.ones_like(xv)
        cur = xv.copy()
        for _ in range(j - 1):
            prev, cur = cur, 2.0 * xv * cur - prev
        out = cur
    return float(out[0]) if scalar else out


def cheb_t_table(k, x):
    """Rows T_0(x) .. T_k(x) as a (k+1, len(x)) array, by the recurrence."""
    xv = np.atleast_1d(_clamped(x))
    table = np.empty((k + 1, xv.size))
    table[0] = 1.0
    if k >= 1:
        table[1] = xv
    for j in range(2, k + 1):
        table[j] = 2.0 * xv * table[j - 1] - table[j - 2]
    return table


def cheb_series_eval(coeffs, x):
    """Evaluate sum_j c_j T_j(x) by the Clenshaw recurrence.

    `coeffs` are plain (unnormalized basis) coefficients c_0..c_k.
    """
    c = np.asarray(coeffs, dtype=float)
    xv = np.atleast_1d(_clamped(x))
    scalar = np.asarray(x).ndim == 0
    b1 = np.zeros_like(xv)
    b2 = np.zeros_like(xv)
    for j in range(c.size - 1, 0, -1):
        b1, b2 = c[j] + 2.0 * xv * b1 - b2, b1
    out = c[0] + xv * b1 - b2
    return float(out[0]) if scalar else out


def chebyshev_nodes(g):
    """The g roots of T_g: cos((2i-1) pi / (2g)), i = 1..g, descending."""
    if g < 1:
        raise ValueError("need at least one node")
    i = np.arange(1, g + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * g))


def jackson_kernel_coeffs(m):
    """Exact integer Fourier coefficients of the degree-(2m-2) smoothing kernel.

    Entry k1 is sum_{t=-m}^{m-k1} (m - |t|)(m - |t + k1|), computed as the
    autocorrelation of the integer triangle sequence, so the result is exact
    and nonincreasing.
    """
    if m < 1:
        raise ValueError("kernel half-degree must be positive")
    tri = m - np.abs(np.arange(-m, m + 1, dtype=np.int64))
    full = np.correlate(tri, tri, mode="full")
    centre = full.size // 2
    return tuple(int(v) for v in full[centre : centre + 2 * m - 1])


@dataclass(frozen=True)
class JacksonDamping:
    """Damping factors b_0..b_k, ratios of the exact kernel coefficients."""

    m: int
    kernel_coeffs: tuple
    damping: np.ndarray = field(repr=False)

    def __post_init__(self):
        damp = np.asarray(self.damping, dtype=float)
        damp.setflags(write=False)
        object.__setattr__(self, "damping", damp)
        if damp[0] != 1.0:
            raise ValueError("leading damping factor must be exactly 1")

    @property
    def k(self):
        return self.damping.size - 1


def jackson_damping(k):
    """Damping factors for a degree-k truncated series.

    Uses the smallest kernel half-degree m with 2m - 2 >= k so the kernel
    covers every retained term; factors beyond index k are discarded.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    m = (k + 3) // 2
    coeffs = jackson_kernel_coeffs(m)
    damping = np.array([coeffs[j] / coeffs[0] for j in range(k + 1)])
    return JacksonDamping(m=m, kernel_coeffs=coeffs, damping=damping)


@dataclass(frozen=True)
class ChebCoefficients:
    """A finite coefficient vector c_0..c_k of f = sum c_j T_j."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def degree(self):
        return self.values.size - 1


def cheb_interpolation_coeffs(f, degree):
    """Coefficients of the degree-`degree` interpolant at Chebyshev nodes.

    Discrete cosine sums at the degree+1 nodes. Direct O(degree^2)
    evaluation.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = degree + 1
    nodes = chebyshev_nodes(n)
    try:
        fv = np.asarray(f(nodes), dtype=float)
        if fv.shape != nodes.shape:
            raise TypeError
    except TypeError:
        fv = np.array([float(f(v)) for v in nodes])
    if not np.all(np.isfinite(fv)):
        raise ValueError("function values must be finite at the nodes")
    thetas = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    cos_table = np.cos(np.outer(np.arange(n), thetas))
    coeffs = (2.0 / n) * cos_table @ fv
    coeffs[0] /= 2.0
    return ChebCoefficients(coeffs)


def coefficient_decay_functional(coeffs):
    """(pi/2) sum_{j>=1} (j c_j)^2, the sum of (j a_j)^2 over the
    coefficients a_j = sqrt(pi/2) c_j of the orthonormal basis.

    For a smooth function with Lipschitz constant L this is at most
    (pi/2) L^2, with equality for f(x) = x.
    """
    vals = coeffs.values
    if vals.size <= 1:
        return 0.0
    j = np.arange(1, vals.size)
    return float(math.pi / 2.0 * np.sum((j * vals[1:]) ** 2))


def jackson_damped_coeffs(f, k, oversample=4):
    """Damped truncated coefficients of f: interpolate at degree oversample*k,
    keep c_0..c_k, multiply by the degree-k damping factors.

    The oversampling keeps interpolation aliasing out of inequality tests.
    """
    interp = cheb_interpolation_coeffs(f, oversample * k)
    damped = interp.values[: k + 1] * jackson_damping(k).damping
    return ChebCoefficients(damped)
