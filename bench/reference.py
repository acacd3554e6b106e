"""References the benchmark checks answers against.

Nothing here calls momentforge: the distances, bounds, sample generators
and moment formulas are written out again with numpy alone, so a defect in
the library cannot also move the yardstick that measures it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft


def w1_1d(xa, wa, xb, wb):
    """Exact Wasserstein-1 between two weighted point sets on the line:
    the integral of |CDF_a - CDF_b|."""
    xa = np.asarray(xa, dtype=float).ravel()
    xb = np.asarray(xb, dtype=float).ravel()
    wa = np.broadcast_to(np.asarray(wa, dtype=float), xa.shape)
    wb = np.broadcast_to(np.asarray(wb, dtype=float), xb.shape)
    points = np.concatenate([xa, xb])
    mass = np.concatenate([wa / wa.sum(), -wb / wb.sum()])
    order = np.argsort(points, kind="stable")
    gaps = np.diff(points[order])
    return float(np.abs(np.cumsum(mass[order])[:-1]) @ gaps)


def dp_tail_bound(n, epsilon, delta, beta=0.05):
    """The private-synthesis error bound at failure probability beta:
    sqrt(log(1/beta) + log(eps n)) * sqrt(log(eps n) log(1/delta)) / (eps n)."""
    en = epsilon * n
    return (
        math.sqrt(math.log(1.0 / beta) + math.log(en))
        * math.sqrt(math.log(en) * math.log(1.0 / delta))
        / en
    )


def norm_inverse_sum(m, d):
    """Sum of 1/||K||_2 over K in {0..m}^d without the zero index."""
    axes = np.meshgrid(*([np.arange(m + 1)] * d), indexing="ij")
    sq = sum(a.astype(float) ** 2 for a in axes).ravel()[1:]
    return float(np.sum(1.0 / np.sqrt(sq)))


_DENSITIES = {
    "gaussian": lambda x: np.exp(-0.5 * x * x),
    "sine": lambda x: np.sin(np.pi * x) + 1.0,
    "powerlaw": lambda x: (x + 1.1) ** -2.0,
}
GENERATORS = tuple(_DENSITIES)


def sample_density(name, n, rng):
    """n draws on [-1, 1] from one of the scaling-study shapes, by inverse
    CDF with linear interpolation on a 10^4-point grid."""
    grid = np.linspace(-1.0, 1.0, 10_001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(_DENSITIES[name](mid))])
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid)


def cheb_moments_plain(support, weights, k):
    """m_j = sum_i w_i cos(j arccos x_i), j = 1..k."""
    theta = np.arccos(np.clip(np.asarray(support, dtype=float), -1.0, 1.0))
    j = np.arange(1, k + 1)[:, None]
    return np.cos(j * theta[None, :]) @ np.asarray(weights, dtype=float)


def read_distribution_csv(path):
    """(support, weights) from a distribution CSV with header x,weight."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def planted_symmetric(eigenvalues, rng):
    """Dense symmetric Q diag(lam) Q^T with a random orthogonal Q.

    Q is two rounds of (random permutation, random signs, orthonormal
    DCT-II), applied in O(n^2 log n); the spectrum is exactly `eigenvalues`
    up to rounding, with no eigensolver involved.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    rounds = [(rng.permutation(n), rng.choice([-1.0, 1.0], n)) for _ in range(2)]

    def q_columns(block):
        out = block
        for perm, signs in rounds:
            out = out[perm] * signs[:, None]
            out = scipy.fft.dct(out, type=2, norm="ortho", axis=0)
        return out

    q_lam = q_columns(np.diag(lam))
    a = q_columns(np.ascontiguousarray(q_lam.T))
    return 0.5 * (a + a.T)

