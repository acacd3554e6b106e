"""Reference implementations the tests compare the library against.

They are deliberately independent of the code under test: a Jacobi
eigensolver that uses no LAPACK, the second-kind Chebyshev recurrence,
pointwise tensor Chebyshev products, arccos-distance rounding onto
Chebyshev nodes, a row-by-row `csv` + `float()` dataset reader, and the
three-term Hutchinson loop that spends one product per probe per degree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from momentforge._normal import seeded_rademacher
from momentforge.chebyshev import cheb_t
from momentforge.distributions import DiscreteDistribution
from momentforge.fileio import CsvFormatError

DOMAIN_SLACK = 1e-12


def cheb_u(j, x):
    """U_j(x) via the recurrence U_j = 2 x U_{j-1} - U_{j-2}, U_1 = 2x."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    xc = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xc)) or np.any(np.abs(xc) > 1.0 + DOMAIN_SLACK):
        raise ValueError("point outside [-1, 1]")
    xc = np.clip(xc, -1.0, 1.0)
    scalar = xc.ndim == 0
    xv = np.atleast_1d(xc)
    if j == 0:
        out = np.ones_like(xv)
    elif j == 1:
        out = 2.0 * xv
    else:
        prev = np.ones_like(xv)
        cur = 2.0 * xv
        for _ in range(j - 1):
            prev, cur = cur, 2.0 * xv * cur - prev
        out = cur
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class MultiIndex:
    """A tuple of nonnegative degrees, one per coordinate (d <= 3)."""

    K: tuple

    def __post_init__(self):
        K = tuple(int(v) for v in self.K)
        if not 1 <= len(K) <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        if any(v < 0 for v in K):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "K", K)

    @property
    def d(self):
        return len(self.K)

    @property
    def norm2_sq(self):
        return sum(v * v for v in self.K)

    @property
    def norm2(self):
        return math.sqrt(self.norm2_sq)

    @property
    def nnz(self):
        return sum(1 for v in self.K if v != 0)


def cheb_t_multi(K, x):
    """Product of per-coordinate first-kind values: prod_i T_{K_i}(x_i)."""
    degrees = K.K if isinstance(K, MultiIndex) else tuple(int(v) for v in K)
    point = np.atleast_1d(np.asarray(x, dtype=float))
    if len(degrees) != point.size:
        raise ValueError("index and point dimensions differ")
    out = 1.0
    for deg, coord in zip(degrees, point):
        out *= cheb_t(deg, float(coord))
    return out


def arccos_round(x, grid):
    """Nearest Chebyshev node in arccos distance; ties to the smaller index.

    The gap satisfies |arccos x - arccos y| <= pi / (2 g).
    """
    if grid.half_steps is not None:
        raise ValueError("arccos rounding needs a Chebyshev-node grid")
    g = grid.size
    xv = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    theta = np.arccos(xv)
    u = (theta - np.pi / (2 * g)) / (np.pi / g)
    idx = np.ceil(u - 0.5).astype(int)
    idx = np.clip(idx, 0, g - 1)
    return grid.points[idx]


def _round_robin_step(n):
    """Permutation taking one round of the round-robin tournament to the
    next, with the pairs of a round held at positions (2i, 2i + 1).

    Player 0 stays put and the others circulate, so over n - 1 rounds every
    pair of the n (even) players meets exactly once.
    """
    if n == 2:
        return np.arange(2)
    top = np.arange(0, n, 2)
    bottom = np.arange(1, n, 2)
    step = np.empty(n, dtype=np.int64)
    step[0::2] = np.concatenate([[top[0], bottom[0]], top[1:-1]])
    step[1::2] = np.concatenate([bottom[1:], [top[-1]]])
    return step


def jacobi_eigenvalues(matrix, off_norm_tol=1e-10, max_sweeps=60):
    """Eigenvalues of a symmetric matrix by parallel-ordered Jacobi rotations.

    Each sweep runs the n - 1 rounds of a round-robin (Brent-Luk) ordering.
    A round rotates the n/2 disjoint index pairs (2i, 2i + 1) at once and
    then permutes the matrix so that the next round's pairs sit at those
    positions. Columns 2j and 2j + 1 are the real and imaginary parts of
    one complex column, and rotating them by (c, s) multiplies it by
    c + i s; the rows are rotated the same way on the transpose, which is
    the result's transpose as well, since the result is symmetric. Pairs
    below a per-sweep threshold are left alone, and sweeps continue until
    the off-diagonal Frobenius norm drops below `off_norm_tol`. Uses no
    LAPACK; intended for n <= 2048.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > 2048:
        raise ValueError("oracle eigensolver capped at n = 2048")
    if np.max(np.abs(a - a.T)) > 1e-8:
        raise ValueError("matrix is not symmetric within 1e-8")
    size = a.shape[0]
    if size == 1:
        return a[np.diag_indices(1)].copy()
    n = size + size % 2  # an odd size gets a decoupled zero row and column
    x = np.zeros((n, n))
    x[:size, :size] = 0.5 * (a + a.T)
    labels = np.arange(n)
    step = _round_robin_step(n)
    next_round = (step[:, None] * n + step[None, :]).ravel()
    diagonal = np.arange(n) * (n + 1)
    p_diag, q_diag, pq = diagonal[0::2], diagonal[1::2], diagonal[0::2] + 1
    for _ in range(max_sweeps):
        # norm of the zero-diagonal copy: immune to the cancellation that
        # hits the sum-of-squares difference once the matrix is nearly
        # diagonal
        off_part = x.ravel().copy()
        off_part[diagonal] = 0.0
        off = float(np.linalg.norm(off_part))
        if off <= off_norm_tol:
            break
        threshold = off / size * 1e-4  # classical threshold: skip tiny pivots
        for _ in range(n - 1):
            flat = x.ravel()
            app, aqq, apq = flat[p_diag], flat[q_diag], flat[pq]
            active = np.abs(apq) > threshold
            tau = (aqq - app) / (2.0 * np.where(active, apq, 1.0))
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = np.where(active, 1.0 / np.sqrt(1.0 + t * t), 1.0)
            rotation = c + 1j * np.where(active, t * c, 0.0)
            # columns p <- c p - s q and q <- s p + c q, then rows
            x.view(np.complex128)[...] *= rotation
            x = np.ascontiguousarray(x.T)
            x.view(np.complex128)[...] *= rotation
            x = x.ravel().take(next_round).reshape(n, n)
            labels = labels[step]
    else:
        raise RuntimeError("rotation sweeps did not reach the target off-norm")
    return np.sort(np.diag(x)[labels < size])


def exact_spectral_density(matrix):
    """Uniform distribution over the eigenvalues, via the Jacobi oracle."""
    eigs = jacobi_eigenvalues(matrix)
    return DiscreteDistribution.on_real_line(eigs, np.full(eigs.size, 1.0 / eigs.size))


def load_dataset_csv_rows(path):
    """The dataset reader before the C parser: csv.reader rows through
    float(), blank-and-comma-only rows skipped, a non-numeric line 1 taken
    as a header."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not field.strip() for field in row):
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                if line_no == 1:
                    continue  # header
                raise CsvFormatError(path, line_no, "non-numeric field")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvFormatError(path, line_no, "inconsistent row width")
            rows.append(values)
    if not rows:
        raise CsvFormatError(path, 1, "no data rows")
    data = np.asarray(rows)
    return data[:, 0] if data.shape[1] == 1 else data


def save_distribution_csv_rows(dist, path):
    """The distribution saver before the one-format write: a csv.writer row
    of "%.17g" strings per atom, under the x[i],weight header."""
    d = dist.d
    header = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    header.append("weight")
    support = dist.support if d > 1 else dist.support[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, weight in zip(support, dist.weights):
            writer.writerow(["%.17g" % v for v in row] + ["%.17g" % weight])


def hutchinson_three_term(op, seed, k, schedule):
    """Chebyshev moment estimates before the product identities: each of the
    first l_j probes runs the recurrence to degree j, and m_j is the mean of
    g^T T_j(A) g / n over them. Costs schedule[:k].sum() products."""
    n = op.n
    probes = seeded_rademacher(seed, (n, int(schedule[0])))
    estimates = np.empty(k)
    t_prev = probes  # T_0(A) G
    t_cur = op.apply_block(probes)  # T_1(A) G
    estimates[0] = np.einsum("ij,ij->", probes, t_cur) / (schedule[0] * n)
    for j in range(2, k + 1):
        active = int(schedule[j - 1])
        t_next = 2.0 * op.apply_block(t_cur[:, :active]) - t_prev[:, :active]
        estimates[j - 1] = np.einsum("ij,ij->", probes[:, :active], t_next) / (active * n)
        t_prev, t_cur = t_cur[:, :active], t_next
    return estimates
