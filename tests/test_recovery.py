import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge.chebyshev import cheb_t_table
from momentforge.distributions import (
    DiscreteDistribution,
    Grid,
    MomentVector,
    cheb_moments,
    moment_error_gamma,
    multi_index_array,
    multi_moment_normalizers,
    w1_distance,
)
from momentforge import recovery
from momentforge.dpsynth import PrivacyBudget, dp_synthesize
from momentforge.experiments import sample_generator
from momentforge.recovery import (
    DenseBasis,
    KroneckerBasis,
    NufftBasis,
    _BlockedQ,
    _add_column,
    _drop_column,
    default_grid_size,
    fit_simplex,
    lp_grid_size,
    recover_distribution,
    simplex_project,
    solve_moment_lp,
    solve_weighted_qp,
)


def brute_force_simplex_projection(v):
    """Enumerate every support pattern and keep the feasible nearest point."""
    v = np.asarray(v, dtype=float)
    best = None
    best_dist = np.inf
    for size in range(1, v.size + 1):
        for subset in itertools.combinations(range(v.size), size):
            z = np.zeros_like(v)
            sel = np.asarray(subset)
            z[sel] = v[sel] - (v[sel].sum() - 1.0) / size
            if z[sel].min() < -1e-12:
                continue
            dist = np.linalg.norm(np.maximum(z, 0.0) - v)
            if dist < best_dist:
                best_dist = dist
                best = np.maximum(z, 0.0)
    return best


def brute_force_simplex_fit(rows, weights, target):
    """Best objective over every support pattern: each pattern's
    equality-constrained KKT system, kept when its solution is feasible."""
    g = rows.shape[1]
    best = np.inf
    for size in range(1, g + 1):
        for subset in itertools.combinations(range(g), size):
            sel = rows[:, list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * sel.T @ (weights[:, None] * sel)
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.append(2.0 * sel.T @ (weights * target), 1.0)
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if sol.min() < -1e-12:
                continue
            z = np.zeros(g)
            z[list(subset)] = np.maximum(sol, 0.0)
            resid = rows @ (z / z.sum()) - target
            best = min(best, float(weights @ (resid * resid)))
    return best


def frank_wolfe_gap(rows, weights, target, z):
    """max_i (grad . z - grad_i) of sum_j w_j ((rows z)_j - m_j)^2 at z."""
    grad = 2.0 * rows.T @ (weights * (rows @ z - target))
    return float(grad @ z - grad.min())


def assert_map_matches_table(basis, table, rng, rel=1e-10):
    """apply, apply_adjoint and every column(i) of a fast map within `rel`
    (relative, in the max norm) of the float64 table."""
    k, size = table.shape
    assert (basis.k, basis.size) == (k, size)
    z = rng.dirichlet(np.ones(size))
    v = rng.normal(size=k)
    for got, want in ((basis.apply(z), table @ z), (basis.apply_adjoint(v), table.T @ v)):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))
    for i in range(size):
        col = basis.column(i)
        assert col.dtype == np.float64
        assert np.max(np.abs(col - table[:, i])) <= rel * np.max(np.abs(table[:, i]))


def random_distribution(rng, points):
    support = rng.uniform(-1, 1, points)
    weights = rng.dirichlet(np.ones(points))
    return DiscreteDistribution(support, weights)


class TestSimplexProjection:
    def test_symmetric_pair(self):
        assert simplex_project([0.6, 0.6]) == pytest.approx([0.5, 0.5])

    def test_kkt_by_inspection(self):
        assert simplex_project([2.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_already_feasible(self):
        z = np.array([0.2, 0.3, 0.5])
        assert simplex_project(z) == pytest.approx(z)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simplex_project([])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_matches_active_set_enumeration(self, seed, dim):
        v = np.random.default_rng(seed).normal(0, 2, dim)
        got = simplex_project(v)
        want = brute_force_simplex_projection(v)
        assert got == pytest.approx(want, abs=1e-9)
        assert got.min() >= 0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestBases:
    @pytest.mark.parametrize("g,k", [(8, 1), (23, 8), (64, 12), (129, 40), (200, 199)])
    def test_nufft_matches_dense_on_chebyshev_nodes(self, g, k):
        grid = Grid.chebyshev(g)
        dense = DenseBasis(cheb_t_table(k, grid.points)[1:])
        fast = NufftBasis(grid.points, k)
        rng = np.random.default_rng(3)
        z = rng.dirichlet(np.ones(g))
        v = rng.normal(size=k)
        assert fast.apply(z) == pytest.approx(dense.apply(z), abs=1e-10)
        assert fast.apply_adjoint(v) == pytest.approx(dense.apply_adjoint(v), abs=1e-10)

    @pytest.mark.parametrize(
        "make,points",
        [
            (lambda k, x: DenseBasis(cheb_t_table(k, x)[1:]), Grid.uniform(20).points),
            (lambda k, x: NufftBasis(x, k), Grid.chebyshev(200).points),
            (lambda k, x: NufftBasis(x, k), Grid.uniform(100).points),
        ],
        ids=["dense", "nufft-nodes", "nufft"],
    )
    def test_column_is_float64_table_column(self, make, points):
        k = 40
        basis = make(k, points)
        table = cheb_t_table(k, points)[1:]
        for i in range(points.size):
            col = basis.column(i)
            assert col.dtype == np.float64
            assert np.max(np.abs(col - table[:, i])) <= 1e-12

    @pytest.mark.parametrize("h", [1, 2, 5, 50, 1024])
    def test_nufft_matches_dense(self, h):
        # uniform grids hold -1, 0 and +1, where theta = arccos x sits on
        # the periodic wrap (0, pi) and at its middle
        points = Grid.uniform(h).points
        k = 2 * h
        table = cheb_t_table(k, points)[1:]
        assert_map_matches_table(NufftBasis(points, k), table, np.random.default_rng(h))

    @pytest.mark.parametrize("d,h", [(2, 3), (2, 12), (3, 2), (3, 6)])
    def test_kronecker_matches_dense(self, d, h):
        grid = Grid.uniform(h, d)
        m = 2 * h
        axis_tables = [cheb_t_table(m, grid.points[:, axis]) for axis in range(d)]
        indices = multi_index_array(m, d)
        rows = np.prod([axis_tables[a][indices[:, a]] for a in range(d)], axis=0)
        table = multi_moment_normalizers(indices)[:, None] * rows
        basis = KroneckerBasis(grid.axis_points, m, d)
        assert_map_matches_table(basis, table, np.random.default_rng(10 * d + h))

    def test_nufft_fit_matches_dense_fit(self):
        # the NUFFT basis prices with rounding of its own; the fit must
        # still reach the dense table's optimum, on targets that are the
        # moments of a random distribution over the grid, with and without
        # noise, for every degree up to the DP pipeline's k = 2h, on uniform
        # grids and on Chebyshev-node grids of as many points
        grids = (Grid.uniform, lambda h: Grid.chebyshev(2 * h + 1))
        for seed, make_grid in itertools.product(range(100), grids):
            rng = np.random.default_rng(seed)
            points = make_grid(int(rng.integers(1, 30))).points
            k = int(rng.integers(1, points.size))
            rows = cheb_t_table(k, points)[1:]
            j = np.arange(1, k + 1)
            weights = 1.0 / (j * j)
            consistent = rows @ rng.dirichlet(np.ones(points.size))
            for target in (consistent, consistent + rng.normal(0, 0.05, k)):
                dense = fit_simplex(DenseBasis(rows), weights, target)
                fast = fit_simplex(NufftBasis(points, k), weights, target)
                assert dense.converged and fast.converged
                assert abs(fast.objective - dense.objective) <= 1e-15
                assert frank_wolfe_gap(rows, weights, target, fast.weights) <= 1e-11

    # points at and next to x = +-1, where theta = arccos x sits at 0 and pi
    # and the spreading window wraps around the periodic fine grid
    EDGE_POINTS = np.array(
        [-1.0, np.nextafter(-1.0, 0.0), -1 + 1e-12, -1 + 1e-6, -0.9999,
         0.9999, 1 - 1e-6, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
    )

    @pytest.mark.parametrize("k", [1, 2, 5, 40, 300])
    def test_nufft_is_adjoint_and_matches_dense_at_the_wrap(self, k):
        rng = np.random.default_rng(k)
        points = np.concatenate([self.EDGE_POINTS, rng.uniform(-1, 1, 200)])
        basis = NufftBasis(points, k)
        table = cheb_t_table(k, points)[1:]
        z, u = rng.normal(size=points.size), rng.normal(size=k)
        bz, btu = basis.apply(z), basis.apply_adjoint(u)
        assert abs(bz @ u - z @ btu) <= 1e-14 * np.linalg.norm(bz) * np.linalg.norm(u)
        assert_map_matches_table(basis, table, rng, rel=1e-12)
        dense = DenseBasis(table)
        assert np.max(np.abs(btu - dense.apply_adjoint(u))) <= 1e-12 * np.max(np.abs(btu))


class TestExactFit:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.booleans())
    def test_matches_support_enumeration(self, seed, k, g, consistent):
        rng = np.random.default_rng(seed)
        rows = cheb_t_table(k, np.sort(rng.uniform(-1, 1, g)))[1:]
        weights = rng.uniform(0.1, 1.0, k)
        if consistent:
            target = rows @ rng.dirichlet(np.ones(g))
        else:
            target = rng.normal(0, 1.5, k)
        solution = fit_simplex(DenseBasis(rows), weights, target)
        assert solution.converged
        assert abs(solution.objective - brute_force_simplex_fit(rows, weights, target)) <= 1e-12
        assert solution.weights.min() >= 0
        assert abs(solution.weights.sum() - 1.0) <= 1e-12


    def test_rounding_level_cycle_stops(self):
        # moments of random grid subsets on ill-conditioned uniform-grid
        # tables: once f is at rounding level a Wolfe step can fail to
        # lower it, and these draws cycled to the 3 g step cap before the
        # fit stopped on a step that does not lower f
        for seed in (15, 18, 64, 78, 224, 238):
            rng = np.random.default_rng(seed)
            points = Grid.uniform(int(rng.integers(1, 30))).points
            k = int(rng.integers(1, points.size))
            rows = cheb_t_table(k, points)[1:]
            weights = 1.0 / np.arange(1, k + 1) ** 2
            atoms = int(rng.integers(1, points.size + 1))
            z = np.zeros(points.size)
            z[rng.choice(points.size, atoms, replace=False)] = rng.dirichlet(np.ones(atoms))
            for basis in (DenseBasis(rows), NufftBasis(points, k)):
                assert fit_simplex(basis, weights, rows @ z).converged


class TestBlockedFactor:
    """fit_simplex keeps E_S W = Q with Q in 32-column blocks that are
    never moved; adding and dropping columns must keep the factor exact
    whichever block the dropped column sits in."""

    def test_factor_invariants_under_adds_and_drops(self):
        rng = np.random.default_rng(7)
        rows = 240
        pool = rng.normal(size=(rows, 200))
        q, cols = _BlockedQ(rows), [0]
        q.append(pool[:, 0] / np.linalg.norm(pool[:, 0]))
        w = np.array([[1.0 / np.linalg.norm(pool[:, 0])]])
        for step in range(1, 200):
            w = _add_column(q, w, pool[:, step])
            cols.append(step)
            if step % 5 == 0:
                # drop from a random position, often in an earlier block
                j = int(rng.integers(len(cols)))
                w = _drop_column(q, w, j)
                del cols[j]
            dense = np.column_stack([view for _, view in q._views()])
            assert q.count == len(cols) == w.shape[0]
            assert len(q.blocks) == -(-q.count // 32)
            assert np.abs(dense.T @ dense - np.eye(q.count)).max() <= 1e-12
            assert np.abs(pool[:, cols] @ w - dense).max() <= 1e-11

    @pytest.mark.parametrize("h,noise,seed", [(64, 0.01, 0), (128, 0.003, 2), (100, 0.002, 3)])
    def test_fits_across_blocks_match_dense(self, h, noise, seed, monkeypatch):
        # DP-shaped noisy targets on uniform grids whose support runs past
        # two blocks and drops columns from blocks before the last
        drops, sizes = [], []
        drop, add = recovery._drop_column, recovery._add_column

        def recording_drop(q, w, j):
            drops.append((j, w.shape[0]))
            return drop(q, w, j)

        def recording_add(q, w, col):
            grown = add(q, w, col)
            sizes.append(w.shape[0] + (grown is not None))
            return grown

        monkeypatch.setattr(recovery, "_drop_column", recording_drop)
        monkeypatch.setattr(recovery, "_add_column", recording_add)
        rng = np.random.default_rng(seed)
        points = Grid.uniform(h).points
        k = 2 * h
        rows = cheb_t_table(k, points)[1:]
        j = np.arange(1, k + 1)
        weights = 1.0 / (j * j)
        target = rows @ rng.dirichlet(np.full(points.size, 0.5)) + rng.normal(0, noise, k) * np.sqrt(j)
        fast = fit_simplex(NufftBasis(points, k), weights, target)
        assert max(sizes) > 2 * 32
        assert any(pos < (s - 1) // 32 * 32 for pos, s in drops)
        dense = fit_simplex(DenseBasis(rows), weights, target)
        assert fast.converged and dense.converged
        assert abs(fast.objective - dense.objective) <= 1e-12 * dense.objective
        assert frank_wolfe_gap(rows, weights, target, fast.weights) <= 1e-11

    def test_drop_reflects_blocks_in_place(self):
        rng = np.random.default_rng(11)
        rows = 50
        pool = rng.normal(size=(rows, 45))
        q = _BlockedQ(rows)
        q.append(pool[:, 0] / np.linalg.norm(pool[:, 0]))
        w = np.array([[1.0 / np.linalg.norm(pool[:, 0])]])
        for step in range(1, 45):
            w = _add_column(q, w, pool[:, step])
        buffers = [block.ctypes.data for block in q.blocks]
        w = _drop_column(q, w, 3)
        assert [block.ctypes.data for block in q.blocks] == buffers
        dense = np.column_stack([view for _, view in q._views()])
        cols = [c for c in range(45) if c != 3]
        assert np.abs(pool[:, cols] @ w - dense).max() <= 1e-12
        assert np.abs(dense.T @ dense - np.eye(44)).max() <= 1e-12

    @pytest.mark.parametrize("fast", [False, True], ids=["dense", "nufft"])
    def test_carried_residual_matches_full_product(self, fast, monkeypatch):
        # Q W^T 1 is carried across steps that drop nothing; after every
        # step it must match the full product, on noisy DP-shaped fits that
        # both add and drop columns
        steps = []
        carry = recovery._step_residual

        def checking(q, v, lift_sum, dropped, rounding):
            out, bound = carry(q, v, lift_sum, dropped, rounding)
            full = q.dot(lift_sum)
            steps.append((dropped, bound > 0.0, np.max(np.abs(out - full)) / np.max(np.abs(full))))
            return out, bound

        monkeypatch.setattr(recovery, "_step_residual", checking)
        for seed, h in ((0, 64), (1, 40), (2, 100)):
            rng = np.random.default_rng(seed)
            points = Grid.uniform(h).points
            k = 2 * h
            rows = cheb_t_table(k, points)[1:]
            j = np.arange(1, k + 1)
            weights = 1.0 / (j * j)
            target = rows @ rng.dirichlet(np.full(points.size, 0.5)) + rng.normal(0, 0.01, k) * np.sqrt(j)
            basis = NufftBasis(points, k) if fast else DenseBasis(rows)
            assert fit_simplex(basis, weights, target).converged
        assert any(dropped for dropped, _, _ in steps)
        assert sum(carried for _, carried, _ in steps) > len(steps) // 2
        assert max(err for _, _, err in steps) <= 1e-12

    @pytest.mark.parametrize("seed", [7, 26, 33, 45, 70, 93, 110, 144])
    def test_carried_residual_keeps_the_full_product_path(self, seed, monkeypatch):
        # noise-free targets, whose residual cancels to rounding level (on
        # these draws a residual carried to the end, with no guard, changed
        # the step count or the answer's bits), and the same targets with
        # noise, where v is carried to the end: the fit must match the one
        # that takes the full product every step (_CARRY_LIMIT = 0), the
        # returned objective to the bit
        rng = np.random.default_rng(seed)
        points = Grid.uniform(int(rng.integers(2, 60))).points
        k = int(rng.integers(1, points.size))
        rows = cheb_t_table(k, points)[1:]
        weights = 1.0 / np.arange(1, k + 1) ** 2
        atoms = int(rng.integers(1, points.size + 1))
        z = np.zeros(points.size)
        z[rng.choice(points.size, atoms, replace=False)] = rng.dirichlet(np.ones(atoms))
        noisy = rows @ z + rng.normal(0, 0.01, k) * np.sqrt(np.arange(1, k + 1))
        for basis in (DenseBasis(rows), NufftBasis(points, k)):
            for target in (rows @ z, noisy):
                carried = fit_simplex(basis, weights, target)
                monkeypatch.setattr(recovery, "_CARRY_LIMIT", 0.0)
                full = fit_simplex(basis, weights, target)
                monkeypatch.undo()
                assert carried.iterations == full.iterations
                assert carried.objective == full.objective
                assert carried.weights.tobytes() == full.weights.tobytes()

    def test_large_fit_memory_is_bounded(self):
        # k = 8192, 289 support columns: the blocked factor holds about
        # 21 MB; a factor that doubles its buffer peaked above 50 MB here
        n = 8192
        data = sample_generator("powerlaw", n, 0)
        tracemalloc.start()
        try:
            result = dp_synthesize(data, PrivacyBudget(0.5, 1.0 / n**2), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.report.converged
        assert peak < 32 * 2**20


class TestDpFitIterates:
    """The exact fit's steps on DP releases, pinned: sample_generator data
    from seed 0, noise seed 0, epsilon = 0.5, delta = 1/n^2. A change to
    how a step is computed must not change the path the fit takes."""

    @pytest.mark.parametrize(
        "gen,n,iterations,objective",
        [
            ("gaussian", 2048, 95, 0.004341043711085018),
            ("sine", 2048, 98, 0.004515657338331654),
            ("powerlaw", 2048, 84, 0.005851710483776578),
            ("sine", 8192, 369, 0.0003826681176916459),
        ],
    )
    def test_iterations_and_objective(self, gen, n, iterations, objective):
        result = dp_synthesize(sample_generator(gen, n, 0), PrivacyBudget(0.5, 1.0 / n**2), 0)
        assert result.report.converged
        assert result.report.iterations == iterations
        assert abs(result.report.objective - objective) <= 1e-12 * objective


class TestWeightedQp:
    def test_point_mass_at_grid_node(self):
        grid = Grid.chebyshev(default_grid_size(4))
        node_index = 2
        node = grid.points[node_index]
        moments = cheb_moments(DiscreteDistribution.point_mass(node), 4)
        solution = solve_weighted_qp(moments, NufftBasis(grid.points, 4))
        assert solution.objective <= 1e-12
        assert solution.weights[node_index] >= 1 - 1e-6

    def test_zero_moments_single_node(self):
        moments = MomentVector(np.zeros(1))
        solution = solve_weighted_qp(moments, NufftBasis(Grid.chebyshev(default_grid_size(1)).points, 1))
        assert solution.objective <= 1e-12

    def test_zero_moments_symmetric_grid(self):
        solution = solve_weighted_qp(MomentVector(np.zeros(1)), NufftBasis(Grid.chebyshev(8).points, 1))
        assert solution.objective <= 1e-12

    def test_exact_moments_of_grid_supported(self):
        rng = np.random.default_rng(11)
        grid = Grid.chebyshev(default_grid_size(8))
        picks = rng.choice(grid.size, size=3, replace=False)
        weights = rng.dirichlet(np.ones(3))
        p = DiscreteDistribution(grid.points[picks], weights)
        solution = solve_weighted_qp(cheb_moments(p, 8), NufftBasis(grid.points, 8))
        assert solution.objective <= 1e-10

    def test_trace_monotone(self):
        rng = np.random.default_rng(5)
        moments = cheb_moments(random_distribution(rng, 5), 12)
        noisy = MomentVector(moments.values + rng.normal(0, 0.02, 12))
        solution = solve_weighted_qp(noisy, NufftBasis(Grid.chebyshev(default_grid_size(12)).points, 12))
        assert solution.trace.size == solution.iterations + 1
        assert np.all(np.diff(solution.trace) <= 1e-15)


def shaped_noise(shape, k, gamma, rng):
    """Moment noise eta with Gamma(eta) = sqrt(sum_j eta_j^2 / j^2) = gamma:
    eta_j proportional to j N(0, 1), noise on j <= 3 only, j N(0, 1) on the
    top quarter of the degrees only, or +-j."""
    j = np.arange(1, k + 1)
    if shape == "proportional":
        raw = j * rng.standard_normal(k)
    elif shape == "low":
        raw = np.where(j <= 3, rng.standard_normal(k), 0.0)
    elif shape == "high":
        raw = np.where(j > k - k // 4, j * rng.standard_normal(k), 0.0)
    else:
        raw = j * rng.choice([-1.0, 1.0], k)
    return raw * (gamma / math.sqrt(np.sum((raw / j) ** 2)))


class TestRecoverDistribution:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 32),
        st.integers(1, 5),
        st.sampled_from(["proportional", "low", "high", "sign"]),
        st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    )
    def test_noisy_recovery_theorem(self, seed, k, atoms, shape, gamma):
        # W1(p, q) <= 36/k + Gamma(p, q), and Gamma(p, q) <= 2 Gamma(eta) +
        # Gamma(p, p_g) for the fit q of m + eta over the grid: the fit's
        # objective is at most that of p_g, p rounded to the nearest grid
        # node, whose moment error is this test's rounding allowance
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, atoms)
        exact = cheb_moments(p, k)
        eta = shaped_noise(shape, k, gamma, rng)
        result = recover_distribution(MomentVector(exact.values + eta))
        nodes = Grid.chebyshev(default_grid_size(k)).points
        nearest = np.argmin(np.abs(p.support[:, None] - nodes[None, :]), axis=1)
        p_g = DiscreteDistribution(nodes[nearest], p.weights)
        rounding = moment_error_gamma(exact, cheb_moments(p_g, k)).gamma
        bound = 36.0 / k + 2.0 * gamma + rounding
        assert w1_distance(p, result.distribution) <= bound + 1e-9

    def test_mass_lands_near_top_node(self):
        result = recover_distribution(MomentVector(np.array([1.0])), grid=Grid.chebyshev(8))
        top = result.distribution.support[np.argmax(result.distribution.weights)]
        assert top == pytest.approx(math.cos(math.pi / 16))
        assert result.distribution.weights.max() >= 1 - 1e-6

    def test_three_point_distribution_bound(self):
        # proven chain: 36/k plus the sqrt(2 pi k)/g node-rounding term
        rng = np.random.default_rng(2)
        p = random_distribution(rng, 3)
        k = 16
        result = recover_distribution(cheb_moments(p, k))
        bound = (36 + math.sqrt(2 * math.pi)) / k + 1e-6
        assert w1_distance(p, result.distribution) <= bound

    @pytest.mark.parametrize("k", [8, 16])
    def test_exact_recovery_rate(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            p = random_distribution(rng, 5)
            result = recover_distribution(cheb_moments(p, k))
            assert w1_distance(p, result.distribution) <= 40.0 / k

    def test_posterior_gamma_triangle_chain(self):
        rng = np.random.default_rng(9)
        p = random_distribution(rng, 5)
        k = 12
        exact = cheb_moments(p, k)
        noisy = MomentVector(exact.values + rng.normal(0, 0.01, k))
        result = recover_distribution(noisy)
        input_error = moment_error_gamma(noisy, exact).gamma
        achieved = cheb_moments(result.distribution, k)
        output_error = moment_error_gamma(achieved, exact).gamma
        assert output_error <= 2 * input_error + 1e-6

    def test_noisy_moment_rate(self):
        rng = np.random.default_rng(21)
        k = 16
        for _ in range(5):
            p = random_distribution(rng, 4)
            exact = cheb_moments(p, k)
            scale = rng.uniform(0.005, 0.05)
            j = np.arange(1, k + 1)
            noise = rng.normal(0, scale, k) * np.sqrt(j)
            noisy = MomentVector(exact.values + noise)
            gamma = moment_error_gamma(noisy, exact).gamma
            result = recover_distribution(noisy)
            assert w1_distance(p, result.distribution) <= 40.0 * (1.0 / k + gamma)

    def test_report_fields(self):
        p = DiscreteDistribution.point_mass(0.2)
        result = recover_distribution(cheb_moments(p, 8))
        assert result.k == 8
        assert result.g == default_grid_size(8)
        assert result.w1_bound == pytest.approx(36.0 / 8 + result.gamma)
        assert result.converged


class TestMomentLp:
    def test_huge_tolerance_is_feasible(self):
        moments = MomentVector(np.array([0.3, -0.1]))
        solution = solve_moment_lp(moments, np.full(2, 1e6))
        assert solution.feasible
        assert solution.max_violation == 0.0
        assert np.all(solution.weights >= 0.0)
        assert solution.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_supported_target(self):
        grid = Grid.chebyshev(lp_grid_size(6))
        rng = np.random.default_rng(4)
        picks = rng.choice(grid.size, size=4, replace=False)
        p = DiscreteDistribution(grid.points[picks], rng.dirichlet(np.ones(4)))
        moments = cheb_moments(p, 6)
        solution = solve_moment_lp(moments, np.full(6, 1e-6), grid)
        assert solution.feasible
        assert solution.max_violation <= 1e-9

    @pytest.mark.parametrize("k", [6, 12, 24])
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_tight_boxes_on_grid_supported_targets(self, k, tol):
        grid = Grid.chebyshev(lp_grid_size(k))
        rng = np.random.default_rng(40 + k)
        picks = rng.choice(grid.size, size=4, replace=False)
        p = DiscreteDistribution(grid.points[picks], rng.dirichlet(np.ones(4)))
        moments = cheb_moments(p, k)
        solution = solve_moment_lp(moments, np.full(k, tol), grid)
        assert solution.feasible
        # certificate recomputed from the Chebyshev table, not the fit's map
        achieved = cheb_t_table(k, grid.points)[1:] @ solution.weights
        assert np.all(np.abs(achieved - moments.values) <= tol + 1e-9)

    def test_infeasible_flagged(self):
        # no distribution has first moment 1 and second moment -1
        moments = MomentVector(np.array([1.0, -1.0]))
        solution = solve_moment_lp(moments, np.full(2, 1e-4), Grid.chebyshev(8))
        assert not solution.feasible
        assert solution.max_violation > 1e-9

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            solve_moment_lp(MomentVector(np.array([0.0])), np.array([0.0]))

    def test_rejects_nan_tolerance_and_allows_an_infinite_one(self):
        moments = MomentVector(np.array([0.3, -0.1]))
        with pytest.raises(ValueError, match="tolerances must be positive"):
            solve_moment_lp(moments, np.array([np.nan, 1e-3]))
        # an infinite tolerance is a box with no bound
        assert solve_moment_lp(moments, np.array([np.inf, 1e-3])).feasible


class TestConfig:
    def test_default_grid_size(self):
        assert default_grid_size(16) == math.ceil(16**1.5)

    def test_grid_must_cover_degree(self):
        moments = cheb_moments(DiscreteDistribution.point_mass(0.2), 8)
        small = Grid.chebyshev(4)
        with pytest.raises(ValueError, match="at least k"):
            recover_distribution(moments, grid=small)
        with pytest.raises(ValueError, match="at least k"):
            solve_moment_lp(moments, np.full(8, 1e-3), small)
        with pytest.raises(ValueError, match="at least k"):
            solve_weighted_qp(moments, NufftBasis(small.points, 8))

    def test_lp_grid_size_formula(self):
        assert lp_grid_size(16) == math.ceil(16**1.5 * math.sqrt(1 + math.log(16)))
