import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MultiIndex, cheb_t_multi, cheb_u

from momentforge.chebyshev import (
    cheb_interpolation_coeffs,
    cheb_series_eval,
    cheb_t,
    cheb_t_table,
    chebyshev_nodes,
    coefficient_decay_functional,
    jackson_damped_coeffs,
    jackson_damping,
    jackson_kernel_coeffs,
)


def brute_force_kernel_coeff(m, k1):
    # direct evaluation of the defining sum, independent of the
    # autocorrelation shortcut used by the implementation
    return sum((m - abs(t)) * (m - abs(t + k1)) for t in range(-m, m - k1 + 1))


class TestFirstKind:
    def test_degree_zero_is_one(self):
        assert cheb_t(0, 0.3) == 1.0

    def test_degree_two_by_hand(self):
        # 2 * 0.25 - 1
        assert cheb_t(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_trig_identity_spot(self):
        x = math.cos(math.pi / 4)
        assert cheb_t(5, x) == pytest.approx(math.cos(5 * math.pi / 4), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 500), st.floats(-1.0, 1.0))
    def test_trig_identity_random(self, j, x):
        assert abs(cheb_t(j, x) - math.cos(j * math.acos(x))) <= 1e-9

    def test_trig_identity_many_degrees(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1, 1, 1000)
        for j in (1, 17, 123, 350, 500):
            direct = np.cos(j * np.arccos(xs))
            assert np.max(np.abs(cheb_t(j, xs) - direct)) <= 1e-9

    def test_boundedness(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.uniform(-1, 1, 500), [-1.0, 1.0]])
        for j in (0, 1, 5, 33, 200):
            assert np.max(np.abs(cheb_t(j, xs))) <= 1.0 + 1e-12

    def test_domain_clamp_and_error(self):
        assert cheb_t(3, 1.0 + 5e-13) == pytest.approx(cheb_t(3, 1.0))
        with pytest.raises(ValueError):
            cheb_t(3, 1.0 + 1e-9)

    def test_table_matches_scalar(self):
        xs = np.array([-0.9, 0.1, 0.77])
        table = cheb_t_table(6, xs)
        for j in range(7):
            assert np.allclose(table[j], [cheb_t(j, x) for x in xs], atol=1e-14)


class TestSecondKind:
    def test_degree_zero(self):
        assert cheb_u(0, 0.9) == 1.0

    def test_degree_one(self):
        assert cheb_u(1, 0.25) == pytest.approx(0.5)

    def test_degree_two_by_hand(self):
        # 4 x^2 - 1 at x = 0.5
        assert cheb_u(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_derivative_identity(self):
        # T_j'(x) = j U_{j-1}(x), checked by central differences
        h = 1e-6
        rng = np.random.default_rng(3)
        for j in (1, 2, 5, 12):
            for x in rng.uniform(-0.9, 0.9, 20):
                fd = (cheb_t(j, x + h) - cheb_t(j, x - h)) / (2 * h)
                assert fd == pytest.approx(j * cheb_u(j - 1, x), abs=1e-5)


class TestNodes:
    def test_single_node(self):
        nodes = chebyshev_nodes(1)
        assert nodes.shape == (1,)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_nodes(self):
        assert chebyshev_nodes(2) == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)])

    def test_four_nodes_direct_cosines(self):
        expected = [math.cos((2 * i - 1) * math.pi / 8) for i in (1, 2, 3, 4)]
        assert chebyshev_nodes(4) == pytest.approx(expected)

    def test_all_interior_descending(self):
        nodes = chebyshev_nodes(33)
        assert np.all(np.diff(nodes) < 0)
        assert np.all(np.abs(nodes) < 1)


class TestOrthogonality:
    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (4, 4), (0, 1), (2, 5), (3, 7), (6, 6)])
    def test_quadrature(self, i, j):
        n = 2 * max(i, j) + 8
        theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
        nodes = np.cos(theta)
        quad = np.pi / n * np.sum(cheb_t(i, nodes) * cheb_t(j, nodes))
        if i != j:
            assert abs(quad) <= 1e-9
        elif i == 0:
            assert quad == pytest.approx(np.pi, abs=1e-9)
        else:
            assert quad == pytest.approx(np.pi / 2, abs=1e-9)


class TestKernel:
    def test_m_one(self):
        assert jackson_kernel_coeffs(1) == (1,)

    def test_m_two_by_hand(self):
        assert jackson_kernel_coeffs(2) == (6, 4, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12])
    def test_matches_defining_sum(self, m):
        got = jackson_kernel_coeffs(m)
        assert len(got) == 2 * m - 1
        for k1, value in enumerate(got):
            assert value == brute_force_kernel_coeff(m, k1)

    def test_m_three_shape(self):
        coeffs = jackson_kernel_coeffs(3)
        assert len(coeffs) == 5
        assert all(v > 0 for v in coeffs)
        assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))


class TestDamping:
    def test_k_one(self):
        damping = jackson_damping(1)
        assert damping.damping == pytest.approx([1.0, 4.0 / 6.0])

    def test_k_two(self):
        damping = jackson_damping(2)
        assert damping.damping == pytest.approx([1.0, 4.0 / 6.0, 1.0 / 6.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 33, 64])
    def test_leading_entry_and_monotone(self, k):
        damping = jackson_damping(k)
        assert damping.damping[0] == 1.0
        # exact monotonicity on the integer kernel values
        kernel = damping.kernel_coeffs
        assert all(a >= b for a, b in zip(kernel, kernel[1:]))
        assert all(v >= 0 for v in kernel)
        assert np.all(np.diff(damping.damping) <= 0)
        assert damping.damping[-1] >= 0
        # kernel degree covers the truncation degree
        assert 2 * damping.m - 2 >= k


class TestInterpolation:
    def test_constant(self):
        coeffs = cheb_interpolation_coeffs(lambda x: np.ones_like(x), 4)
        assert coeffs.values == pytest.approx([1, 0, 0, 0, 0], abs=1e-14)

    def test_identity(self):
        coeffs = cheb_interpolation_coeffs(lambda x: x, 4)
        assert coeffs.values == pytest.approx([0, 1, 0, 0, 0], abs=1e-14)

    def test_degree_two_polynomial(self):
        coeffs = cheb_interpolation_coeffs(lambda x: 2 * x**2 - 1, 4)
        assert coeffs.values == pytest.approx([0, 0, 1, 0, 0], abs=1e-14)

    def test_series_eval_round_trip(self):
        f = lambda x: np.sin(2.0 * x) + 0.3 * x**3
        coeffs = cheb_interpolation_coeffs(f, 40)
        xs = np.linspace(-1, 1, 101)
        assert np.max(np.abs(cheb_series_eval(coeffs.values, xs) - f(xs))) < 1e-12

    def test_rejects_nonfinite(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                cheb_interpolation_coeffs(lambda x: 1.0 / (x - x), 3)


class TestDecayFunctional:
    def test_identity_map_hits_half_pi(self):
        coeffs = cheb_interpolation_coeffs(lambda x: x, 64)
        assert coefficient_decay_functional(coeffs) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_constant_is_zero(self):
        coeffs = cheb_interpolation_coeffs(lambda x: 0.7 * np.ones_like(x), 16)
        assert coefficient_decay_functional(coeffs) == pytest.approx(0.0, abs=1e-20)

    def test_kink_stays_under_limit(self):
        coeffs = cheb_interpolation_coeffs(lambda x: np.abs(x - 0.3), 200)
        assert coefficient_decay_functional(coeffs) <= math.pi / 2 + 1e-3

    def test_smooth_lipschitz_families(self):
        functions = [
            lambda x: np.sin(x),
            lambda x: 0.5 * x**2,
            lambda x: np.tanh(2 * x) / 2,
            lambda x: np.sin(np.pi * x) / np.pi,
            lambda x: 0.5 * np.cos(2 * x),
        ]
        for fn in functions:
            coeffs = cheb_interpolation_coeffs(fn, 128)
            assert coefficient_decay_functional(coeffs) <= math.pi / 2 + 1e-3


class TestDampedSeries:
    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_uniform_error_bound(self, k):
        grid = np.linspace(-1, 1, 10_000)
        for fn in (np.abs, lambda x: np.abs(x - 0.3), lambda x: np.maximum(x, 0.0)):
            damped = jackson_damped_coeffs(fn, k)
            err = np.max(np.abs(fn(grid) - cheb_series_eval(damped.values, grid)))
            assert err <= 18.0 / k


class TestMultiIndex:
    def test_norm_is_exact_integer_sum(self):
        K = MultiIndex((3, 4))
        assert K.norm2_sq == 25
        assert K.norm2 == 5.0
        assert K.nnz == 2

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            MultiIndex((1, 2, 3, 4))
        with pytest.raises(ValueError):
            MultiIndex((-1, 2))

    def test_product_evaluation(self):
        assert cheb_t_multi((0, 0), (0.2, 0.9)) == 1.0
        assert cheb_t_multi((1, 1), (0.5, 0.5)) == pytest.approx(0.25)
        # componentwise: T_2(0.5) = -0.5, T_1(-0.5) = -0.5
        assert cheb_t_multi((2, 1), (0.5, -0.5)) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cheb_t_multi((1, 2), (0.5,))
