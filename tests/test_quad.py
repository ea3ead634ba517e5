"""Quadrature layer: Gauss-Legendre exactness, endpoint grading, refinement."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracsde.quad import (
    QuadratureDiverged,
    QuadratureOverflow,
    gauss_legendre_01,
    graded_nodes,
    integrate_graded,
    integrate_graded_rows,
    refine_rows,
)


class TestGaussLegendre01:
    def test_weights_sum_to_one(self):
        for n in (1, 2, 8, 33):
            x, w = gauss_legendre_01(n)
            assert x.shape == w.shape == (n,)
            assert abs(w.sum() - 1.0) < 1e-14
            assert np.all((x > 0.0) & (x < 1.0))

    @given(st.integers(min_value=1, max_value=12))
    def test_polynomial_exactness(self, n):
        # degree 2n-1 is integrated exactly
        x, w = gauss_legendre_01(n)
        for k in range(2 * n):
            exact = 1.0 / (k + 1)
            assert abs(np.dot(w, x**k) - exact) < 1e-13

    @pytest.mark.parametrize("n", [8, 64, 384])
    def test_exact_through_degree_two_n_minus_one(self, n):
        x, w = gauss_legendre_01(n)
        for k in range(2 * n):
            assert abs(np.dot(w, x**k) * (k + 1) - 1.0) < 1e-13, k

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 192, 384])
    def test_matches_scipy_roots_legendre(self, n):
        # scipy's own weights are off by up to 4e-10 relative at n = 384
        from scipy.special import roots_legendre

        x, w = gauss_legendre_01(n)
        x_ref, w_ref = roots_legendre(n)
        assert np.max(np.abs(x - (x_ref + 1.0) / 2.0)) < 1e-15
        assert np.max(np.abs(w - w_ref / 2.0) / (w_ref / 2.0)) < 1e-9

    def test_holds_at_the_node_ceiling(self):
        # Newton on the recurrence is O(n^2) work and O(n) memory; a dense
        # eigenvalue route would hold a 512 MB matrix at the ceiling
        x, w = gauss_legendre_01(8192)
        assert np.all(np.diff(x) > 0.0) and abs(w.sum() - 1.0) < 1e-13
        assert abs(np.dot(w, x**3) - 0.25) < 1e-13

    def test_cache_returns_same_arrays(self):
        a = gauss_legendre_01(16)
        b = gauss_legendre_01(16)
        assert a[0] is b[0]


class TestGradedNodes:
    def test_plain_interval_integrates_smooth(self):
        x, w = graded_nodes(0.0, 2.0, 32)
        assert abs(np.dot(w, np.cos(x)) - math.sin(2.0)) < 1e-12

    def test_left_singularity_inverse_sqrt(self):
        # int_0^1 x^{-1/2} dx = 2; grading with e_a=-1/2 renders it exact
        x, w = graded_nodes(0.0, 1.0, 24, e_a=-0.5)
        assert abs(np.dot(w, x**-0.5) - 2.0) < 1e-10

    def test_right_singularity_inverse_sqrt(self):
        x, w = graded_nodes(0.0, 1.0, 24, e_b=-0.5)
        assert abs(np.dot(w, (1.0 - x) ** -0.5) - 2.0) < 1e-10

    def test_shifted_interval_left_singularity(self):
        # int_1^2 (x-1)^{-1/2} dx = 2, endpoint away from zero
        x, w = graded_nodes(1.0, 2.0, 48, e_a=-0.5)
        assert abs(np.dot(w, (x - 1.0) ** -0.5) - 2.0) < 1e-7

    def test_positive_exponent_grading(self):
        # int_0^1 x^{3/2} dx = 2/5; grading for a non-smooth positive power
        x, w = graded_nodes(0.0, 1.0, 24, e_a=1.5)
        assert abs(np.dot(w, x**1.5) - 0.4) < 1e-12

    def test_both_endpoints(self):
        # Beta(1/2, 1/2) = pi
        x, w = graded_nodes(0.0, 1.0, 32, e_a=-0.5, e_b=-0.5)
        val = np.dot(w, x**-0.5 * (1.0 - x) ** -0.5)
        assert abs(val - math.pi) < 1e-9

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            graded_nodes(1.0, 1.0, 8)
        with pytest.raises(ValueError):
            graded_nodes(2.0, 1.0, 8)

    def test_scale_past_the_double_range_is_an_overflow(self):
        # b^{1+e} overflows for the second row; the first row is unaffected
        f = lambda rows, v: np.ones_like(v)
        with pytest.raises(QuadratureOverflow):
            integrate_graded_rows(f, np.array([2.0, 1e300]), 0.5)
        assert integrate_graded_rows(f, np.array([2.0]), 0.5)[0] == pytest.approx(
            2.0**1.5 / 1.5, rel=1e-12)

    def test_non_integrable_exponent_rejected(self):
        with pytest.raises(ValueError):
            graded_nodes(0.0, 1.0, 8, e_a=-1.0)

    # e_b range is narrower than e_a: the singular endpoint sits at x=1, where
    # the rounding-floor cap on the grading power limits how strong a
    # singularity double precision can resolve (see _half_nodes)
    @given(
        st.floats(min_value=-0.9, max_value=0.0),
        st.floats(min_value=-0.5, max_value=0.0),
    )
    def test_power_integrals_match_beta(self, e_a, e_b):
        x, w = graded_nodes(0.0, 1.0, 48, e_a=e_a, e_b=e_b)
        val = np.dot(w, x**e_a * (1.0 - x) ** e_b)
        exact = math.gamma(1 + e_a) * math.gamma(1 + e_b) / math.gamma(2 + e_a + e_b)
        assert abs(val - exact) < 1e-6 * max(1.0, exact)


class TestIntegrateGraded:
    def test_smooth_refinement(self):
        val = integrate_graded(np.exp, 0.0, 1.0, n0=8, tol=1e-12)
        assert abs(val - (math.e - 1.0)) < 1e-11

    def test_singular_with_matching_grade(self):
        val = integrate_graded(lambda x: x**-0.75, 0.0, 1.0, e_a=-0.75, tol=1e-10)
        assert abs(val - 4.0) < 1e-8

    def test_mismatched_grade_still_converges_with_refinement(self):
        # x^{-1/4} under no grading: slow but within the doubling budget
        val = integrate_graded(lambda x: x**-0.25, 0.0, 1.0, tol=1e-6, max_doublings=12)
        assert abs(val - 4.0 / 3.0) < 1e-4

    def test_divergent_integrand_raises(self):
        # 1/x is not integrable on (0,1): successive refinements keep growing
        with pytest.raises(QuadratureDiverged):
            integrate_graded(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-9, max_doublings=6)

    def test_strong_shifted_singularity_raises_not_hangs(self):
        # at a nonzero endpoint the grading power is capped by the rounding
        # floor, so (2-x)^{-0.85} cannot stabilise to 1e-9; the node ceiling
        # turns that into a prompt exception
        with pytest.raises(QuadratureDiverged):
            integrate_graded(lambda x: (2.0 - x) ** -0.85, 1.0, 2.0, e_b=-0.85, tol=1e-9)

    def test_non_finite_value_raises(self):
        def blows_up(x):
            out = np.ones_like(x)
            out[x < 1e-3] = np.inf
            return out

        with pytest.raises(QuadratureOverflow):
            integrate_graded(blows_up, 0.0, 1.0, e_a=-0.5, tol=1e-9)


class TestRefineRows:
    # value 1 + c/n: the values at n/2 and n differ by c/n, so row k
    # retires at the first doubled n with c_k / n <= tol
    c = np.array([0.0, 1.0, 0.1])

    def test_rows_retire_on_their_own(self):
        seen = []

        def value(rows, n):
            seen.append((rows.tolist(), n))
            return 1.0 + self.c[rows] / n

        # results follow the order of the rows passed, not their values
        out = refine_rows(value, np.array([2, 1, 0]), 4, 9, 1e-3)
        np.testing.assert_array_equal(out, [1.0 + 0.1 / 128, 1.0 + 1.0 / 1024, 1.0])
        assert seen[:3] == [([2, 1, 0], 4), ([2, 1, 0], 8), ([2, 1], 16)]
        assert seen[-1] == ([1], 1024)

    def test_doubling_limit_raises_naming_a_row(self):
        value = lambda rows, n: 1.0 + self.c[rows] / n
        # the slow row sits at position 2 and is named by its row number
        with pytest.raises(QuadratureDiverged, match="1 rows .* row 1"):
            refine_rows(value, np.array([0, 2, 1]), 4, 6, 1e-3)

    def test_non_finite_value_raises(self):
        value = lambda rows, n: np.where(rows == 2, np.inf, 1.0)
        with pytest.raises(QuadratureOverflow, match="non-finite"):
            refine_rows(value, np.arange(3), 4, 9, 1e-3)


class TestIntegrateGradedRows:
    def test_incomplete_gamma_closed_form(self):
        # int_0^b v^e exp(-v) dv = Gamma(1+e) P(1+e, b), singular for e < 0
        from scipy.special import gamma, gammainc

        b = np.array([0.1, 1.0, 3.0])
        for e in (-0.9, -0.5, 0.0, 0.3):
            val = integrate_graded_rows(lambda rows, v: np.exp(-v), b, e, tol=1e-12)
            ref = gamma(1.0 + e) * gammainc(1.0 + e, b)
            np.testing.assert_allclose(val, ref, rtol=1e-12, err_msg=str(e))

    def test_row_bits_do_not_depend_on_the_batch(self):
        # a per-row parameter, rows that retire at different doublings
        rng = np.random.default_rng(3)
        b = rng.uniform(0.01, 5.0, 37)
        k = rng.uniform(0.1, 20.0, 37)
        f = lambda rows, v: np.cos(k[rows, None] * v) / (1.0 + v)
        full = integrate_graded_rows(f, b, -0.4)
        for i in range(len(b)):
            g = lambda rows, v, i=i: np.cos(k[i] * v) / (1.0 + v)
            assert integrate_graded_rows(g, b[i:i + 1], -0.4)[0] == full[i], i

    def test_divergent_row_raises(self):
        # v^{-1} is not integrable at 0; the finite row cannot rescue it
        f = lambda rows, v: np.where(rows[:, None] == 1, 1.0 / v, 1.0)
        with pytest.raises(QuadratureDiverged):
            integrate_graded_rows(f, np.array([1.0, 1.0]), 0.0)

    def test_scale_past_the_double_range_is_an_overflow(self):
        # b^{1+e} overflows for the second row; the first row is unaffected
        f = lambda rows, v: np.ones_like(v)
        with pytest.raises(QuadratureOverflow):
            integrate_graded_rows(f, np.array([2.0, 1e300]), 0.5)
        assert integrate_graded_rows(f, np.array([2.0]), 0.5)[0] == pytest.approx(
            2.0**1.5 / 1.5, rel=1e-12)

    def test_non_integrable_exponent_rejected(self):
        with pytest.raises(ValueError):
            integrate_graded_rows(lambda rows, v: v, np.array([1.0]), -1.0)
