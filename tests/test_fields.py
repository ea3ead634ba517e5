"""Gaussian field layer: covariances, Cholesky sampling, and the kernel-driven
route that the tests keep as an oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracsde.fields import (
    CovarianceFactor,
    NotPositiveDefinite,
    _cholesky_guarded,
    cov_fbm,
    factor_covariance,
    fbm_covariance,
    sample_fbm_batch,
    sample_sheet_batch,
)
from fracsde.model import RngStreamSpec, build_grid, build_grid2d
from oracles import (
    _projection_matrix,
    increment_transfer_matrix,
    sample_fbm_volterra,
    sample_sheet_volterra,
    volterra_projection_matrix,
)


class TestCovariance:
    def test_known_value(self):
        # (1 + 2^{3/2} - 1)/2 = sqrt(2)
        assert abs(cov_fbm(0.75, 1.0, 2.0) - math.sqrt(2.0)) < 1e-12

    def test_brownian_case_is_min(self):
        assert cov_fbm(0.5, 0.3, 0.8) == pytest.approx(0.3, abs=1e-15)
        assert cov_fbm(0.5, 1.7, 0.2) == pytest.approx(0.2, abs=1e-15)

    def test_variance_on_diagonal(self):
        for alpha in (0.25, 0.5, 0.9):
            assert cov_fbm(alpha, 2.0, 2.0) == pytest.approx(2.0 ** (2 * alpha), rel=1e-13)

    def test_symmetry_and_broadcast(self):
        s = np.array([0.5, 1.0, 1.5])
        m = cov_fbm(0.3, s[:, None], s[None, :])
        assert m.shape == (3, 3)
        np.testing.assert_allclose(m, m.T, rtol=0, atol=0)

    # c is a power of two, so c*s, c*u and c*s - c*u are exact: with rounded
    # products, c*s - c*u can differ from c*(s - u) by an ulp, and |s-u|^{2a}
    # turns that ulp into ~1e-5 near the diagonal.
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.integers(min_value=-3, max_value=1).map(lambda k: 2.0**k),
    )
    def test_scaling_homogeneity(self, alpha, s, u, c):
        lhs = cov_fbm(alpha, c * s, c * u)
        rhs = c ** (2 * alpha) * cov_fbm(alpha, s, u)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_validation(self):
        with pytest.raises(ValueError):
            cov_fbm(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cov_fbm(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cov_fbm(0.5, -1.0, 1.0)

    def test_matrix_matches_pairwise(self):
        t = np.array([0.25, 0.5, 1.0])
        R = fbm_covariance(0.4, t)
        for i in range(3):
            for j in range(3):
                assert R[i, j] == pytest.approx(cov_fbm(0.4, t[i], t[j]))


class TestCholeskyFactor:
    def test_single_point_grid(self):
        f = factor_covariance(0.35, build_grid(1, 1.0))
        assert f.lower_triangular.shape == (1, 1)
        assert f.lower_triangular[0, 0] == pytest.approx(1.0)  # R(1,1) = 1

    def test_two_point_hand_factor_brownian(self):
        # R = [[.5,.5],[.5,1]]; L = [[sqrt(.5),0],[sqrt(.5),sqrt(.5)]]
        f = factor_covariance(0.5, build_grid(2, 1.0))
        r = math.sqrt(0.5)
        np.testing.assert_allclose(f.lower_triangular, [[r, 0.0], [r, r]], atol=1e-12)

    def test_factor_reproduces_covariance(self):
        for alpha in (0.3, 0.7):
            g = build_grid(16, 2.0)
            L = factor_covariance(alpha, g).lower_triangular
            np.testing.assert_allclose(
                L @ L.T, fbm_covariance(alpha, g.points[1:]), atol=1e-10
            )

    def test_degenerate_grid_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            _cholesky_guarded(0.5, np.array([1.0, 1.0]))


class TestPathSampling:
    def test_field_structure(self):
        values, z = sample_fbm_batch(
            factor_covariance(0.3, build_grid(8, 1.0)), 1, RngStreamSpec(7)
        )
        assert values[0, 0] == 0.0
        assert values.shape == (1, 9)
        assert z.shape == (1, 8)

    def test_values_are_factor_times_noise(self):
        fac = factor_covariance(0.6, build_grid(8, 1.0))
        (values,), (z,) = sample_fbm_batch(fac, 1, RngStreamSpec(11))
        np.testing.assert_allclose(values[1:], fac.lower_triangular @ z, atol=1e-14)

    def test_determinism(self):
        fac = factor_covariance(0.3, build_grid(8, 1.0))
        a = sample_fbm_batch(fac, 1, RngStreamSpec(42))
        b = sample_fbm_batch(fac, 1, RngStreamSpec(42))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_batch_validation(self):
        fac = factor_covariance(0.3, build_grid(4, 1.0))
        with pytest.raises(ValueError):
            sample_fbm_batch(fac, 0, RngStreamSpec(1))

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_batch_into_buffers_keeps_the_bits(self, n, rows):
        # node-major (F-ordered) values are what euler-study passes
        fac = factor_covariance(0.3, build_grid(n, 1.0))
        spec = RngStreamSpec(9, 2)
        values, z = sample_fbm_batch(fac, rows, spec)
        # the sampler as first written: one draw of (rows, n), one product
        z_ref = spec.generator().standard_normal((rows, n))
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(values[:, 1:], z_ref @ fac.lower_triangular.T)
        assert np.all(values[:, 0] == 0.0)
        for order in ("C", "F"):
            out = (np.full((rows, n + 1), np.nan, order=order), np.full((rows, n), np.nan))
            got = sample_fbm_batch(fac, rows, spec, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            np.testing.assert_array_equal(got[0], values)
            np.testing.assert_array_equal(got[1], z)

    def test_batch_buffers_are_checked_before_any_draw(self):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew before checking the buffers")

        fac = factor_covariance(0.3, build_grid(8, 1.0))
        bad = [
            (np.empty((5, 8)), np.empty((5, 8))),  # values one node short
            (np.empty((5, 9)), np.empty((4, 8))),  # noise one replica short
            (np.empty((5, 9)), np.empty((5, 8), order="F")),  # drawn in memory order
            (np.empty((5, 9)), np.empty((5, 8), dtype=np.float32)),
        ]
        for values, z in bad:
            with pytest.raises(ValueError, match="out"):
                sample_fbm_batch(fac, 5, NoDraws(), out=(values, z))

    def test_terminal_variance_monte_carlo(self):
        # Var B_T = T^{2 alpha}; 2e4 replicas, 4 standard errors
        alpha, T, R = 0.3, 1.5, 20_000
        fac = factor_covariance(alpha, build_grid(16, T))
        values, _ = sample_fbm_batch(fac, R, RngStreamSpec(20240806))
        x = values[:, -1]
        target = T ** (2 * alpha)
        sq = x**2
        se = sq.std(ddof=1) / math.sqrt(R)
        assert abs(sq.mean() - target) < 4.0 * se

    def test_midpoint_terminal_covariance_monte_carlo(self):
        alpha, R = 0.7, 20_000
        fac = factor_covariance(alpha, build_grid(16, 1.0))
        values, _ = sample_fbm_batch(fac, R, RngStreamSpec(20240807))
        prod = values[:, 8] * values[:, -1]
        se = prod.std(ddof=1) / math.sqrt(R)
        assert abs(prod.mean() - cov_fbm(alpha, 0.5, 1.0)) < 4.0 * se


def _sheet_batch(alpha, beta, grid, n_replicas, rng_spec):
    """(values, noise) of sheet replicas, the noise drawn in one
    ``standard_normal((R, n_s, n_t))`` call on the stream."""
    z = rng_spec.generator().standard_normal((n_replicas, grid.n_s, grid.n_t))
    factor_s = factor_covariance(alpha, build_grid(grid.n_s, grid.T))
    factor_t = factor_covariance(beta, build_grid(grid.n_t, grid.T))
    out = np.empty((n_replicas, grid.n_s + 1, grid.n_t + 1))
    return sample_sheet_batch(factor_s, factor_t, z, out), z


class TestSheetSampling:
    def test_structure_and_axes(self):
        g = build_grid2d(4, 6, 1.0)
        values, z = _sheet_batch(0.3, 0.7, g, 1, RngStreamSpec(3))
        assert values.shape == (1, 5, 7)
        assert z.shape == (1, 4, 6)
        assert np.all(values[0, 0, :] == 0.0)
        assert np.all(values[0, :, 0] == 0.0)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_out_receives_the_bits(self, rows):
        # a reused buffer, filled with nan here, gets the axes zeroed too
        g = build_grid2d(4, 6, 1.0)
        values, z = _sheet_batch(0.3, 0.7, g, rows, RngStreamSpec(3))
        fs = factor_covariance(0.3, build_grid(4, 1.0))
        ft = factor_covariance(0.7, build_grid(6, 1.0))
        out = np.full((rows, 5, 7), np.nan)
        assert sample_sheet_batch(fs, ft, z, out) is out
        np.testing.assert_array_equal(out, values)

    def test_wrong_shapes_are_refused_before_any_product(self):
        class NoProducts(np.ndarray):
            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("computed a product before checking shapes")

        fs, ft = (
            CovarianceFactor(f.alpha, f.grid, f.lower_triangular.view(NoProducts))
            for f in (factor_covariance(0.3, build_grid(4, 1.0)),
                      factor_covariance(0.7, build_grid(6, 1.0)))
        )
        bad = [
            # one sheet's noise broadcasts into the products and the buffer
            (np.zeros((4, 6)), np.ones((1, 5, 7))),
            (np.zeros((2, 6, 4)), np.ones((2, 5, 7))),  # axes swapped
            (np.zeros((2, 4, 6)), np.ones((2, 5, 6))),  # buffer a node short
            # one replica's sheet broadcasts into a three-replica buffer
            (np.zeros((1, 4, 6)), np.ones((3, 5, 7))),
        ]
        for z, out in bad:
            with pytest.raises(ValueError, match="noise of shape|out of shape"):
                sample_sheet_batch(fs, ft, z, out)
            assert np.all(out == 1.0)  # not even the axes were zeroed

    def test_values_are_kronecker_factor_times_noise(self):
        # the unfactored three-operand contraction as oracle, on a batch
        g = build_grid2d(6, 9, 1.5)
        values, z = _sheet_batch(0.3, 0.7, g, 50, RngStreamSpec(9))
        Ls = _cholesky_guarded(0.3, g.s[1:])
        Lt = _cholesky_guarded(0.7, g.t[1:])
        oracle = np.einsum("ij,rjk,lk->ril", Ls, z, Lt)
        np.testing.assert_allclose(values[:, 1:, 1:], oracle, rtol=0, atol=1e-13)

    def test_determinism_bit_identical(self):
        g = build_grid2d(4, 4, 1.0)
        a, _ = _sheet_batch(0.25, 0.75, g, 3, RngStreamSpec(12))
        b, _ = _sheet_batch(0.25, 0.75, g, 3, RngStreamSpec(12))
        assert np.array_equal(a, b)

    def test_corner_variance_monte_carlo(self):
        alpha, beta, T, R = 0.3, 0.7, 1.0, 20_000
        g = build_grid2d(4, 4, T)
        values, _ = _sheet_batch(alpha, beta, g, R, RngStreamSpec(20240808))
        sq = values[:, -1, -1] ** 2
        se = sq.std(ddof=1) / math.sqrt(R)
        assert abs(sq.mean() - T ** (2 * alpha + 2 * beta)) < 4.0 * se

    def test_row_restriction_is_scaled_fbm(self):
        # fixing the first coordinate at s_i gives an fBm in t with variance
        # scale s_i^{2 alpha}: empirical row covariance within 4 se entrywise
        alpha, beta, R = 0.3, 0.7, 30_000
        g = build_grid2d(4, 4, 1.0)
        values, _ = _sheet_batch(alpha, beta, g, R, RngStreamSpec(20240809))
        i = 2  # s_i = 0.5
        row = values[:, i + 1, 1:]  # (R, 4) at t = 0.25..1
        target = g.s[i + 1] ** (2 * alpha) * fbm_covariance(beta, g.t[1:])
        for j in range(4):
            for k in range(4):
                prod = row[:, j] * row[:, k]
                se = prod.std(ddof=1) / math.sqrt(R)
                assert abs(prod.mean() - target[j, k]) < 4.0 * se, (j, k)

    def test_brownian_sheet_disjoint_increments_uncorrelated(self):
        R = 30_000
        g = build_grid2d(2, 2, 1.0)
        values, _ = _sheet_batch(0.5, 0.5, g, R, RngStreamSpec(20240810))
        # rectangle increments over ((0,.5]x(0,.5]) and ((.5,1]x(.5,1])
        inc1 = values[:, 1, 1]
        inc2 = values[:, 2, 2] - values[:, 1, 2] - values[:, 2, 1] + values[:, 1, 1]
        prod = inc1 * inc2
        se = prod.std(ddof=1) / math.sqrt(R)
        assert abs(prod.mean()) < 4.0 * se


class TestVolterraRoute:
    def test_brownian_transfer_is_scaled_identity(self):
        g = build_grid(8, 1.0)
        M = increment_transfer_matrix(0.5, g)
        np.testing.assert_allclose(M, math.sqrt(g.dt) * np.eye(8), atol=1e-14)

    def test_projection_covariance_matches_exact_law(self):
        # C C' is the cell discretisation of the exact covariance; the gap
        # shrinks under refinement and stays small at n=16
        for alpha in (0.3, 0.7):
            errs = []
            for n in (16, 32):
                g = build_grid(n, 1.0)
                C = volterra_projection_matrix(alpha, g)
                R = fbm_covariance(alpha, g.points[1:])
                errs.append(np.max(np.abs(C @ C.T - R)))
            assert errs[0] < 0.02, alpha
            assert errs[1] < errs[0], alpha

    def test_projection_matrix_cache_is_bounded(self):
        C = volterra_projection_matrix(0.3, build_grid(8, 1.0))
        assert volterra_projection_matrix(0.3, build_grid(8, 1.0)) is C
        info = _projection_matrix.cache_info()
        assert info.hits >= 1
        assert info.maxsize is not None and info.maxsize > 0

    def test_volterra_path_reconstruction(self):
        g = build_grid(8, 1.0)
        values, z = sample_fbm_volterra(0.7, g, 2, RngStreamSpec(21))
        C = volterra_projection_matrix(0.7, g)
        np.testing.assert_allclose(values[:, 1:], z @ C.T, atol=1e-14)
        assert np.all(values[:, 0] == 0.0)

    def test_volterra_sheet_increment_identity(self):
        # rectangle increments of the sampled sheet equal M_s Xi M_t'
        g = build_grid2d(4, 4, 1.0)
        values, z = sample_sheet_volterra(0.3, 0.7, g, 3, RngStreamSpec(31))
        line = build_grid(4, 1.0)
        Cs = volterra_projection_matrix(0.3, line)
        Ct = volterra_projection_matrix(0.7, line)
        oracle = np.einsum("ij,rjk,lk->ril", Cs, z, Ct)
        np.testing.assert_allclose(values[:, 1:, 1:], oracle, rtol=0, atol=1e-13)
        Ms = increment_transfer_matrix(0.3, line)
        Mt = increment_transfer_matrix(0.7, line)
        inc = np.diff(np.diff(values, axis=1), axis=2)
        np.testing.assert_allclose(inc, Ms @ z @ Mt.T, atol=1e-12)
