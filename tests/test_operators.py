"""Fractional operator layer: adjoint kernel map, tensor integrals and
derivatives, inverse kernel profiles, change-of-measure exponent.

Oracles: the adjoint map against kernel values and the fBm covariance
(isometry), tensor operators against per-axis Euler-beta closed forms, the
inverse-kernel axis profile against both its Gamma-ratio closed form and an
independent high-precision mpmath quadrature.
"""
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from fracsde import operators
from fracsde.fields import cov_fbm
from fracsde.model import build_grid, build_grid2d
from fracsde.operators import (
    GridFunction2D,
    IllConditionedOrder,
    RegimeUndefined,
    RoughInput,
    check_regime,
    frac_derivative_2d,
    frac_integral_2d,
    girsanov_log_density,
    kinv_apply_F,
    kinv_axis_factor,
    kinv_norm_sq_discrete,
    kstar_indicator_norm_sq,
    power_gap_integral,
    rkhs_norm_sq_separable,
)
from fracsde.operators import _axis_norm_sq, _kstar_points
from fracsde.quad import integrate_graded
from fracsde.special import kernel_sq_grade, volterra_kernel
from oracles import kinv_profile_constant, kstar_pointwise


class TestRegime:
    def test_boundary_raises(self):
        with pytest.raises(RegimeUndefined):
            check_regime(0.5, 0.3)
        with pytest.raises(RegimeUndefined):
            check_regime(0.3, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_regime(1.2, 0.3)

    def test_grid_function_validation(self):
        with pytest.raises(ValueError):
            GridFunction2D(build_grid2d(4, 4, 1.0), np.zeros((4, 5)))


class TestAdjointKernelMap:
    def test_constant_input_gives_kernel_section(self):
        # increments of a constant vanish, so K* 1 collapses to K(T, .)
        for alpha in (0.3, 0.7):
            for s in (0.2, 0.5, 0.9):
                val = kstar_pointwise(alpha, np.ones_like, s, 1.0)
                ref = float(volterra_kernel(alpha, 1.0, np.array([s]))[0])
                assert abs(val - ref) < 1e-12

    def test_indicator_gives_truncated_kernel_section(self):
        # 1_[0, t] maps to K(t, .) on (0, t) and to 0 beyond t
        t = 0.7
        phi = lambda r: np.where(r <= t, 1.0, 0.0)
        for s in (0.2, 0.5):
            val = kstar_pointwise(0.3, phi, s, 1.0, breakpoints=(t,))
            ref = float(volterra_kernel(0.3, t, np.array([s]))[0])
            assert abs(val - ref) < 1e-6
        assert kstar_pointwise(0.3, phi, 0.8, 1.0, breakpoints=(t,)) == 0.0

    def test_linearity_on_grid_samples(self):
        # K* of the linear interpolants of grid samples, at the interior
        # nodes, split at every node
        g = build_grid(8, 1.0)
        x = g.points
        rng = np.random.default_rng(0)
        ya, yb = rng.standard_normal(9), rng.standard_normal(9)

        def kstar(y):
            return _kstar_points(0.3, lambda r: np.interp(r, x, y), x[1:-1],
                                 1.0, tuple(x[1:-1].tolist()), 1e-8)

        fa, fb = kstar(ya), kstar(yb)
        fc = kstar(2.0 * ya - 0.5 * yb)
        gap = np.max(np.abs(fc - (2.0 * fa - 0.5 * fb)))
        assert gap < 1e-10

    def test_indicator_norm_is_power_of_t(self):
        # ||K* 1_[0,t]||^2 = t^{2 alpha}; includes the t = 0.7, alpha = 0.3 case
        for alpha, t in ((0.3, 0.7), (0.3, 1.0), (0.75, 0.5)):
            val = kstar_indicator_norm_sq(alpha, t, 1.0)
            assert abs(val - t ** (2.0 * alpha)) < 1e-4, (alpha, t)

    def test_isometry_seed_cross_inner_product(self):
        # <K* 1_[0,t], K* 1_[0,u]> = R(t, u), the covariance link
        t_, u_, T = 0.3, 0.7, 1.0
        for alpha in (0.3, 0.7):
            p1 = lambda r: np.where(r <= t_, 1.0, 0.0)
            p2 = lambda r: np.where(r <= u_, 1.0, 0.0)

            def prod(s_arr):
                return np.array(
                    [kstar_pointwise(alpha, p1, float(s), T, breakpoints=(t_,), tol=1e-7)
                     * kstar_pointwise(alpha, p2, float(s), T, breakpoints=(u_,), tol=1e-7)
                     for s in np.atleast_1d(s_arr)]
                )

            e = kernel_sq_grade(alpha)
            val = integrate_graded(prod, 0.0, t_, e_a=e, e_b=e, n0=48,
                                   tol=1e-6, max_doublings=4)
            assert abs(val - cov_fbm(alpha, t_, u_)) < 1e-4

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.7, 0.75])
    @pytest.mark.parametrize("t", [0.5, 0.7])
    def test_batch_gives_each_point_its_own_bits(self, alpha, t):
        # one batched quadrature over points on both sides of t.  Under the
        # indicator every piece converges at 96 nodes; under the sine the
        # pieces at s = 0.01 need 192 or 384, so a batch that refines a
        # converged row again, or drops a live one, moves some point's bits
        s = np.array([0.01, 0.2, t - 1e-3, t + 1e-3, 0.9])
        for phi in (lambda r: np.where(r <= t, 1.0, 0.0), np.sin):
            batch = _kstar_points(alpha, phi, s, 1.0, (t,), tol=1e-9)
            alone = [kstar_pointwise(alpha, phi, v, 1.0, breakpoints=(t,))
                     for v in s]
            assert batch.tolist() == alone

    def test_values_keep_their_bits(self):
        # floats of the batched quadrature on the package's Gauss-Legendre
        # nodes: the norms of the sheet-chain benchmark's operator checks,
        # whose pieces all converge at 96 nodes, and K* sin at s = 0.01,
        # whose two pieces converge at different levels
        pins = {0.25: (0.7071067861674234, -0.07911967504920658),
                0.75: (0.35355339059327384, 0.538746678738417)}
        for alpha, (norm_sq, sine) in pins.items():
            assert kstar_indicator_norm_sq(alpha, 0.5, 1.0) == norm_sq, alpha
            assert kstar_pointwise(alpha, np.sin, 0.01, 1.0, breakpoints=(0.5,)) == sine

    def test_diagonal_isometry_matches_norm(self):
        # (t, u) = (0.5, 0.5) reduces to the indicator norm identity
        val = kstar_indicator_norm_sq(0.5, 0.5, 1.0)
        assert abs(val - cov_fbm(0.5, 0.5, 0.5)) < 1e-6

    def test_pointwise_domain(self):
        with pytest.raises(ValueError):
            kstar_pointwise(0.3, np.ones_like, 0.0, 1.0)
        with pytest.raises(ValueError):
            kstar_indicator_norm_sq(0.3, 1.5, 1.0)


class TestTensorFractionalOperators:
    def test_unit_order_is_plain_double_integral(self):
        g = build_grid2d(8, 8, 1.0)
        f = GridFunction2D(g, np.ones((9, 9)))
        out = frac_integral_2d(f, 1.0, 1.0)
        np.testing.assert_allclose(out.samples, np.outer(g.s, g.t), atol=1e-12)

    def test_half_order_closed_form(self):
        # I^{1/2,1/2} 1 = sqrt(x y) / Gamma(3/2)^2
        g = build_grid2d(8, 8, 1.0)
        f = GridFunction2D(g, np.ones((9, 9)))
        out = frac_integral_2d(f, 0.5, 0.5)
        target = np.outer(np.sqrt(g.s), np.sqrt(g.t)) / sp_gamma(1.5) ** 2
        np.testing.assert_allclose(out.samples, target, atol=1e-6)

    def test_tensor_split_on_product_input(self):
        # f = u v integrates per axis: I^g[u](x) = x^{g+1}/Gamma(g+2)
        g = build_grid2d(8, 8, 1.0)
        f = GridFunction2D(g, np.outer(g.s, g.t))
        g1, g2 = 0.3, 0.7
        out = frac_integral_2d(f, g1, g2)
        target = np.outer(
            g.s ** (g1 + 1.0) / sp_gamma(g1 + 2.0),
            g.t ** (g2 + 1.0) / sp_gamma(g2 + 2.0),
        )
        np.testing.assert_allclose(out.samples, target, atol=1e-10)

    def test_derivative_inverts_integral(self):
        # D o I = id on 1 + u v, checked at interior nodes
        g = build_grid2d(8, 8, 1.0)
        f = GridFunction2D(g, 1.0 + np.outer(g.s, g.t))
        for gg in ((0.3, 0.45), (0.99, 0.99), (0.5, 0.45)):
            I = frac_integral_2d(f, *gg)
            D = frac_derivative_2d(I, *gg)
            gap = np.max(np.abs(D.samples[1:, 1:] - f.samples[1:, 1:]))
            assert gap < 1e-4, gg

    def test_near_unit_order_roundtrip_on_16_grid(self):
        g = build_grid2d(16, 16, 1.0)
        f = GridFunction2D(g, np.ones((17, 17)))
        I = frac_integral_2d(f, 0.99, 0.99)
        D = frac_derivative_2d(I, 0.99, 0.99)
        assert np.max(np.abs(D.samples[1:, 1:] - 1.0)) < 0.05

    def test_derivative_of_constant_power_law(self):
        # D^{g1,g2} 1 = x^{-g1} y^{-g2} / (Gamma(1-g1) Gamma(1-g2))
        g = build_grid2d(16, 16, 1.0)
        f = GridFunction2D(g, np.ones((17, 17)))
        g1, g2 = 0.3, 0.45
        D = frac_derivative_2d(f, g1, g2)
        target = np.outer(g.s[1:] ** -g1, g.t[1:] ** -g2) / (
            sp_gamma(1.0 - g1) * sp_gamma(1.0 - g2)
        )
        np.testing.assert_allclose(D.samples[1:, 1:], target, atol=1e-5)

    def test_derivative_origin_rows_are_zero(self):
        g = build_grid2d(4, 4, 1.0)
        D = frac_derivative_2d(GridFunction2D(g, np.ones((5, 5))), 0.3, 0.3)
        assert np.all(D.samples[0, :] == 0.0)
        assert np.all(D.samples[:, 0] == 0.0)

    def test_order_validation(self, monkeypatch):
        g = build_grid2d(4, 4, 1.0)
        f = GridFunction2D(g, np.ones((5, 5)))
        with pytest.raises(IllConditionedOrder):
            frac_integral_2d(f, 1e-4, 0.5)
        with pytest.raises(ValueError):
            frac_integral_2d(f, 1.5, 0.5)

        # the derivative refuses, on either axis, before any matrix is built
        def built(*args):
            raise AssertionError("a derivative matrix was built")

        monkeypatch.setattr(operators, "marchaud_derivative_matrix", built)
        for order in (1.0, 1.5, 0.0, -0.3):
            for gg in ((order, 0.3), (0.3, order)):
                with pytest.raises(ValueError, match=rf"order {re.escape(str(order))} "):
                    frac_derivative_2d(f, *gg)
        for n_s, n_t in ((1, 4), (4, 1)):
            one_cell = GridFunction2D(build_grid2d(n_s, n_t, 1.0),
                                      np.ones((n_s + 1, n_t + 1)))
            with pytest.raises(ValueError, match="at least 2 cells"):
                frac_derivative_2d(one_cell, 0.3, 0.3)

    def test_rough_input_rejected(self):
        g = build_grid2d(4, 4, 1.0)
        bad = np.ones((5, 5))
        bad[2, 2] = np.nan
        with pytest.raises(RoughInput):
            frac_derivative_2d(GridFunction2D(g, bad), 0.3, 0.3)


def _quadpack_gap_integral(h: float, t: float) -> float:
    # adaptive QUADPACK on the two halves of the gap integral, the far half
    # in gap coordinates with the bracket expanded through expm1/log1p
    from scipy.integrate import quad

    c = 0.5 - h
    near = lambda u: (t**c - u**c) * (t - u) ** (-h - 0.5)
    far = lambda v: -(t**c) * math.expm1(c * math.log1p(-v / t)) * v ** (-h - 0.5)
    opts = dict(epsabs=1e-11, epsrel=1e-10, limit=200)
    return quad(near, 0.0, 0.5 * t, **opts)[0] + quad(far, 0.0, 0.5 * t, **opts)[0]


class TestInverseKernelProfile:
    def test_matches_gamma_ratio_closed_form(self):
        x = np.array([0.1, 0.4, 1.0, 2.0])
        for h in (0.25, 0.3, 0.45, 0.55, 0.75, 0.9):
            lib = kinv_axis_factor(h, x)
            ref = kinv_profile_constant(h) * x ** (0.5 - h)
            np.testing.assert_allclose(lib, ref, rtol=1e-10)

    def test_matches_mpmath_quadrature_below_half(self):
        # independent route: the Riemann-Liouville integral of u^g
        # (g = 1/2 - h) is the Beta integral x^{2g} B(g, g+1) / Gamma(g), so
        # the profile x^{-g} I^g[u^g](x) is Gamma(g+1)/Gamma(2g+1) x^g,
        # evaluated here by mpmath at 50 digits; it checks the graded
        # quadrature and, apart from math.gamma, kinv_profile_constant
        with mp.workdps(50):
            for h in (0.25, 0.3):
                gam = mp.mpf(1) / 2 - mp.mpf(str(h))
                amp = mp.beta(gam, gam + 1) / mp.gamma(gam)
                assert abs(kinv_profile_constant(h) / float(amp) - 1.0) < 1e-12, h
                for x in (0.4, 1.0):
                    ref = float(amp * mp.mpf(str(x)) ** gam)
                    lib = kinv_axis_factor(h, np.array([x]))[0]
                    assert abs(lib / ref - 1.0) < 1e-12, (h, x)

    def test_regime_and_domain_errors(self):
        with pytest.raises(RegimeUndefined):
            kinv_axis_factor(0.5, np.array([1.0]))
        with pytest.raises(ValueError):
            kinv_axis_factor(1.3, np.array([1.0]))
        with pytest.raises(ValueError):
            kinv_axis_factor(0.3, np.array([0.0]))
        with pytest.raises(RegimeUndefined):
            kinv_profile_constant(0.5)

    def test_gap_integral_sign_split(self):
        # bracket t^{1/2-h} - u^{1/2-h} flips sign with h - 1/2
        assert power_gap_integral(0.25, 1.0) > 0.0
        assert power_gap_integral(0.75, 1.0) < 0.0

    def test_gap_integral_scaling_slope(self):
        # |J_h(t)| scales like t^{1-2h}: fitted log-log slope within 0.02
        ts = np.array([0.25, 0.5, 1.0])
        for h in (0.25, 0.75):
            vals = np.abs([power_gap_integral(h, t) for t in ts])
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert abs(slope - (1.0 - 2.0 * h)) < 0.02, h

    def test_rows_are_independent_of_the_batch(self):
        # each point's bits are what it gets when evaluated alone
        x = np.geomspace(1e-3, 3.0, 29)
        for h in (0.3, 0.45, 0.55, 0.9):
            batch = kinv_axis_factor(h, x)
            gap = power_gap_integral(h, x)
            for i in range(len(x)):
                assert kinv_axis_factor(h, x[i:i + 1])[0] == batch[i], (h, i)
                assert power_gap_integral(h, x[i]) == gap[i], (h, i)

    def test_gap_integral_closed_form_and_quadpack(self):
        # J_h(t) = t^{1-2h} (1/c - Gamma(c+1) Gamma(c) / Gamma(2c+1)), c = 1/2 - h
        ts = np.array([0.25, 1.0, 2.0])
        for h in (0.25, 0.3, 0.45, 0.55, 0.75, 0.9):
            c = 0.5 - h
            lib = power_gap_integral(h, ts)
            ref = ts ** (1.0 - 2.0 * h) * (
                1.0 / c - sp_gamma(c + 1.0) * sp_gamma(c) / sp_gamma(2.0 * c + 1.0)
            )
            np.testing.assert_allclose(lib, ref, rtol=1e-10, err_msg=str(h))
            oracle = [_quadpack_gap_integral(h, t) for t in ts]
            np.testing.assert_allclose(lib, oracle, rtol=1e-10, err_msg=str(h))

    def test_gap_integral_domain(self):
        with pytest.raises(ValueError):
            power_gap_integral(0.5, 1.0)
        with pytest.raises(ValueError):
            power_gap_integral(0.3, 0.0)

    def test_apply_F_is_outer_product_with_axis_limits(self):
        g = build_grid2d(4, 4, 1.0)
        below = kinv_apply_F(0.3, 0.4, g)
        assert np.all(below.samples[0, :] == 0.0)
        assert np.all(below.samples[:, 0] == 0.0)
        ref = np.outer(kinv_axis_factor(0.3, g.s[1:]), kinv_axis_factor(0.4, g.t[1:]))
        np.testing.assert_allclose(below.samples[1:, 1:], ref, rtol=1e-12)
        above = kinv_apply_F(0.75, 0.75, g)
        assert np.all(np.isnan(above.samples[0, 1:]))

    def test_apply_F_boundary_regime_rejected(self):
        with pytest.raises(RegimeUndefined):
            kinv_apply_F(0.5, 0.3, build_grid2d(4, 4, 1.0))

    def test_regime_limit_consistency_at_central_nodes(self):
        # approaching 1/2 from both sides agrees away from the axes; the
        # x^{+-(h-1/2)} branch split keeps the first interior nodes apart
        g = build_grid2d(16, 16, 1.0)
        lo = kinv_apply_F(0.45, 0.45, g).samples
        hi = kinv_apply_F(0.55, 0.55, g).samples
        sel = [8, 10]  # nodes at 0.5 and 0.625
        gap = np.max(np.abs(lo[np.ix_(sel, sel)] - hi[np.ix_(sel, sel)]))
        assert gap < 0.05

    def test_norm_sq_frozen_and_separable_closed_form(self):
        assert abs(rkhs_norm_sq_separable(0.3, 0.3, 1.0) - 0.5850902462429308) < 1e-9
        # (0.25, 0.75) collapses to exactly 2/3 through the Gamma identities
        assert abs(rkhs_norm_sq_separable(0.25, 0.75, 1.0) - 2.0 / 3.0) < 1e-6

    def test_equal_exponents_integrate_one_axis(self):
        _axis_norm_sq.cache_clear()
        val = rkhs_norm_sq_separable(0.3, 0.3, 1.0)
        assert _axis_norm_sq.cache_info().misses == 1
        assert val == _axis_norm_sq(0.3, 1.0) ** 2

    def test_discrete_norm_refinement_stability(self):
        refs = {(0.3, 0.3): 0.5850902462429308,
                (0.3, 0.7): 0.779177,
                (0.75, 0.75): 0.913893}
        for (a, b), ref in refs.items():
            v16 = kinv_norm_sq_discrete(a, b, build_grid2d(16, 16, 1.0))
            v32 = kinv_norm_sq_discrete(a, b, build_grid2d(32, 32, 1.0))
            assert abs(v32 - v16) / v16 < 0.05, (a, b)
            assert abs(v32 - ref) / ref < 0.01, (a, b)

    def test_discrete_norm_equal_exponents_evaluate_one_axis(self, monkeypatch):
        axis = operators._axis_norm_sq_discrete
        calls = []

        def counted(h, x):
            calls.append(h)
            return axis(h, x)

        monkeypatch.setattr(operators, "_axis_norm_sq_discrete", counted)
        square, oblong = build_grid2d(16, 16, 1.0), build_grid2d(16, 8, 1.0)
        cases = [((0.3, 0.3), square, [0.3]), ((0.75, 0.75), square, [0.75]),
                 ((0.3, 0.7), square, [0.3, 0.7]), ((0.3, 0.3), oblong, [0.3, 0.3])]
        for (a, b), g, expected in cases:
            calls.clear()
            val = kinv_norm_sq_discrete(a, b, g)
            assert calls == expected, (a, b, g.n_t)
            assert val == axis(a, g.s) * axis(b, g.t)

    def test_discrete_norm_boundary_regime_rejected(self):
        with pytest.raises(RegimeUndefined):
            kinv_norm_sq_discrete(0.5, 0.5, build_grid2d(8, 8, 1.0))


class TestGirsanovExponent:
    def test_hand_value(self):
        assert girsanov_log_density(2.0, 2.0, 1.0) == pytest.approx(0.875)

    def test_zero_field_is_pure_compensator(self):
        assert girsanov_log_density(1.0, 0.0, 0.5) == pytest.approx(-0.25)
        assert math.exp(girsanov_log_density(1.0, 0.0, 0.5)) < 1.0

    def test_large_epsilon_kills_the_exponent(self):
        val = girsanov_log_density(1e12, 1.3, 0.7)
        assert abs(val) < 1e-11

    def test_array_of_corner_values(self):
        w = np.array([-1.0, 0.0, 2.0])
        out = girsanov_log_density(2.0, w, 1.0)
        assert out.shape == (3,)
        assert out.tolist() == [girsanov_log_density(2.0, v, 1.0) for v in w]

    def test_tiny_epsilon_gives_an_infinite_compensator(self):
        # 2 eps^2 underflows to 0: the exponent reads -inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert girsanov_log_density(1e-200, np.array([1.0]), 1.0)[0] == -math.inf

    def test_validation(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                girsanov_log_density(eps, 1.0, 1.0)
