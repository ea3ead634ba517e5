"""Special-function layer: h0, negative window, Hermite, Volterra kernel.

Independent oracles: h0 matches mpmath's series 0F1(;1;x) at 40 digits, the
negative window endpoints are rescaled Bessel zeros, Hermite values come from
numpy's hermite_e basis, and the kernel spot values are checked against an
independent mpmath quadrature of the defining integral.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import j0, jn_zeros

from fracsde.special import (
    DomainError,
    NegativityInterval,
    NoInterval,
    calibrate_d_alpha,
    h0,
    h0_array,
    hermite_all,
    kernel_sq_grade,
    negativity_interval,
    volterra_kernel,
    volterra_kernel_dt_dist,
)
from fracsde.special import _h0_negative_window
from fracsde.model import build_grid
from fracsde.operators import kstar_indicator_norm_sq
from oracles import hermite, kernel_sq_integral, volterra_projection_matrix


class TestH0:
    def test_at_zero(self):
        assert h0(0.0) == 1.0

    def test_at_one_frozen(self):
        assert abs(h0(1.0) - 2.2795853023360673) < 1e-14

    def test_bessel_i0_oracle_positive_axis(self):
        # sum x^n/(n!)^2 = 0F1(;1;x), which is I0(2 sqrt(x)) for x >= 0
        with mp.workdps(40):
            for x in (0.1, 1.0, 4.0, 25.0, 400.0):
                ref = float(mp.hyp0f1(1, x))
                assert abs(h0(x) - ref) < 1e-12 * ref, x

    def test_bessel_j0_oracle_negative_axis(self):
        # J0(2 sqrt(-x)) for x < 0, where the power series cancels
        # catastrophically: summed, it read -0.09 at x = -400 against 0.0074
        with mp.workdps(40):
            for x in (-0.5, -1.0, -3.670492660530974, -25.0, -50.0,
                      -400.0, -5000.0, -9999.0, -1.2e5):
                ref = float(mp.hyp0f1(1, x))
                assert abs(h0(x) - ref) < 1e-15, x
                assert abs(h0_array(np.array([x]))[0] - ref) < 1e-15, x

    def test_hyp0f1_oracle(self):
        # independent hypergeometric identity 0F1(;1;x)
        with mp.workdps(30):
            for x in (-50.0, -9.0, 0.3, 50.0, 200.0):
                ref = float(mp.hyp0f1(1, x))
                assert abs(h0(x) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_vanishes_at_first_zero(self):
        assert abs(h0(-1.445796)) < 1e-6

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            h0(2.0e5)

    def test_array_matches_scalar_moderate_range(self):
        x = np.linspace(-20.0, 20.0, 81)
        vals = h0_array(x)
        for xi, vi in zip(x, vals):
            assert abs(vi - h0(xi)) < 1e-12 * max(1.0, abs(h0(xi)))

    def test_array_shape_and_empty(self):
        assert h0_array(np.ones((2, 3))).shape == (2, 3)
        assert h0_array(np.array([])).size == 0

    def test_array_overflow_raises(self):
        with pytest.raises(OverflowError):
            h0_array(np.array([1.0, 2.0e5]))

    @given(st.floats(min_value=-50.0, max_value=100.0))
    def test_array_scalar_agreement(self, x):
        assert abs(h0_array(np.array([x]))[0] - h0(x)) < 1e-10 * max(1.0, abs(h0(x)))


class TestNegativityInterval:
    def test_zero_depth_is_bessel_zero_window(self):
        # window endpoints are -(z/2)^2 at the first two zeros z of J0
        win = negativity_interval(0.0)
        z1, z2 = jn_zeros(0, 2)
        assert abs(win.lo - (-((z2 / 2.0) ** 2))) < 1e-10
        assert abs(win.hi - (-((z1 / 2.0) ** 2))) < 1e-10

    def test_zero_depth_frozen(self):
        win = negativity_interval(0.0)
        assert abs(win.lo - (-7.617815585915523)) < 1e-10
        assert abs(win.hi - (-1.445796490736696)) < 1e-10

    def test_depth_point_one_frozen(self):
        win = negativity_interval(0.1)
        assert abs(win.lo - (-6.838037803677542)) < 1e-9
        assert abs(win.hi - (-1.6988513420310103)) < 1e-9
        assert win.depth == 0.1

    def test_endpoints_sit_at_requested_depth(self):
        for delta in (0.05, 0.2, 0.35):
            win = negativity_interval(delta)
            assert abs(h0(win.lo) + delta) < 1e-10
            assert abs(h0(win.hi) + delta) < 1e-10
            mid = 0.5 * (win.lo + win.hi)
            assert h0(mid) < -delta

    def test_deeper_interval_strictly_inside_shallower(self):
        outer = negativity_interval(0.1)
        inner = negativity_interval(0.2)
        assert outer.lo < inner.lo < inner.hi < outer.hi

    def test_too_deep_raises(self):
        with pytest.raises(NoInterval):
            negativity_interval(0.41)

    def test_depth_threshold_is_h0_minimum(self):
        # global minimum of h0 is J0 at the first zero of J1, rescaled
        z11 = jn_zeros(1, 1)[0]
        fmin = j0(z11)
        assert abs(fmin - (-0.402759395702553)) < 1e-12
        negativity_interval(-fmin - 1e-4)  # just above the floor: fine
        with pytest.raises(NoInterval):
            negativity_interval(-fmin + 1e-4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            negativity_interval(-0.1)

    def test_window_matches_root_finding_oracle(self):
        # the closed form against root finding and minimisation on the h0
        # series; the series' own rounding puts brentq 2 ulps off the true
        # lo0, which the 50-digit Bessel zeros locate
        from scipy.optimize import brentq, minimize_scalar

        lo0, hi0, xmin, fmin = _h0_negative_window()
        hi_ref = brentq(h0, -2.5, -1.0, xtol=1e-14)
        lo_ref = brentq(h0, -8.2, -6.5, xtol=1e-14)
        bottom = minimize_scalar(h0, bounds=(lo_ref, hi_ref), method="bounded",
                                 options={"xatol": 1e-12})
        assert abs(hi0 - hi_ref) <= np.spacing(abs(hi_ref))
        assert abs(lo0 - lo_ref) <= 2.0 * np.spacing(abs(lo_ref))
        # h0 is flat at its bottom: the minimiser resolves only the value
        assert fmin == bottom.fun
        assert abs(xmin - bottom.x) < 1e-7
        with mp.workdps(50):
            for got, k, m in ((lo0, 0, 2), (hi0, 0, 1), (xmin, 1, 1)):
                ref = float(-(mp.besseljzero(k, m) / 2) ** 2)
                assert abs(got - ref) <= np.spacing(abs(ref)), (k, m)

    def test_band_matches_root_finding_oracle(self):
        from scipy.optimize import brentq

        lo0, hi0, xmin, fmin = _h0_negative_window()
        # next to the floor the roots close in on the flat bottom, so a
        # rounding error in h0 moves them further: the bounds widen there
        depths = ((0.1, 3e-15), (0.05, 1e-14), (0.2, 1e-14), (0.35, 1e-14),
                  (0.40169325, 1e-13), (-fmin - 1e-6, 1e-12), (-fmin - 1e-10, 1e-9))
        for delta, within in depths:
            win = negativity_interval(delta)
            f = lambda x: h0(x) + delta
            assert abs(win.lo - brentq(f, lo0, xmin, xtol=1e-13)) < within, delta
            assert abs(win.hi - brentq(f, xmin, hi0, xtol=1e-13)) < within, delta

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            NegativityInterval(lo=-1.0, hi=-2.0, depth=0.0)
        with pytest.raises(ValueError):
            NegativityInterval(lo=-2.0, hi=1.0, depth=0.0)
        with pytest.raises(ValueError):
            NegativityInterval(lo=-2.0, hi=-1.0, depth=-0.5)


class TestHermite:
    def test_known_values(self):
        assert hermite(2, 3.0) == 8.0
        assert hermite(4, 0.0) == 3.0
        assert hermite(0, 7.0) == 1.0
        assert hermite(1, -2.5) == -2.5

    def test_matches_numpy_hermite_e(self):
        from numpy.polynomial.hermite_e import hermeval

        for n in range(9):
            c = np.zeros(n + 1)
            c[n] = 1.0
            for x in (-2.0, -0.3, 0.0, 1.7, 4.0):
                assert abs(hermite(n, x) - hermeval(x, c)) < 1e-9 * max(
                    1.0, abs(hermeval(x, c))
                )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_recurrence(self, n, x):
        lhs = hermite(n + 1, x)
        rhs = x * hermite(n, x) - n * hermite(n - 1, x)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_all_orders_matches_scalar(self):
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        table = hermite_all(6, x)
        assert table.shape == (7, 4)
        for n in range(7):
            for j, xj in enumerate(x):
                assert table[n, j] == pytest.approx(hermite(n, xj), abs=1e-12)

    def test_gaussian_orthogonality_monte_carlo(self):
        # E H_n(Z) H_m(Z) = n! delta_{nm}; 1e5 draws, 4 standard errors
        rng = np.random.default_rng(20240805)
        z = rng.standard_normal(100_000)
        table = hermite_all(4, z)
        for n in range(5):
            for m in range(n, 5):
                prod = table[n] * table[m]
                mean = prod.mean()
                se = prod.std(ddof=1) / math.sqrt(prod.size)
                target = math.factorial(n) if n == m else 0.0
                assert abs(mean - target) < 4.0 * se + 1e-12, (n, m, mean, target)


class TestVolterraKernel:
    def test_brownian_case_is_constant_one(self):
        assert calibrate_d_alpha(0.5) == 1.0
        s = np.array([0.1, 0.4, 0.9])
        assert np.all(volterra_kernel(0.5, 1.0, s) == 1.0)

    def test_calibration_constants_frozen(self):
        assert abs(calibrate_d_alpha(0.25) - 0.645998000937991) < 1e-8
        assert abs(calibrate_d_alpha(0.3) - 0.7302829339349545) < 1e-8
        assert abs(calibrate_d_alpha(0.75) - 1.0696446350375963) < 1e-8

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.45, 0.55, 0.7, 0.75, 0.8])
    def test_closed_form_constant_meets_the_isometry(self, alpha):
        # the isometry int_0^1 K(1, s)^2 ds = 1 fixes d; graded quadrature of
        # the kernel with the closed-form d must meet it.  int K_d^2 is
        # d^2 int K_1^2, so rel 2e-8 here is rel 1e-8 on d = 1/sqrt(int K_1^2)
        assert kernel_sq_integral(alpha, 1.0) == pytest.approx(1.0, rel=2e-8)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.3, 0.45, 0.55, 0.6, 0.75, 0.9, 0.95])
    def test_kernel_against_40_digit_mpmath(self, alpha):
        # the closed-form kernel against mpmath's 40-digit quadrature of the
        # defining integral, with the constant also at 40 digits; the worst
        # point reads 6.6e-16 relative
        with mp.workdps(40):
            a = mp.mpf(alpha)
            q = a - mp.mpf(1) / 2
            c = mp.sqrt(2 * a * mp.gamma(mp.mpf(3) / 2 - a)
                        / (mp.gamma(a + mp.mpf(1) / 2) * mp.gamma(2 - 2 * a)))
            for t, s in ((1.0, 0.1), (1.0, 0.5), (1.0, 0.9), (2.0, 0.7)):
                tail = mp.quad(lambda th: th ** (a - mp.mpf(3) / 2) * (1 - (1 + th) ** q),
                               [0, mp.mpf(t) / s - 1])
                oracle = c * ((t - mp.mpf(s)) ** q + mp.mpf(s) ** q * (-q) * tail)
                lib = volterra_kernel(alpha, t, np.array([s]))[0]
                assert abs(lib - oracle) <= 1e-14 * abs(oracle), (alpha, t, s)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.9, 0.95])
    def test_calibrated_spec_builds_across_the_range(self, alpha):
        d = calibrate_d_alpha(alpha)
        assert math.isfinite(d) and d > 0.0
        assert np.all(np.isfinite(volterra_kernel(alpha, 1.0, np.array([0.1, 0.5, 0.9]))))

    def test_calibration_rejects_alpha_outside_the_unit_interval(self):
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                calibrate_d_alpha(alpha)

    def test_calibration_continuity_near_half(self):
        assert abs(calibrate_d_alpha(0.49) - 1.0) < 0.1
        assert abs(calibrate_d_alpha(0.51) - 1.0) < 0.1

    def test_squared_integral_calibration(self):
        # int_0^t K(t,s)^2 ds = t^{2 alpha}
        for alpha in (0.25, 0.5, 0.75):
            for t in (0.5, 1.0):
                val = kernel_sq_integral(alpha, t)
                assert abs(val - t ** (2.0 * alpha)) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            volterra_kernel(0.3, 1.0, np.array([1.0]))
        with pytest.raises(DomainError):
            volterra_kernel(0.3, 1.0, np.array([0.0]))
        with pytest.raises(DomainError):
            volterra_kernel(0.3, 0.0, np.array([0.5]))
        with pytest.raises(DomainError):
            volterra_kernel_dt_dist(0.3, np.array([0.1]), 0.0)
        with pytest.raises(DomainError):
            volterra_kernel_dt_dist(0.3, np.array([-0.1]), 0.5)

    def test_spec_validation(self):
        # alpha is the kernel's only parameter; each entry point refuses one
        # outside (0, 1) before doing any work
        grid = build_grid(4, 1.0)
        for alpha in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(ValueError):
                volterra_kernel(alpha, 1.0, np.array([0.5]))
            with pytest.raises(ValueError):
                volterra_kernel_dt_dist(alpha, np.array([0.1]), 0.5)
            with pytest.raises(ValueError):
                kernel_sq_integral(alpha, 1.0)
            with pytest.raises(ValueError):
                kernel_sq_grade(alpha)
            with pytest.raises(ValueError):
                volterra_projection_matrix(alpha, grid)
            with pytest.raises(ValueError):
                kstar_indicator_norm_sq(alpha, 0.5, 1.0)

    def test_time_derivative_matches_finite_difference(self):
        s, r, h = 0.4, 0.8, 1e-6
        # K is differentiated in its first argument: difference K(r+h,s)-K(r-h,s)
        kp = volterra_kernel(0.7, r + h, np.array([s]))[0]
        km = volterra_kernel(0.7, r - h, np.array([s]))[0]
        fd = (kp - km) / (2.0 * h)
        an = volterra_kernel_dt_dist(0.7, np.array([r - s]), s)[0]
        assert abs(fd - an) < 1e-4 * max(1.0, abs(an))

    def test_grade_at_half_is_zero(self):
        assert kernel_sq_grade(0.5) == 0.0

    def test_scaling_self_similarity(self):
        # K(ct, cs) = c^{alpha-1/2} K(t, s)
        c = 2.0
        base = volterra_kernel(0.65, 1.0, np.array([0.3, 0.7]))
        scaled = volterra_kernel(0.65, c, c * np.array([0.3, 0.7]))
        np.testing.assert_allclose(scaled, c ** (0.65 - 0.5) * base, rtol=1e-9)
