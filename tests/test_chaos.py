"""Chaos solvers: explicit kernels, Hermite sums, discrete multiple integrals,
sheet recursions, Wick-corrected Euler, Picard fixed point, norm decay."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracsde.chaos import (
    OrderTooHigh,
    PicardResult,
    TruncatedChaosSolution,
    chaos_norm_decay,
    chaos_sum_1d,
    deterministic_sheet_solution,
    discrete_multiple_integral,
    exact_solution_1d,
    kernel_1d_eval,
    kernel_sheet_eval,
    offdiagonal_contraction,
    picard_sheet,
    pushed_kernel_tensor,
    sheet_kernel_form_gap,
    sheet_solver_route,
    solve_sheet_chaos,
    solve_sheet_chaos_batch,
    solve_sheet_chaos_total_batch,
    wick_euler_1d,
    wick_euler_paths,
    _sheet_orders_generic,
)
from fracsde.fields import GaussianField, factor_covariance, sample_fbm, sample_sheet, sample_sheet_batch
from fracsde.model import (
    HurstPair,
    ModelParams,
    RngStreamSpec,
    build_grid,
    build_grid2d,
)
from fracsde.special import h0, h0_array, hermite, hermite_all


class TestExplicitKernels:
    def test_line_kernel_constant_on_cube(self):
        assert kernel_1d_eval(2, 2.0, 0.0, 1.0, (0.3, 0.9)) == 2.0
        assert kernel_1d_eval(0, 5.0, 0.0, 1.0, ()) == 1.0
        assert kernel_1d_eval(3, 1.0, 0.0, 2.0, (0.1, 1.5, 1.9)) == pytest.approx(1.0 / 6.0)

    def test_line_kernel_vanishes_off_cube(self):
        assert kernel_1d_eval(2, 2.0, 0.0, 1.0, (0.3, 1.2)) == 0.0
        assert kernel_1d_eval(1, 2.0, 0.0, 1.0, (-0.1,)) == 0.0

    def test_line_kernel_drift_factor(self):
        val = kernel_1d_eval(1, 1.0, 0.7, 2.0, (0.5,))
        assert val == pytest.approx(math.exp(1.4))

    def test_line_kernel_validation(self):
        with pytest.raises(ValueError):
            kernel_1d_eval(-1, 1.0, 0.0, 1.0, ())
        with pytest.raises(ValueError):
            kernel_1d_eval(2, 1.0, 0.0, 1.0, (0.5,))

    @given(st.permutations([0.15, 0.45, 0.75]))
    def test_line_kernel_symmetric(self, pts):
        assert kernel_1d_eval(3, 1.3, 0.2, 1.0, pts) == kernel_1d_eval(
            3, 1.3, 0.2, 1.0, (0.15, 0.45, 0.75)
        )

    def test_sheet_kernel_order_zero(self):
        assert kernel_sheet_eval(0, 1.0, 0.5, (0.8, 0.6), ()) == pytest.approx(
            h0(0.5 * 0.8 * 0.6)
        )
        assert kernel_sheet_eval(0, 1.0, 0.0, (0.8, 0.6), ()) == 1.0

    def test_sheet_kernel_order_one_chain_form(self):
        a, b, z, p = 2.0, 0.4, (1.0, 1.0), (0.3, 0.5)
        val = kernel_sheet_eval(1, a, b, z, [p])
        ref = a * h0(b * 0.3 * 0.5) * h0(b * 0.7 * 0.5)
        assert val == pytest.approx(ref)

    def test_sheet_kernel_outside_support(self):
        assert kernel_sheet_eval(1, 1.0, 0.5, (0.5, 0.5), [(0.6, 0.2)]) == 0.0
        # incomparable pair is not a chain and has no dominating point
        pts = [(0.2, 0.7), (0.7, 0.2)]
        assert kernel_sheet_eval(2, 1.0, 0.5, (1.0, 1.0), pts) == 0.0
        assert kernel_sheet_eval(2, 1.0, 0.0, (1.0, 1.0), pts, form="count") == 0.0

    def test_sheet_kernel_forms_agree_to_order_two(self):
        z = (1.0, 1.0)
        for pts in ([(0.2, 0.3)], [(0.2, 0.3), (0.5, 0.8)], [(0.2, 0.7), (0.7, 0.2)]):
            c = kernel_sheet_eval(len(pts), 1.5, 0.0, z, pts, form="count")
            ch = kernel_sheet_eval(len(pts), 1.5, 0.0, z, pts, form="chain")
            assert c == pytest.approx(ch)

    def test_sheet_kernel_forms_differ_at_order_three(self):
        # a join: two incomparable points under a common dominating third
        pts = [(0.3, 0.6), (0.6, 0.3), (0.8, 0.8)]
        c = kernel_sheet_eval(3, 1.0, 0.0, (1.0, 1.0), pts, form="count")
        ch = kernel_sheet_eval(3, 1.0, 0.0, (1.0, 1.0), pts, form="chain")
        assert c == pytest.approx(1.0 / 6.0)
        assert ch == 0.0

    def test_sheet_kernel_validation(self):
        with pytest.raises(ValueError):
            kernel_sheet_eval(1, 1.0, 0.0, (1.0, 1.0), [(0.5, 0.5)], form="bogus")
        with pytest.raises(ValueError):
            kernel_sheet_eval(2, 1.0, 0.0, (1.0, 1.0), [(0.5, 0.5)])


class TestExactAndChaosSum1D:
    def test_exact_solution_known_value(self):
        # B = 0, b = 0, a = 1, t = 1: exp(-1/2) regardless of alpha
        for alpha in (0.3, 0.5, 0.7):
            assert exact_solution_1d(1.0, 0.0, alpha, 1.0, 0.0) == pytest.approx(
                math.exp(-0.5)
            )

    def test_exact_solution_positive(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal(50)
        vals = exact_solution_1d(1.3, -0.4, 0.3, 0.8, B)
        assert np.all(vals > 0.0)

    def test_exact_solution_time_validation(self):
        with pytest.raises(ValueError):
            exact_solution_1d(1.0, 0.0, 0.5, -1.0, 0.0)

    def test_order_zero_is_drift_factor(self):
        sol = chaos_sum_1d(1.0, 0.7, 0.3, 0.5, 0.2, 0)
        assert sol.total == pytest.approx(math.exp(0.35))

    def test_first_order_driftless_is_affine_in_noise(self):
        # orders 0+1 with b = 0 sum to 1 + a B_t for any alpha
        a, alpha, t, B = 1.7, 0.3, 0.8, 0.45
        sol = chaos_sum_1d(a, 0.0, alpha, t, B, 1)
        assert sol.total == pytest.approx(1.0 + a * B, rel=1e-13)

    def test_hermite_structure_of_orders(self):
        a, b, alpha, t, B, N = 1.2, 0.3, 0.7, 0.9, -0.6, 5
        sol = chaos_sum_1d(a, b, alpha, t, B, N)
        sigma = t**alpha
        for n in range(N + 1):
            ref = (
                math.exp(b * t)
                * a**n
                / math.factorial(n)
                * sigma**n
                * hermite(n, B / sigma)
            )
            assert sol.orders[n] == pytest.approx(ref, rel=1e-12)

    def test_truncation_20_matches_exact(self):
        # gaussian-scale noise values: remainder after 20 orders stays
        # below 1e-8 across 20 paths and all 65 nodes
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 65)
        for alpha in (0.3, 0.5, 0.7):
            B = rng.standard_normal((20, 65)) * t**alpha
            sol = chaos_sum_1d(1.0, 0.5, alpha, t, B, 20)
            ref = exact_solution_1d(1.0, 0.5, alpha, t, B)
            assert np.max(np.abs(sol.total - ref)) < 1e-8

    def test_time_zero_only_order_zero(self):
        # also for noise values that are nonzero at t = 0, where the plain
        # recurrence would give a B at order 1
        for B in (0.0, 0.7):
            sol = chaos_sum_1d(2.0, 0.5, 0.3, 0.0, B, 4)
            assert sol.orders[0] == pytest.approx(1.0)
            assert np.all(sol.orders[1:] == 0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_recurrence_matches_hermite_table(self, alpha):
        # oracle: e^{bt} (a^n / n!) sigma^n H_n(B / sigma) from the full table
        def oracle(a, b, t, B, N):
            t, B = np.broadcast_arrays(np.asarray(t, float), np.asarray(B, float))
            sigma = t**alpha
            xi = np.where(sigma > 0.0, B / np.where(sigma > 0.0, sigma, 1.0), 0.0)
            n = np.arange(N + 1.0).reshape((N + 1,) + (1,) * t.ndim)
            coef = np.array([a**k / math.factorial(k) for k in range(N + 1)])
            return np.exp(b * t) * coef.reshape(n.shape) * sigma**n * hermite_all(N, xi)

        N = 28
        rng = np.random.default_rng(int(alpha * 10))
        t = np.linspace(0.0, 1.0, 65)
        batch = rng.standard_normal((16, 65)) * t**alpha
        for a in (1.0, -1.3):
            for b in (0.0, 0.5, -1.0):
                for tt, B in ((t, batch), (0.7, 0.9), (1.0, -1.4)):
                    got = chaos_sum_1d(a, b, alpha, tt, B, N).orders
                    ref = oracle(a, b, tt, B, N)
                    assert got.shape == ref.shape
                    flat_got = got.reshape(N + 1, -1)
                    flat_ref = ref.reshape(N + 1, -1)
                    scale = np.max(np.abs(flat_ref), axis=1)
                    err = np.max(np.abs(flat_got - flat_ref), axis=1)
                    assert np.all(err <= 1e-12 * scale)

    def test_solution_container_validation(self):
        with pytest.raises(ValueError):
            TruncatedChaosSolution(truncation=2, orders=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            chaos_sum_1d(1.0, 0.0, 0.5, 1.0, 0.0, -1)


class TestWickEuler:
    def test_first_step_is_plain_euler(self):
        # the correction bracket vanishes at k = 0 exactly
        g = build_grid(4, 1.0)
        p = ModelParams(HurstPair(0.7), a=1.3, b=0.0, T=1.0)
        values = np.array([0.0, 0.4, 0.1, -0.2, 0.3])
        X = wick_euler_paths(p, g, values)
        assert X[1] == 1.0 + 1.3 * 0.4

    def test_hand_rolled_recursion(self):
        # alpha = 0.7, n = 4: bracket at k = 1 is
        # 0.5^1.4 - 0.25^1.4 - 0.25^1.4 ~ 0.0917546
        alpha, a = 0.7, 0.9
        g = build_grid(4, 1.0)
        c1 = 0.5**1.4 - 2.0 * 0.25**1.4
        assert c1 == pytest.approx(0.0917546, abs=1e-6)
        values = np.array([0.0, 0.2, 0.5, 0.4, 0.8])
        p = ModelParams(HurstPair(alpha), a=a, b=0.0, T=1.0)
        X = wick_euler_paths(p, g, values)
        x1 = 1.0 + a * 0.2
        x2 = x1 * (1.0 + a * 0.3 - 0.5 * a * a * c1)
        assert X[2] == pytest.approx(x2, rel=1e-13)

    def test_brownian_case_has_no_correction(self):
        # at alpha = 1/2 the bracket is identically zero
        g = build_grid(8, 1.0)
        p = ModelParams(HurstPair(0.5), a=1.1, b=0.0, T=1.0)
        values = np.concatenate([[0.0], np.cumsum(np.full(8, 0.1))])
        X = wick_euler_paths(p, g, values)
        plain = np.cumprod(np.concatenate([[1.0], 1.0 + 1.1 * np.diff(values)]))
        np.testing.assert_allclose(X, plain, rtol=1e-13)

    def test_batched_paths(self):
        g = build_grid(8, 1.0)
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        fac = factor_covariance(0.3, g)
        f = sample_fbm(fac, RngStreamSpec(5))
        single = wick_euler_1d(p, 8, f)
        batch = wick_euler_paths(p, g, np.stack([f.values, 2.0 * f.values]))
        np.testing.assert_allclose(batch[0], single, rtol=1e-14)

    def test_drift_rejected(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.5, T=1.0)
        with pytest.raises(ValueError):
            wick_euler_paths(p, build_grid(4, 1.0), np.zeros(5))

    def test_grid_mismatch_rejected(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        f = sample_fbm(factor_covariance(0.3, build_grid(8, 1.0)), RngStreamSpec(1))
        with pytest.raises(ValueError):
            wick_euler_1d(p, 4, f)


def _two_cell_field(inc: tuple[float, float]) -> GaussianField:
    g = build_grid(2, 1.0)
    values = np.array([0.0, inc[0], inc[0] + inc[1]])
    noise = np.array(inc) / math.sqrt(g.dt)
    return GaussianField(grid=g, values=values, white_noise=noise)


class TestDiscreteMultipleIntegrals:
    def test_order_zero_returns_kernel_value(self):
        f = _two_cell_field((0.5, -0.3))
        val = discrete_multiple_integral(lambda pts: 7.0, 0, f, HurstPair(0.5))
        assert val == 7.0

    def test_order_one_telescopes_to_terminal_value(self):
        # indicator kernel at Hurst 1/2: sum of increments = B_T
        g = build_grid(8, 1.0)
        f = sample_fbm(factor_covariance(0.5, g), RngStreamSpec(3))
        val = discrete_multiple_integral(lambda pts: 1.0, 1, f, HurstPair(0.5))
        assert val == pytest.approx(f.values[-1], rel=1e-10)

    def test_order_two_two_cells_hand_value(self):
        # sum over distinct pairs of dB_i dB_j = 2 (0.5)(-0.3) = -0.3
        f = _two_cell_field((0.5, -0.3))
        val = discrete_multiple_integral(lambda pts: 1.0, 2, f, HurstPair(0.5))
        assert val == pytest.approx(-0.3, rel=1e-12)

    def test_order_cap(self):
        f = _two_cell_field((0.1, 0.2))
        with pytest.raises(OrderTooHigh):
            discrete_multiple_integral(lambda pts: 1.0, 5, f, HurstPair(0.5))

    def test_moment_identities_monte_carlo(self):
        # orthogonality across orders and discrete second moments, 1e4
        # replicas on 8 Brownian cells: E I_n I_m = delta_{nm} n! dt^n m!/
        # ... the diagonal values follow the distinct-index count
        m_cells, R, dt = 8, 10_000, 1.0 / 8.0
        rng = np.random.default_rng(20240811)
        xi = rng.standard_normal((R, m_cells))
        g1 = pushed_kernel_tensor(lambda c: 1.0, 1, build_grid(8, 1.0), HurstPair(0.5))
        g2 = pushed_kernel_tensor(lambda c: 1.0, 2, build_grid(8, 1.0), HurstPair(0.5))
        g3 = pushed_kernel_tensor(lambda c: 1.0, 3, build_grid(8, 1.0), HurstPair(0.5))
        I = {
            1: offdiagonal_contraction(g1, xi),
            2: offdiagonal_contraction(g2, xi),
            3: offdiagonal_contraction(g3, xi),
        }
        diag = {
            1: 8 * dt,
            2: 2.0 * dt**2 * 8 * 7,
            3: 6.0 * dt**3 * 8 * 7 * 6,
        }
        for n in (1, 2, 3):
            for m in range(n, 4):
                prod = I[n] * I[m]
                se = prod.std(ddof=1) / math.sqrt(R)
                target = diag[n] if n == m else 0.0
                assert abs(prod.mean() - target) < 4.0 * se, (n, m)

    def test_zero_mean_orders_monte_carlo(self):
        R = 10_000
        rng = np.random.default_rng(20240812)
        xi = rng.standard_normal((R, 8))
        g2 = pushed_kernel_tensor(lambda c: 1.0, 2, build_grid(8, 1.0), HurstPair(0.5))
        vals = offdiagonal_contraction(g2, xi)
        se = vals.std(ddof=1) / math.sqrt(R)
        assert abs(vals.mean()) < 4.0 * se

    def test_tensor_size_guard(self):
        g = build_grid2d(16, 16, 1.0)
        with pytest.raises(ValueError):
            pushed_kernel_tensor(lambda c: 1.0, 3, g, HurstPair(0.5, 0.5))


def _dense_chain_orders(a, b, grid, noise, N):
    """Chain recursion with dense kernels built pair by pair from cell centres."""
    R = noise.shape[0]
    sc, tc = grid.cell_centers()
    cs, ct = (x.ravel() for x in np.meshgrid(sc, tc, indexing="ij"))
    zs, zt = (x.ravel() for x in np.meshgrid(grid.s, grid.t, indexing="ij"))
    DS, DT = cs[:, None] - cs[None, :], ct[:, None] - ct[None, :]
    below = (DS >= 0.0) & (DT >= 0.0) & ~np.eye(cs.size, dtype=bool)
    P = np.where(below, h0_array(b * DS * DT), 0.0)
    DSz, DTz = zs[:, None] - cs[None, :], zt[:, None] - ct[None, :]
    Q = np.where((DSz > 0.0) & (DTz > 0.0), h0_array(b * DSz * DTz), 0.0)
    w = math.sqrt(grid.cell_area) * noise.reshape(R, -1)
    orders = np.empty((N + 1, R, grid.n_s + 1, grid.n_t + 1))
    orders[0] = h0_array(b * np.multiply.outer(grid.s, grid.t))
    L = w * h0_array(b * cs * ct)
    for n in range(1, N + 1):
        if n > 1:
            L = w * (L @ P.T)
        orders[n] = (a**n * (L @ Q.T)).reshape(R, grid.n_s + 1, grid.n_t + 1)
    return orders


class TestSheetSolver:
    def test_order_zero_is_deterministic_profile(self):
        g = build_grid2d(6, 5, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.4, T=1.0)
        noise = np.zeros((2, 6, 5))
        orders = solve_sheet_chaos_batch(p, g, noise, 0)
        ref = h0_array(0.4 * np.multiply.outer(g.s, g.t))
        np.testing.assert_allclose(orders[0, 0], ref, rtol=1e-14)

    def test_driftless_zero_noise_is_one(self):
        g = build_grid2d(4, 4, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.0, T=1.0)
        orders = solve_sheet_chaos_batch(p, g, np.zeros((1, 4, 4)), 3)
        np.testing.assert_allclose(orders.sum(axis=0)[0], np.ones((5, 5)), atol=1e-14)

    def test_monte_carlo_mean_matches_deterministic_profile(self):
        # E X_z = h0(b s t): 1e4 replicas at the far corner, 4 standard errors
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.5, T=1.0)
        g = build_grid2d(8, 8, 1.0)
        R = 10_000
        _, noise = sample_sheet_batch(0.5, 0.5, g, R, RngStreamSpec(20240813))
        orders = solve_sheet_chaos_batch(p, g, noise, 4)
        corner = orders.sum(axis=0)[:, -1, -1]
        se = corner.std(ddof=1) / math.sqrt(R)
        assert abs(corner.mean() - h0(0.5)) < 4.0 * se

    def test_chain_route_matches_generic_route(self):
        g = build_grid2d(3, 3, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.2, b=0.6, T=1.0)
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((2, 3, 3))
        fast = solve_sheet_chaos_batch(p, g, noise, 2)
        slow = _sheet_orders_generic(p, g, noise, 2)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("n_s,n_t", [(4, 3), (3, 4)])
    def test_chain_route_matches_generic_route_on_rectangular_grids(self, n_s, n_t):
        # offsets along s and t have different ranges and spacings here, and
        # T = 0.7 is not dyadic, so a swapped axis or offset cannot hide
        g = build_grid2d(n_s, n_t, 0.7)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.1, b=-1.3, T=0.7)
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((3, n_s, n_t))
        fast = solve_sheet_chaos_batch(p, g, noise, 3)
        slow = _sheet_orders_generic(p, g, noise, 3)
        for n in range(4):
            scale = np.max(np.abs(slow[n]))
            assert np.max(np.abs(fast[n] - slow[n])) <= 1e-12 * scale

    def test_chain_cell_guard_refuses_before_allocating(self):
        # 65 x 64 cells: one cells x cells kernel would take 138 MB
        g = build_grid2d(65, 64, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=-1.0, T=1.0)
        noise = np.zeros((1, 65, 64))
        for solve in (solve_sheet_chaos_batch, solve_sheet_chaos_total_batch):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="grid too large"):
                    solve(p, g, noise, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        with pytest.raises(ValueError, match="grid too large"):
            sheet_solver_route(p, g, 3)

    @pytest.mark.parametrize("n_s,n_t,T", [(16, 16, 3.0), (4, 3, 0.7), (3, 4, 0.7)])
    @pytest.mark.parametrize("b", [-1.0, -1.3])
    def test_chain_route_matches_dense_oracle(self, n_s, n_t, T, b):
        g = build_grid2d(n_s, n_t, T)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.1, b=b, T=T)
        noise = np.random.default_rng(9).standard_normal((5, n_s, n_t))
        dense = _dense_chain_orders(p.a, b, g, noise, 4)
        for N in range(5):
            orders = solve_sheet_chaos_batch(p, g, noise, N)
            assert orders.shape == (N + 1, 5, n_s + 1, n_t + 1)
            for n in range(N + 1):
                scale = np.max(np.abs(dense[n]))
                assert np.max(np.abs(orders[n] - dense[n])) <= 1e-12 * scale
            total = solve_sheet_chaos_total_batch(p, g, noise, N)
            ref = dense[: N + 1].sum(axis=0)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(total - ref)) <= 1e-12 * scale
            summed = orders.sum(axis=0)
            assert np.max(np.abs(total - summed)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha,beta,b", [(0.5, 0.5, 0.0), (0.3, 0.7, 0.4)])
    def test_total_is_the_sum_of_orders_off_the_chain_route(self, alpha, beta, b):
        g = build_grid2d(3, 2, 1.0)
        p = ModelParams(HurstPair(alpha, beta), a=0.9, b=b, T=1.0)
        noise = np.random.default_rng(10).standard_normal((4, 3, 2))
        for N in range(4):
            total = solve_sheet_chaos_total_batch(p, g, noise, N)
            orders = solve_sheet_chaos_batch(p, g, noise, N)
            np.testing.assert_array_equal(total, orders.sum(axis=0))

    def test_summed_chain_route_holds_two_replica_arrays(self):
        # the chain weights and their running sum, then the sum and the
        # surface, plus the two cells x cells kernels; stacking the orders
        # (4 replica arrays) or a copied trmm operand breaks the bound
        R, n = 4000, 16
        g = build_grid2d(n, n, 3.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=0.05, b=-1.0, T=3.0)
        noise = np.random.default_rng(11).standard_normal((R, n, n))
        cells, nodes = n * n, (n + 1) * (n + 1)
        bound = 8 * (2 * R * nodes + 2 * cells * cells)
        tracemalloc.start()
        try:
            solve_sheet_chaos_total_batch(p, g, noise, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_count_route_matches_generic_route_driftless(self):
        # order 4 takes e_3 from Newton's identities; the tensor oracle makes
        # cells**4 kernel calls per node, so it runs on six cells
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.0, T=1.0)
        rng = np.random.default_rng(5)
        for n_s, n_t in ((3, 2), (2, 3)):
            g = build_grid2d(n_s, n_t, 1.0)
            noise = rng.standard_normal((2, n_s, n_t))
            fast = solve_sheet_chaos_batch(p, g, noise, 4)
            slow = _sheet_orders_generic(p, g, noise, 4)
            assert np.max(np.abs(slow[4])) > 1e-2  # order 4 is not void here
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_single_field_wrapper(self):
        g = build_grid2d(4, 4, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.3, T=1.0)
        f = sample_sheet(0.5, 0.5, g, RngStreamSpec(6))
        sol = solve_sheet_chaos(p, g, f, 2)
        batch = solve_sheet_chaos_batch(p, g, f.white_noise[None], 2)
        np.testing.assert_allclose(sol.total, batch.sum(axis=0)[0], rtol=1e-13)

    def test_validation(self):
        g = build_grid2d(4, 4, 1.0)
        line = ModelParams(HurstPair(0.5), a=1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            solve_sheet_chaos_batch(line, g, np.zeros((1, 4, 4)), 2)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.0, T=1.0)
        with pytest.raises(OrderTooHigh):
            solve_sheet_chaos_batch(p, g, np.zeros((1, 4, 4)), 5)
        with pytest.raises(ValueError):
            solve_sheet_chaos_batch(p, g, np.zeros((4, 4)), 2)

    def test_form_gap_vanishes_through_order_two(self):
        g = build_grid2d(4, 4, 1.0)
        f = sample_sheet(0.5, 0.5, g, RngStreamSpec(77))
        gap = sheet_kernel_form_gap(1.0, g, f, (1.0, 1.0), 3)
        assert gap[1] == pytest.approx(0.0, abs=1e-12)
        assert gap[2] == pytest.approx(0.0, abs=1e-12)
        assert abs(gap[3]) > 1e-6  # the prescriptions genuinely split here


class TestPicard:
    def test_matches_closed_form_both_signs(self):
        g = build_grid2d(64, 64, 2.0)
        for a in (-1.0, 1.0):
            res = picard_sheet(a, g)
            ref = deterministic_sheet_solution(a, g.s[:, None], g.t[None, :])
            assert res.converged
            assert res.iterations < 40
            assert np.max(np.abs(res.values - ref)) < 1e-3, a

    def test_rule_accuracy_ladder(self):
        # measured on the 64x64 window: rectangle ~2.6e-2, trapezoid
        # ~1.4e-4, simpson ~2.6e-8; the default must sit on the last rung
        g = build_grid2d(64, 64, 2.0)
        ref = deterministic_sheet_solution(-1.0, g.s[:, None], g.t[None, :])
        errs = {
            rule: float(np.max(np.abs(picard_sheet(-1.0, g, rule=rule).values - ref)))
            for rule in ("rectangle", "trapezoid", "simpson")
        }
        assert 1e-3 < errs["rectangle"] < 1e-1
        assert errs["trapezoid"] < 1e-3
        assert errs["simpson"] < 1e-6
        assert picard_sheet(-1.0, g).rule == "simpson"

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            picard_sheet(1.0, build_grid2d(4, 4, 1.0), rule="midpoint")

    def test_profile_solves_integral_equation(self):
        # h0(a s t) satisfies g = 1 + a iint g: check the identity through
        # the series derivative d/dx h0 = sum x^n / (n!(n+1)!) at a point
        a, s, t = -0.7, 0.9, 1.3
        val = deterministic_sheet_solution(a, s, t)
        # numerical double integral on a fine rectangle
        gs = np.linspace(0.0, s, 257)
        gt = np.linspace(0.0, t, 257)
        G = deterministic_sheet_solution(a, gs[:, None], gt[None, :])
        inner = np.trapezoid(np.trapezoid(G, gt, axis=1), gs)
        assert val == pytest.approx(1.0 + a * inner, abs=5e-5)


class TestChaosNormDecay:
    def test_noise_free_case(self):
        p = ModelParams(HurstPair(0.3), a=0.0, b=0.0, T=1.0)
        out = chaos_norm_decay(p, 4)
        assert np.all(out[1:] == 0.0)
        assert out[0] > 0.0

    def test_first_order_matches_isometry(self):
        # order-1 norm is |a| Q / 2 with Q the squared kernel integral,
        # and Q equals T^{2 alpha} by calibration
        for alpha in (0.3, 0.7):
            p = ModelParams(HurstPair(alpha), a=1.4, b=0.0, T=1.0)
            out = chaos_norm_decay(p, 1)
            assert out[1] == pytest.approx(1.4 / 2.0, rel=1e-3)

    def test_ratios_eventually_contract(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        out = chaos_norm_decay(p, 6)
        ratios = out[1:] / out[:-1]
        assert np.all(ratios[3:] < 1.0)

    def test_sheet_params_rejected(self):
        p = ModelParams(HurstPair(0.3, 0.4), a=1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            chaos_norm_decay(p, 3)
