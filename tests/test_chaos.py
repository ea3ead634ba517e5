"""Chaos solvers: Hermite sums, sheet recursions, Wick-corrected Euler, norm
decay; and the test oracles they are checked against (explicit sheet
kernels, discrete multiple integrals, the Picard fixed point)."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import fracsde.chaos as chaos_module

from fracsde.chaos import (
    chaos_norm_decay,
    chaos_sum_1d,
    chaos_total_1d,
    check_sheet_solve,
    deterministic_sheet_solution,
    exact_solution_1d,
    solve_sheet_chaos_batch,
    solve_sheet_chaos_total_blocks,
    wick_euler_paths,
    _CHAOS_BLOCK_VALUES,
)
from fracsde.fields import factor_covariance, sample_fbm_batch
from fracsde.model import (
    HurstPair,
    ModelParams,
    RngStreamSpec,
    build_grid,
    build_grid2d,
)
from fracsde.special import h0, h0_array, hermite_all
from oracles import (
    _sheet_orders_generic,
    hermite,
    kernel_sheet_eval,
    offdiagonal_contraction,
    picard_sheet,
    pushed_kernel_tensor,
)


def _summed_orders(p, g, noise, N):
    """The blocks solver fed the whole batch as one block: (R, n_s+1, n_t+1)."""
    ((_, total),) = solve_sheet_chaos_total_blocks(p, g, [(0, noise)], N)
    return total


class TestExplicitKernels:
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
        # incomparable pair is not a chain
        pts = [(0.2, 0.7), (0.7, 0.2)]
        assert kernel_sheet_eval(2, 1.0, 0.5, (1.0, 1.0), pts) == 0.0

    def test_sheet_kernel_driftless_is_chain_indicator(self):
        # a^3/6 on a chain, and 0 on a join: two incomparable points under a
        # common dominating third, which the Wick exponential's count
        # kernel would weigh a^3/6 as well
        a, z = 1.3, (1.0, 1.0)
        chain = [(0.2, 0.3), (0.8, 0.5), (0.5, 0.4)]
        assert kernel_sheet_eval(3, a, 0.0, z, chain) == pytest.approx(a**3 / 6.0, rel=1e-15)
        join = [(0.2, 0.8), (0.8, 0.2), (0.9, 0.9)]
        assert kernel_sheet_eval(3, a, 0.0, z, join) == 0.0
        assert kernel_sheet_eval(2, a, 0.0, z, join[:2]) == 0.0

    def test_sheet_kernel_validation(self):
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
        orders = chaos_sum_1d(1.0, 0.7, 0.3, 0.5, 0.2, 0)
        assert sum(orders) == pytest.approx(math.exp(0.35))

    def test_first_order_driftless_is_affine_in_noise(self):
        # orders 0+1 with b = 0 sum to 1 + a B_t for any alpha
        a, alpha, t, B = 1.7, 0.3, 0.8, 0.45
        orders = chaos_sum_1d(a, 0.0, alpha, t, B, 1)
        assert sum(orders) == pytest.approx(1.0 + a * B, rel=1e-13)

    def test_hermite_structure_of_orders(self):
        a, b, alpha, t, B, N = 1.2, 0.3, 0.7, 0.9, -0.6, 5
        orders = chaos_sum_1d(a, b, alpha, t, B, N)
        sigma = t**alpha
        for n in range(N + 1):
            ref = (
                math.exp(b * t)
                * a**n
                / math.factorial(n)
                * sigma**n
                * hermite(n, B / sigma)
            )
            assert orders[n] == pytest.approx(ref, rel=1e-12)

    def test_truncation_20_matches_exact(self):
        # gaussian-scale noise values: remainder after 20 orders stays
        # below 1e-8 across 20 paths and all 65 nodes
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 65)
        for alpha in (0.3, 0.5, 0.7):
            B = rng.standard_normal((20, 65)) * t**alpha
            total = sum(chaos_sum_1d(1.0, 0.5, alpha, t, B, 20))
            ref = exact_solution_1d(1.0, 0.5, alpha, t, B)
            assert np.max(np.abs(total - ref)) < 1e-8

    def test_time_zero_only_order_zero(self):
        # also for noise values that are nonzero at t = 0, where the plain
        # recurrence would give a B at order 1
        for B in (0.0, 0.7):
            orders = chaos_sum_1d(2.0, 0.5, 0.3, 0.0, B, 4)
            assert orders[0] == pytest.approx(1.0)
            assert np.all(orders[1:] == 0.0)

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
                    got = chaos_sum_1d(a, b, alpha, tt, B, N)
                    ref = oracle(a, b, tt, B, N)
                    assert got.shape == ref.shape
                    flat_got = got.reshape(N + 1, -1)
                    flat_ref = ref.reshape(N + 1, -1)
                    scale = np.max(np.abs(flat_ref), axis=1)
                    err = np.max(np.abs(flat_got - flat_ref), axis=1)
                    assert np.all(err <= 1e-12 * scale)


# one block of chaos_total_1d at 65 nodes, in rows
_BLOCK = _CHAOS_BLOCK_VALUES // 65


def _assert_matches_orders(got, a, b, alpha, t, B, N):
    # the per-order oracle, to rounding relative to the summed magnitudes;
    # sum() adds the orders in sequence, 0 first
    orders = chaos_sum_1d(a, b, alpha, t, B, N)
    total = sum(orders)
    assert np.shape(got) == np.shape(total)
    bound = 1e-14 * np.sum(np.abs(orders), axis=0)
    assert np.all(np.abs(got - total) <= bound)


class TestChaosTotal1D:
    @pytest.mark.parametrize("N", [0, 1, 2, 28])
    @pytest.mark.parametrize("b", [0.0, -0.7])
    @pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4096])
    def test_matches_sum_of_orders(self, N, b, rows):
        # the node t = 0 carries nonzero noise, which both must ignore
        rng = np.random.default_rng(rows)
        t = np.linspace(0.0, 1.0, 65)
        B = rng.standard_normal((rows, 65)) * np.maximum(t, 0.1) ** 0.3
        assert np.all(B[:, 0] != 0.0)
        got = chaos_total_1d(1.3, b, 0.3, t, B, N)
        _assert_matches_orders(got, 1.3, b, 0.3, t, B, N)
        assert np.all(got[:, 0] == 1.0)

    def test_scalars_and_single_path(self):
        rng = np.random.default_rng(7)
        for t, B in zip(rng.uniform(0.0, 2.0, 50), 2.0 * rng.standard_normal(50)):
            got = chaos_total_1d(-1.1, 0.4, 0.6, t, B, 28)
            assert np.shape(got) == ()
            _assert_matches_orders(got, -1.1, 0.4, 0.6, t, B, 28)
        assert chaos_total_1d(1.0, 0.5, 0.3, 0.0, 0.7, 4) == math.exp(0.0)
        t = np.linspace(0.0, 1.0, 65)
        path = rng.standard_normal(65)
        got = chaos_total_1d(1.3, 0.0, 0.7, t, path, 28)
        assert got.shape == (65,)
        _assert_matches_orders(got, 1.3, 0.0, 0.7, t, path, 28)

    def test_time_may_carry_the_rows(self):
        # t of shape (rows, nodes) against one shared row of noise
        rng = np.random.default_rng(8)
        t = rng.uniform(0.0, 3.0, (300, 9))
        B = rng.standard_normal(9)
        got = chaos_total_1d(0.8, -0.3, 0.4, t, B, 20)
        assert got.shape == (300, 9)
        _assert_matches_orders(got, 0.8, -0.3, 0.4, t, B, 20)

    def test_block_size_does_not_move_bits(self, monkeypatch):
        t = np.linspace(0.0, 1.0, 65)
        B = np.random.default_rng(9).standard_normal((1000, 65)) * t**0.7
        ref = chaos_total_1d(1.3, 0.5, 0.7, t, B, 28)
        for values in (1, 65, 4 * 65 + 7, 2**13, 2**20):
            monkeypatch.setattr(chaos_module, "_CHAOS_BLOCK_VALUES", values)
            np.testing.assert_array_equal(chaos_total_1d(1.3, 0.5, 0.7, t, B, 28), ref)

    def test_exactly_rounded_coefficients_hold_the_tolerance(self):
        # exact-vs-chaos at alpha 0.7, a 0.5, T 10, b 1, N 60: float partial
        # sums of the coefficients' exponential series read 1.5e-7 here,
        # the recurrence 5.6e-9
        grid = build_grid(32, 10.0)
        values, _ = sample_fbm_batch(factor_covariance(0.7, grid), 1000, RngStreamSpec(5, 0))
        got = chaos_total_1d(0.5, 1.0, 0.7, grid.points, values, 60)
        exact = exact_solution_1d(0.5, 1.0, 0.7, grid.points, values)
        assert np.max(np.abs(got - exact)) < 1e-8

    @pytest.mark.parametrize("a", [1e80])
    def test_overflow_pattern_matches(self, a):
        # a = 1e80 gives nan past t = 0 on both routes
        t = np.linspace(0.0, 1.0, 65)
        B = np.random.default_rng(3).standard_normal((300, 65))
        with np.errstate(over="ignore", invalid="ignore"):
            got = chaos_total_1d(a, 0.0, 0.7, t, B, 28)
            ref = sum(chaos_sum_1d(a, 0.0, 0.7, t, B, 28))
        assert np.any(np.isnan(ref)) and np.any(np.isfinite(ref))
        np.testing.assert_array_equal(got, ref)

    def test_validation_matches_per_order_sum(self):
        for f in (chaos_sum_1d, chaos_total_1d):
            with pytest.raises(ValueError, match="truncation must be >= 0"):
                f(1.0, 0.0, 0.5, 1.0, 0.0, -1)
            with pytest.raises(ValueError, match="time must be >= 0"):
                f(1.0, 0.0, 0.5, np.array([0.5, -0.1]), np.zeros((3, 2)), 4)

    def test_table_is_assembled_once_per_time_grid(self):
        # row blocks of one chunk share the grid row, so they share the table
        t = np.linspace(0.0, 2.0, 33)
        B = np.random.default_rng(5).standard_normal((40, 33))
        chaos_module._horner_table.cache_clear()
        whole = chaos_total_1d(0.9, 0.2, 0.4, t, B, 24)
        blocks = [chaos_total_1d(0.9, 0.2, 0.4, t, B[r:r + 7], 24) for r in range(0, 40, 7)]
        info = chaos_module._horner_table.cache_info()
        assert (info.misses, info.hits) == (1, 6)
        np.testing.assert_array_equal(np.concatenate(blocks), whole)
        # the shared table is read-only
        table = chaos_module._horner_table(np.ones(3).tobytes(), np.ones(3).tobytes(), 4)
        assert table.shape == (5, 3) and not table.flags.writeable

    def test_holds_blocks_not_orders(self):
        # the 29 stacked orders of this chunk take 62 MB; the running total
        # holds its output and one block's buffers
        t = np.linspace(0.0, 1.0, 65)
        B = np.random.default_rng(4).standard_normal((4096, 65))
        tracemalloc.start()
        try:
            total = chaos_total_1d(1.0, 0.5, 0.3, t, B, 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * total.nbytes


def _euler_columns(p, grid, values):
    # the scheme column by column, as first written: the bitwise oracle
    alpha, a, t = p.hurst.alpha, p.a, grid.points
    c = t[1:] ** (2.0 * alpha) - t[:-1] ** (2.0 * alpha) - grid.dt ** (2.0 * alpha)
    dB = np.diff(values, axis=-1)
    X = np.empty_like(values)
    X[..., 0] = 1.0
    for k in range(grid.n_steps):
        X[..., k + 1] = X[..., k] * (1.0 + a * dB[..., k] - 0.5 * a * a * c[k])
    return X


class TestWickEuler:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_matches_column_oracle_on_strided_subgrids(self, alpha):
        # euler-study reads every (128/n)-th node of paths on the finest grid
        p = ModelParams(HurstPair(alpha), a=1.2, b=0.0, T=1.0)
        values = np.random.default_rng(11).standard_normal((300, 129)).cumsum(axis=1)
        before = values.copy()
        for n in (8, 16, 32, 64, 128):
            g = build_grid(n, 1.0)
            sub = values[:, :: 128 // n]
            X = wick_euler_paths(p, g, sub)
            assert X.shape == sub.shape
            np.testing.assert_array_equal(X, _euler_columns(p, g, sub))
        np.testing.assert_array_equal(values, before)

    def test_matches_column_oracle_in_one_and_three_dimensions(self):
        p = ModelParams(HurstPair(0.7), a=0.9, b=0.0, T=2.0)
        g = build_grid(16, 2.0)
        rng = np.random.default_rng(12)
        for shape in ((17,), (3, 5, 17)):
            values = rng.standard_normal(shape).cumsum(axis=-1)
            before = values.copy()
            X = wick_euler_paths(p, g, values)
            assert X.shape == shape
            np.testing.assert_array_equal(X, _euler_columns(p, g, values))
            np.testing.assert_array_equal(values, before)

    def test_path_length_must_match_grid(self):
        # too long would leave unwritten entries, too short would index past
        # the end; both are refused by name
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        g = build_grid(4, 1.0)
        for n_nodes in (9, 3):
            with pytest.raises(ValueError, match="5 nodes"):
                wick_euler_paths(p, g, np.zeros((2, n_nodes)))
        with pytest.raises(ValueError, match="5 nodes"):
            wick_euler_paths(p, g, np.float64(0.0))

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
        (path,), _ = sample_fbm_batch(fac, 1, RngStreamSpec(5))
        single = wick_euler_paths(p, g, path)
        batch = wick_euler_paths(p, g, np.stack([path, 2.0 * path]))
        np.testing.assert_allclose(batch[0], single, rtol=1e-14)

    def test_drift_rejected(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.5, T=1.0)
        with pytest.raises(ValueError):
            wick_euler_paths(p, build_grid(4, 1.0), np.zeros(5))

    def test_writes_into_a_node_major_out(self):
        # euler-study's layout: paths and trajectories are transposes of
        # (nodes, paths) arrays, and coarse grids read strided node rows
        p = ModelParams(HurstPair(0.7), a=1.2, b=0.0, T=1.0)
        nodes = np.random.default_rng(13).standard_normal((129, 300)).cumsum(axis=0)
        paths = np.full((129, 300), np.nan)
        for n in (8, 128):
            g = build_grid(n, 1.0)
            sub = nodes.T[:, :: 128 // n]
            out = paths[:n + 1].T
            X = wick_euler_paths(p, g, sub, out=out)
            assert X is out
            np.testing.assert_array_equal(X, _euler_columns(p, g, sub))
        with pytest.raises(ValueError, match="out of shape"):
            wick_euler_paths(p, build_grid(8, 1.0), nodes.T[:, ::16], out=paths[:8].T)

    def test_grid_mismatch_rejected(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        values, _ = sample_fbm_batch(
            factor_covariance(0.3, build_grid(8, 1.0)), 1, RngStreamSpec(1)
        )
        with pytest.raises(ValueError, match="do not end in the grid"):
            wick_euler_paths(p, build_grid(4, 1.0), values)


class TestDiscreteMultipleIntegrals:
    def test_order_one_telescopes_to_terminal_value(self):
        # indicator kernel at Hurst 1/2: sum of increments = B_T
        g = build_grid(8, 1.0)
        (values,), (noise,) = sample_fbm_batch(factor_covariance(0.5, g), 1, RngStreamSpec(3))
        tensor = pushed_kernel_tensor(lambda pts: 1.0, 1, g, HurstPair(0.5))
        val = offdiagonal_contraction(tensor, noise)
        assert val == pytest.approx(values[-1], rel=1e-10)

    def test_order_two_two_cells_hand_value(self):
        # sum over distinct pairs of dB_i dB_j = 2 (0.5)(-0.3) = -0.3
        g = build_grid(2, 1.0)
        noise = np.array([0.5, -0.3]) / math.sqrt(g.dt)  # increments 0.5, -0.3
        tensor = pushed_kernel_tensor(lambda pts: 1.0, 2, g, HurstPair(0.5))
        val = offdiagonal_contraction(tensor, noise)
        assert val == pytest.approx(-0.3, rel=1e-12)

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


def _corner_second_moments(a, grid, N):
    """E[(order n at the far corner)^2], n = 1..N, of the driftless solution.

    Products over different chains are orthogonal, so order n's second
    moment sums a^{2n} dA^n over the chains of n cells: M_1 = a^2 dA per
    cell, M_n = a^2 dA (prefix2d(M_{n-1}) - M_{n-1}), and the corner reads
    sum(M_n).
    """
    w = a * a * grid.cell_area
    M = np.full((grid.n_s, grid.n_t), w)
    out = [M.sum()]
    for _ in range(2, N + 1):
        M = w * (M.cumsum(axis=0).cumsum(axis=1) - M)
        out.append(M.sum())
    return np.array(out)


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
        noise = RngStreamSpec(20240813).generator().standard_normal((R, 8, 8))
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
        # 65 x 64 cells is past the drifted route's 4096-cell guard
        g = build_grid2d(65, 64, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=-1.0, T=1.0)
        noise = np.zeros((1, 65, 64))
        for solve in (solve_sheet_chaos_batch, _summed_orders):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="grid too large"):
                    solve(p, g, noise, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        with pytest.raises(ValueError, match="grid too large"):
            check_sheet_solve(p, g, 3)

    # with drift, 16 x 16 runs on two tiles of 8 t cells, 7 x 48 on four of
    # 12, and 5 x 37 on four of 10, the last one padded by three cells
    @pytest.mark.parametrize("n_s,n_t,T", [
        (16, 16, 3.0), (4, 3, 0.7), (3, 4, 0.7), (7, 48, 3.0), (5, 37, 0.7),
    ])
    @pytest.mark.parametrize("b", [0.0, -1.0, -1.3])
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
            total = _summed_orders(p, g, noise, N)
            ref = dense[: N + 1].sum(axis=0)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(total - ref)) <= 1e-12 * scale
            summed = orders.sum(axis=0)
            assert np.max(np.abs(total - summed)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_s,n_t", [(48, 48), (5, 37)])
    def test_summed_route_bits_do_not_move_with_the_block_size(self, n_s, n_t):
        # four tiles each; BLAS trmm on a square whose side is not a multiple
        # of 8 (588 at grid 48) moved bits with the number of replicas
        g = build_grid2d(n_s, n_t, 3.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=0.05, b=-1.0, T=3.0)
        noise = np.random.default_rng(15).standard_normal((40, n_s, n_t))
        whole = _summed_orders(p, g, noise, 3)
        blocks = [(r0, noise[r0:r0 + 7]) for r0 in range(0, 40, 7)]
        parts = [t for _, t in solve_sheet_chaos_total_blocks(p, g, blocks, 3)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_zero_replicas_give_empty_solutions(self, b):
        g = build_grid2d(6, 30, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=b, T=1.0)
        noise = np.zeros((0, 6, 30))
        assert solve_sheet_chaos_batch(p, g, noise, 3).shape == (4, 0, 7, 31)
        assert _summed_orders(p, g, noise, 3).shape == (0, 7, 31)

    def test_orders_are_continuous_at_zero_drift(self):
        # b = 0 applies the chain kernels as prefix sums and b = +-1e-12
        # builds them and applies them by trmm; every order must agree
        g = build_grid2d(8, 8, 1.0)
        noise = np.random.default_rng(13).standard_normal((50, 8, 8))
        solve = lambda b: solve_sheet_chaos_batch(
            ModelParams(HurstPair(0.5, 0.5), a=1.3, b=b, T=1.0), g, noise, 4
        )
        driftless = solve(0.0)
        for b in (1e-12, -1e-12):
            drifted = solve(b)
            for n in range(5):
                scale = np.max(np.abs(driftless[n]))
                assert np.max(np.abs(drifted[n] - driftless[n])) <= 1e-9 * scale, (b, n)

    def test_summed_chain_route_holds_two_replica_arrays(self):
        # the running sum of the chain weights with, in turn, the weights,
        # the readout's (q0 - 1) term and the surface, plus one cells x
        # cells kernel array; stacking the orders (4 replica arrays) or a
        # copied trmm operand breaks the bound
        R, n = 4000, 16
        g = build_grid2d(n, n, 3.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=0.05, b=-1.0, T=3.0)
        noise = np.random.default_rng(11).standard_normal((R, n, n))
        cells, nodes = n * n, (n + 1) * (n + 1)
        bound = 8 * (2 * R * nodes + cells * cells)
        _summed_orders(p, g, noise[:1], 3)  # loads BLAS trmm
        tracemalloc.start()
        try:
            _summed_orders(p, g, noise, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_driftless_chain_route_matches_generic_route(self):
        # order 4 takes three prefix-sum chain steps; the tensor oracle makes
        # cells**4 kernel calls per node, so it runs on six cells
        p = ModelParams(HurstPair(0.5, 0.5), a=1.5, b=0.0, T=1.0)
        rng = np.random.default_rng(5)
        for n_s, n_t in ((3, 2), (2, 3)):
            g = build_grid2d(n_s, n_t, 1.0)
            noise = rng.standard_normal((2, n_s, n_t))
            fast = solve_sheet_chaos_batch(p, g, noise, 4)
            slow = _sheet_orders_generic(p, g, noise, 4)
            assert np.max(np.abs(slow[4])) > 1e-2  # order 4 is not void here
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_driftless_chain_route_order_five_matches_chain_sums(self):
        # the driftless kernel is a^n/n! on chains, so order n at a node is
        # a^n times the sum, over top cells c below it, of dW_c times every
        # product of n - 1 cells that form a chain strictly below c;
        # enumerated here chain by chain, no prefix sums
        n_s = n_t = 6
        g = build_grid2d(n_s, n_t, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.3, b=0.0, T=1.0)
        noise = np.random.default_rng(12).standard_normal((3, n_s, n_t))
        check_sheet_solve(p, g, 5)
        orders = solve_sheet_chaos_batch(p, g, noise, 5)
        dW = math.sqrt(g.cell_area) * noise
        brute = np.zeros_like(orders)
        brute[0] = 1.0
        for i, j in itertools.product(range(n_s), range(n_t)):
            below = [(k, l) for k in range(i + 1) for l in range(j + 1)][:-1]
            for n in range(1, 6):
                combos = list(itertools.combinations(below, n - 1))
                subsets = np.array(combos, dtype=int).reshape(len(combos), n - 1, 2)
                # combinations keep the row-major order of ``below``, so a
                # subset is a chain iff its t indices never decrease
                subsets = subsets[np.all(np.diff(subsets[..., 1], axis=1) >= 0, axis=1)]
                rest = dW[:, subsets[..., 0], subsets[..., 1]].prod(axis=2).sum(axis=1)
                brute[n][:, i + 1:, j + 1:] += (p.a**n * dW[:, i, j] * rest)[:, None, None]
        for n in range(6):
            scale = np.max(np.abs(brute[n]))
            assert np.max(np.abs(orders[n] - brute[n])) <= 1e-12 * scale, n

    def test_driftless_second_moments_match_the_isometry_recursion(self):
        # 2e4 replicas in chunks, orders 1-4 at the far corner, 4 standard
        # errors; a count kernel (the Wick exponential's) would read 13 and
        # 14 standard errors high at orders 3 and 4
        a, T, n, R, chunk = 1.3, 1.5, 16, 20_000, 2000
        g = build_grid2d(n, n, T)
        p = ModelParams(HurstPair(0.5, 0.5), a=a, b=0.0, T=T)
        rng = np.random.default_rng(20240814)
        corner = np.concatenate([
            solve_sheet_chaos_batch(p, g, rng.standard_normal((chunk, n, n)), 4)[1:, :, -1, -1]
            for _ in range(R // chunk)
        ], axis=1)
        sq = corner**2
        se = sq.std(axis=1, ddof=1) / math.sqrt(R)
        z = (sq.mean(axis=1) - _corner_second_moments(a, g, 4)) / se
        assert np.all(np.abs(z) < 4.0), z

    def test_isometry_recursion_converges_to_the_continuum_moments(self):
        # order n's second moment tends to a^{2n} (st)^n / (n!)^2; order 1
        # is exact on any grid, and the error of orders 2-4 halves as the
        # grid doubles
        a = 1.3
        limit = np.array([a ** (2 * n) / math.factorial(n) ** 2 for n in range(1, 5)])
        moments = [_corner_second_moments(a, build_grid2d(n, n, 1.0), 4) for n in (16, 32, 64)]
        np.testing.assert_allclose([m[2] for m in moments], [0.1810, 0.1585, 0.1465], atol=5e-5)
        err = np.array([m - limit for m in moments])
        assert np.all(np.abs(err[:, 0]) <= 1e-14 * limit[0])
        assert np.all(err[:, 1:] > 0.0)
        ratios = err[1:, 1:] / err[:-1, 1:]
        assert np.all((0.4 < ratios) & (ratios < 0.6)), ratios

    def test_driftless_route_takes_grids_above_the_chain_guard(self):
        # 65 x 64 cells is past the drifted route's 4096-cell guard, while the
        # driftless chain kernels are prefix sums over replica arrays
        g = build_grid2d(65, 64, 1.0)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.0, T=1.0)
        R, N = 8, 3
        noise = np.random.default_rng(14).standard_normal((R, 65, 64))
        replica = 8 * R * 66 * 65
        check_sheet_solve(p, g, N)
        # the stacked orders, or the running sum and the surface, plus
        # working arrays (7.9 and 3.9 replica arrays measured)
        for solve, arrays in ((solve_sheet_chaos_batch, N + 6), (_summed_orders, 5)):
            tracemalloc.start()
            try:
                out = solve(p, g, noise, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(out))
            assert peak <= arrays * replica, (solve.__name__, peak / replica)

    def test_validation(self):
        g = build_grid2d(4, 4, 1.0)
        line = ModelParams(HurstPair(0.5), a=1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            solve_sheet_chaos_batch(line, g, np.zeros((1, 4, 4)), 2)
        p = ModelParams(HurstPair(0.5, 0.5), a=1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            solve_sheet_chaos_batch(p, g, np.zeros((4, 4)), 2)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.7), (0.5, 0.7), (0.3, 0.5)])
    @pytest.mark.parametrize("b", [0.0, -1.0])
    def test_other_hurst_pairs_are_refused_before_the_noise_is_read(self, alpha, beta, b):
        # only the Brownian sheet has the chain recursion; the noise here has
        # the wrong shape and the blocks must not be drawn from
        g = build_grid2d(4, 4, 1.0)
        p = ModelParams(HurstPair(alpha, beta), a=1.0, b=b, T=1.0)

        def blocks():
            raise AssertionError("noise read")
            yield

        with pytest.raises(ValueError, match=r"Hurst \(0.5, 0.5\)"):
            check_sheet_solve(p, g, 2)
        with pytest.raises(ValueError, match=r"Hurst \(0.5, 0.5\)"):
            solve_sheet_chaos_batch(p, g, np.zeros(3), 2)
        with pytest.raises(ValueError, match=r"Hurst \(0.5, 0.5\)"):
            next(solve_sheet_chaos_total_blocks(p, g, blocks(), 2))


class TestPicard:
    def test_matches_closed_form_both_signs(self):
        g = build_grid2d(64, 64, 2.0)
        for a in (-1.0, 1.0):
            res = picard_sheet(a, g)
            ref = deterministic_sheet_solution(a, g.s[:, None], g.t[None, :])
            assert res.converged
            assert res.iterations < 40
            assert np.max(np.abs(res.values - ref)) < 1e-3, a

    def test_simpson_accuracy(self):
        # measured on the 64x64 window: ~2.6e-8
        g = build_grid2d(64, 64, 2.0)
        ref = deterministic_sheet_solution(-1.0, g.s[:, None], g.t[None, :])
        assert float(np.max(np.abs(picard_sheet(-1.0, g).values - ref))) < 1e-6

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
            assert out[1] == pytest.approx(1.4 / 2.0, rel=1e-12)

    def test_ratios_eventually_contract(self):
        p = ModelParams(HurstPair(0.3), a=1.0, b=0.0, T=1.0)
        out = chaos_norm_decay(p, 6)
        ratios = out[1:] / out[:-1]
        assert np.all(ratios[3:] < 1.0)

    def test_sheet_params_rejected(self):
        p = ModelParams(HurstPair(0.3, 0.4), a=1.0, b=0.0, T=1.0)
        with pytest.raises(ValueError):
            chaos_norm_decay(p, 3)
