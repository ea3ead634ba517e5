import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsde.model import (
    Grid2D,
    HurstOutOfRange,
    HurstPair,
    InvalidGrid,
    ModelParams,
    MonteCarloResult,
    NonPositiveHorizon,
    RngStreamSpec,
    build_grid,
    build_grid2d,
    chunk_moments,
    combine_moments,
)


def _from_samples(samples, seed: int) -> MonteCarloResult:
    """The estimate of one chunk of samples, as the commands reduce it."""
    return combine_moments([chunk_moments(samples)], seed)


def test_hurst_boundary_rejected():
    with pytest.raises(HurstOutOfRange):
        HurstPair(1.0)
    with pytest.raises(HurstOutOfRange):
        HurstPair(0.3, 0.0)


def test_nonpositive_horizon_rejected():
    with pytest.raises(NonPositiveHorizon):
        ModelParams(HurstPair(0.3), 1.0, 0.0, 0.0)


def test_sheet_flag():
    assert not HurstPair(0.3).is_sheet
    assert HurstPair(0.3, 0.7).is_sheet


def test_build_grid_examples():
    assert np.array_equal(build_grid(2, 1.0).points, [0.0, 0.5, 1.0])
    assert np.array_equal(build_grid(1, 2.0).points, [0.0, 2.0])
    with pytest.raises(InvalidGrid):
        build_grid(0, 1.0)


def test_grid2d_axes():
    g = build_grid2d(2, 4, 1.0)
    assert np.array_equal(g.s, [0.0, 0.5, 1.0])
    assert g.t.shape == (5,)
    assert g.cell_area == pytest.approx(0.5 * 0.25)
    with pytest.raises(InvalidGrid):
        build_grid2d(0, 4, 1.0)


@given(n=st.integers(1, 400), T=st.floats(1e-3, 1e3))
def test_grid_endpoints_bit_exact(n, T):
    g = build_grid(n, T)
    assert g.points[0] == 0.0
    assert g.points[-1] == T
    assert g.points.shape == (n + 1,)
    assert np.all(np.diff(g.points) > 0.0)


def test_rng_streams_reproducible_and_order_independent():
    a = RngStreamSpec(123, 5).generator().standard_normal(8)
    b = RngStreamSpec(123, 5).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStreamSpec(123, 6).generator().standard_normal(8)
    assert not np.array_equal(a, c)


def test_rng_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreamSpec(-1)


def test_mc_result_from_samples():
    r = _from_samples(np.array([1.0, 2.0, 3.0, 4.0]), seed=7)
    assert r.estimate == pytest.approx(2.5)
    assert r.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert r.ci95[0] <= r.estimate <= r.ci95[1]
    assert r.n_replicas == 4


def test_mc_result_interval_invariant():
    with pytest.raises(ValueError):
        MonteCarloResult(1.0, 0.1, 10, (2.0, 3.0), 0)


def test_mc_result_passes_non_finite_moments_on():
    # an overflowed sample gives an infinite mean and an undefined spread;
    # the estimate reaches its metric, which fails it
    with np.errstate(invalid="ignore"):
        r = _from_samples(np.array([1.0, np.inf, 2.0]), seed=0)
    assert r.estimate == np.inf and np.isnan(r.std_error)
    assert np.isnan(MonteCarloResult(np.nan, 0.1, 10, (2.0, 3.0), 0).estimate)


@given(
    xs=st.lists(st.floats(-50, 50), min_size=2, max_size=40),
)
def test_mc_result_estimate_between_extremes(xs):
    r = _from_samples(np.array(xs), seed=0)
    assert min(xs) - 1e-9 <= r.estimate <= max(xs) + 1e-9
