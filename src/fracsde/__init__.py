"""Numerical toolkit for linear Skorohod equations under fractional noise.

Modules
-------
``model``        parameter and grid dataclasses, seeded stream plumbing
``special``      the squared-factorial series h0 in Bessel form, Hermite
                 batteries, square-root Volterra kernels and their
                 closed-form constant
``quad``         graded Gauss-Legendre quadrature for endpoint powers
``fields``       exact Gaussian samplers for fractional motions and sheets,
                 one batch route each
``operators``    adjoint-kernel transfer, fractional integrals and
                 derivatives (one route each), the inverse-kernel map with
                 its exponent check, and the shift density
``chaos``        chaos-expansion solvers (the Hermite sum on paths, the
                 Brownian-sheet chain recursion over noise blocks),
                 Wick-corrected Euler scheme, the closed-form
                 deterministic sheet profile
``experiments``  reproducible Monte Carlo studies behind the CLI

The slow independent routes that the tests compare against (the tensor
evaluator of discrete multiple integrals, the Volterra projection, Picard
iteration, nested-quadrature norms) live in ``tests/oracles.py``.
"""
from .model import (
    Grid2D,
    HurstPair,
    ModelParams,
    MonteCarloResult,
    RngStreamSpec,
    TimeGrid,
    build_grid,
    build_grid2d,
)
from .special import (
    NegativityInterval,
    h0,
    h0_array,
    negativity_interval,
    volterra_kernel,
)
from .fields import (
    cov_fbm,
    factor_covariance,
    sample_fbm_batch,
    sample_sheet_batch,
)
from .operators import (
    GridFunction2D,
    check_regime,
    frac_derivative_2d,
    frac_integral_2d,
    girsanov_log_density,
    kinv_apply_F,
    rkhs_norm_sq_separable,
)
from .chaos import (
    chaos_total_1d,
    deterministic_sheet_solution,
    exact_solution_1d,
    solve_sheet_chaos_total_blocks,
    wick_euler_paths,
)
from .experiments import ExperimentReport, RunSettings

__version__ = "0.1.0"
