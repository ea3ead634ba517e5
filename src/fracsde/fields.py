"""Exact Gaussian samplers for fractional Brownian motion and the fractional sheet.

Sampling is by Cholesky factorisation of the exact covariance on the grid
(time zero excluded, where the field is identically 0).  The sheet factorises:
its covariance is the product of the two one-parameter covariances, so a
matrix normal V = L_s Z L_t' with Z iid standard normal has exactly the right
law.  (The tests keep a second, independent route as their oracle: the
motion expressed through its Volterra kernel acting on white noise.)

Every sampled field keeps the standard-normal draws that generated it
(``GaussianField.white_noise``): the discrete Skorohod machinery integrates
against that noise, not against the field increments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import Grid2D, RngStreamSpec, TimeGrid

__all__ = [
    "NotPositiveDefinite",
    "GaussianField",
    "CovarianceFactor",
    "cov_fbm",
    "fbm_covariance",
    "factor_covariance",
    "sample_fbm",
    "sample_fbm_batch",
    "sample_sheet",
    "sample_sheet_batch",
]


class NotPositiveDefinite(np.linalg.LinAlgError):
    """Covariance matrix failed Cholesky factorisation on this grid."""


def cov_fbm(alpha: float, s, u):
    """R(s, u) = (s^{2a} + u^{2a} - |s-u|^{2a}) / 2; broadcasts over arrays."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(s < 0.0) or np.any(u < 0.0):
        raise ValueError("time points must be >= 0")
    p = 2.0 * alpha
    out = 0.5 * (s**p + u**p - np.abs(s - u) ** p)
    return float(out) if out.ndim == 0 else out


def fbm_covariance(alpha: float, t: np.ndarray) -> np.ndarray:
    """Full covariance matrix on the grid t x t."""
    t = np.asarray(t, dtype=float)
    return cov_fbm(alpha, t[:, None], t[None, :])


@dataclass(frozen=True)
class GaussianField:
    """A sampled field together with the white noise that generated it.

    values live on the grid nodes (origin row/column pinned at 0); white_noise
    is the array of iid standard normals, one per grid cell, from which the
    values were built.  Keeping the noise makes the sample usable as the
    driver of discrete multiple integrals.
    """

    grid: Union[TimeGrid, Grid2D]
    values: np.ndarray
    white_noise: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.grid, Grid2D):
            ns, nt = self.grid.n_s, self.grid.n_t
            if self.values.shape != (ns + 1, nt + 1):
                raise ValueError("sheet values must cover all grid nodes")
            if self.white_noise.shape != (ns, nt):
                raise ValueError("sheet noise must have one entry per cell")
            edge = max(np.max(np.abs(self.values[0, :])), np.max(np.abs(self.values[:, 0])))
            if edge != 0.0:
                raise ValueError("sheet must vanish on the coordinate axes")
        else:
            n = self.grid.n_steps
            if self.values.shape != (n + 1,):
                raise ValueError("path values must cover all grid nodes")
            if self.white_noise.shape != (n,):
                raise ValueError("path noise must have one entry per cell")
            if self.values[0] != 0.0:
                raise ValueError("path must start at 0")


@dataclass(frozen=True)
class CovarianceFactor:
    """Lower Cholesky factor of the exact fBm covariance on grid.points[1:]."""

    alpha: float
    grid: TimeGrid
    lower_triangular: np.ndarray


def _cholesky_guarded(alpha: float, t: np.ndarray) -> np.ndarray:
    # near-singular but formally positive matrices (very fine grids, alpha
    # near 1) are rejected when a pivot's square collapses below 1e-13 of
    # its diagonal entry, so the guard does not depend on the scale of T
    R = fbm_covariance(alpha, t)
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"covariance not positive definite for alpha={alpha}, n={len(t)}"
        ) from exc
    if np.any(np.diag(L) ** 2 < 1e-13 * np.diag(R)):
        raise NotPositiveDefinite(
            f"covariance numerically rank-deficient for alpha={alpha}, n={len(t)}"
        )
    return L


def factor_covariance(alpha: float, grid: TimeGrid) -> CovarianceFactor:
    """Factor the exact covariance on the positive grid points."""
    L = _cholesky_guarded(alpha, grid.points[1:])
    return CovarianceFactor(alpha=alpha, grid=grid, lower_triangular=L)


def sample_fbm(factor: CovarianceFactor, rng_spec: RngStreamSpec) -> GaussianField:
    """One path of the motion on the factor's grid, noise retained."""
    n = factor.grid.n_steps
    z = rng_spec.generator().standard_normal(n)
    values = np.zeros(n + 1)
    values[1:] = factor.lower_triangular @ z
    return GaussianField(grid=factor.grid, values=values, white_noise=z)


def sample_fbm_batch(
    factor: CovarianceFactor,
    n_replicas: int,
    rng_spec: RngStreamSpec,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, noise) for many replicas at once: shapes (R, n+1), (R, n).

    ``out=(values, noise)`` fills those float arrays instead of fresh ones
    and returns them, with the same bits; a wrong shape, a dtype other than
    float64 or non-C-contiguous noise (the draws fill it in memory order)
    raises ``ValueError`` before any draw.  ``values`` may have either
    memory order: node-major callers pass the transpose of an (n+1, R)
    array.  The product is one GEMM over all R rows; split into blocks of
    a few rows, the BLAS kernel rounds differently.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    n = factor.grid.n_steps
    shapes = (n_replicas, n + 1), (n_replicas, n)
    if out is None:
        values, z = np.empty(shapes[0]), np.empty(shapes[1])
    else:
        values, z = out
        if (values.shape, z.shape) != shapes or not (
            z.flags.c_contiguous and values.dtype == z.dtype == np.float64
        ):
            raise ValueError(
                f"out must be float64 arrays of shapes {shapes}, the noise C-contiguous"
            )
    rng_spec.generator().standard_normal(out=z)
    values[:, 0] = 0.0
    np.matmul(z, factor.lower_triangular.T, out=values[:, 1:])
    return values, z


def sample_sheet(
    alpha: float, beta: float, grid: Grid2D, rng_spec: RngStreamSpec
) -> GaussianField:
    """One sheet sample V = L_s Z L_t' on grid nodes, noise Z retained."""
    values, z = sample_sheet_batch(alpha, beta, grid, 1, rng_spec)
    return GaussianField(grid=grid, values=values[0], white_noise=z[0])


def sample_sheet_batch(
    alpha: float, beta: float, grid: Grid2D, n_replicas: int, rng_spec: RngStreamSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Sheet replicas: values (R, n_s+1, n_t+1) and noise (R, n_s, n_t)."""
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    Ls = _cholesky_guarded(alpha, grid.s[1:])
    Lt = _cholesky_guarded(beta, grid.t[1:])
    z = rng_spec.generator().standard_normal((n_replicas, grid.n_s, grid.n_t))
    values = np.zeros((n_replicas, grid.n_s + 1, grid.n_t + 1))
    values[:, 1:, 1:] = Ls @ z @ Lt.T
    return values, z
