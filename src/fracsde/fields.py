"""Exact Gaussian samplers for fractional Brownian motion and the fractional sheet.

Sampling is by Cholesky factorisation of the exact covariance on the grid
(time zero excluded, where the field is identically 0).  The sheet factorises:
its covariance is the product of the two one-parameter covariances, so a
matrix normal V = L_s Z L_t' with Z iid standard normal has exactly the right
law.  (The tests keep a second, independent route as their oracle: the
motion expressed through its Volterra kernel acting on white noise.)

``factor_covariance`` returns the lower Cholesky factor itself, a plain
(n, n) array, and both samplers read their cell counts from its side.
Both hand back, or take, the standard-normal draws behind each field: the
discrete Skorohod machinery integrates against that noise, not against
the field increments.  ``sample_fbm_batch`` draws its noise from the
generator it is given, so a caller can sample a chunk's stream block by
block; ``sample_sheet_batch`` maps noise its caller drew, so sheet
``simulate`` sizes its blocks of replicas itself.
"""
from __future__ import annotations

import numpy as np

from .model import TimeGrid

__all__ = [
    "NotPositiveDefinite",
    "cov_fbm",
    "fbm_covariance",
    "factor_covariance",
    "sample_fbm_batch",
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


def factor_covariance(alpha: float, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor L, (n, n), of the exact covariance on the
    grid's n positive points."""
    return _cholesky_guarded(alpha, grid.points[1:])


def sample_fbm_batch(
    L: np.ndarray,
    n_replicas: int,
    rng: np.random.Generator,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, noise) for many replicas at once: shapes (R, n+1), (R, n).

    ``L`` is the (n, n) factor of ``factor_covariance``; the noise is the
    next R x n standard normals of ``rng``, so successive calls on one
    generator draw successive row blocks of one stream.

    ``out=(values, noise)`` fills those float arrays instead of fresh ones
    and returns them, with the same bits; a wrong shape, a dtype other than
    float64 or non-C-contiguous noise (the draws fill it in memory order)
    raises ``ValueError`` before any draw.  ``values`` may have either
    memory order: node-major callers pass the transpose of an (n+1, R)
    array.  The product is one GEMM over the R rows.  A row block's GEMM
    gives the rows of one GEMM over the whole batch, bit for bit, when the
    block starts at a multiple of 8 rows and holds more than 192 (measured
    on OpenBLAS 0.3.31, one thread; see ``experiments._row_blocks``);
    shorter blocks round differently.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    n = len(L)
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
    rng.standard_normal(out=z)
    values[:, 0] = 0.0
    np.matmul(z, L.T, out=values[:, 1:])
    return values, z


def sample_sheet_batch(
    Ls: np.ndarray,
    Lt: np.ndarray,
    z: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Write the sheets V = L_s Z L_t' of noise ``z`` (R, n_s, n_t) into
    ``out`` (R, n_s+1, n_t+1), zero on the axes, and return ``out``.

    ``Ls`` and ``Lt`` are the two axes' factors (``factor_covariance``),
    of sides n_s and n_t; a wrong shape raises ``ValueError`` before any
    product.  Each replica is its own pair of matrix products, so no bit
    depends on how replicas are blocked.
    """
    cells = (len(Ls), len(Lt))
    if z.ndim != 3 or z.shape[1:] != cells:
        raise ValueError(f"noise of shape {z.shape} is not (replicas, {cells[0]}, {cells[1]})")
    shape = (len(z), cells[0] + 1, cells[1] + 1)
    if out.shape != shape:
        raise ValueError(f"out of shape {out.shape} is not {shape}")
    out[:, 0, :] = 0.0
    out[:, 1:, 0] = 0.0
    # the second product goes straight into out: a block's worth less
    # memory than a temporary, and the same GEMM calls, so the same bits
    np.matmul(Ls @ z, Lt.T, out=out[:, 1:, 1:])
    return out
