"""Reference routes that the tests compare the package against.

None of this runs in a command.  Each piece is a slow, independent way to
compute something the package computes another way:

* the tensor evaluator of discrete multiple integrals: solution kernels
  sampled at cell centres, pushed to white-noise coordinates through the
  per-axis transfer matrices and summed off-diagonally (inclusion-exclusion
  over the partition lattice); ``_sheet_orders_generic`` runs it for every
  node of a sheet grid, against the chain recursion of ``fracsde.chaos``;
* Picard iteration for the deterministic sheet equation, against its
  closed form h0(a s t);
* the three-term Hermite recurrence, one value at a time, against
  ``fracsde.special.hermite_all``;
* nested-quadrature kernel norms, the adjoint map at one point and the
  closed-form amplitude of the inverse-kernel profile;
* the Volterra projection: the motion expressed through its kernel acting
  on white noise, against the Cholesky samplers of ``fracsde.fields``.

Tests import it as ``from oracles import ...``; ``tests/`` is on the path
under pytest's default import mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from fracsde.model import (
    Grid2D,
    RngStreamSpec,
    TimeGrid,
    build_grid,
)
from fracsde.operators import RegimeUndefined, _kstar_points
from fracsde.quad import gauss_legendre_01, integrate_graded
from fracsde.special import h0, h0_array, kernel_sq_grade, volterra_kernel

# Tensor routes materialise cells**order entries; keep them in check.
_MAX_TENSOR_ENTRIES = 2**18


# ----------------------------------------------------------------------------
# probabilist Hermite polynomials
# ----------------------------------------------------------------------------

def hermite(n: int, x: float) -> float:
    """H_n(x) with H_{n+1} = x H_n - n H_{n-1}, H_0 = 1, H_1 = x."""
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return 1.0
    hm, h = 1.0, float(x)
    for k in range(1, n):
        hm, h = h, x * h - k * hm
    return h


# ----------------------------------------------------------------------------
# kernel norms, the adjoint map at a point, the inverse-kernel amplitude
# ----------------------------------------------------------------------------

def kernel_sq_integral(alpha: float, t: float, tol: float = 1e-10) -> float:
    """int_0^t K(t, s)^2 ds, graded at both endpoints for the kernel powers."""
    e = kernel_sq_grade(alpha)
    f = lambda s: volterra_kernel(alpha, t, s) ** 2
    return integrate_graded(f, 0.0, t, e_a=e, e_b=e, n0=96, tol=tol)


def kstar_pointwise(
    alpha: float,
    phi: Callable[[np.ndarray], np.ndarray],
    s: float,
    T: float,
    breakpoints: Sequence[float] = (),
    tol: float = 1e-9,
) -> float:
    """(K* phi)(s) for scalar s in (0, T).

    ``phi`` must be vectorised: it maps an array of points to the array of
    its values, of the same shape.  ``breakpoints`` lists jump locations of
    phi inside (0, T); the increment integral is split there so each piece
    sees a smooth integrand.
    """
    return float(_kstar_points(alpha, phi, np.array([s]), T, breakpoints, tol)[0])


def kinv_profile_constant(h: float) -> float:
    """Amplitude Gamma(3/2-h)/Gamma(2-2h) that the axis profile scales by.

    Document of record for the separable drift: the two-parameter map
    factorises, and the product of the two axis amplitudes is the constant
    in front of t^{1/2-alpha} s^{1/2-beta}.  The numeric route of
    ``fracsde.operators.kinv_axis_factor`` never uses this value.
    """
    if h == 0.5:
        raise RegimeUndefined("amplitude undefined at h = 1/2")
    if not (0.0 < h < 1.0):
        raise ValueError(f"h={h} not in (0, 1)")
    return math.gamma(1.5 - h) / math.gamma(2.0 - 2.0 * h)


# ----------------------------------------------------------------------------
# Volterra projection of fractional noise
# ----------------------------------------------------------------------------

def volterra_projection_matrix(alpha: float, grid: TimeGrid) -> np.ndarray:
    """C[j, i] = cell-averaged kernel int_{cell_i} K(t_j, s) ds / sqrt(dt).

    Applied to iid normals xi, the vector C xi has covariance C C', the cell
    discretisation of the exact covariance; the Cholesky sampler stays the
    production route, this one ties field values to their white noise.
    """
    return _projection_matrix(alpha, grid.n_steps, grid.T)


# Projection matrices are quadrature-heavy; memoise per (alpha, n_steps, T).
@lru_cache(maxsize=32)
def _projection_matrix(alpha: float, n_steps: int, T: float) -> np.ndarray:
    grid = build_grid(n_steps, T)
    t = grid.points
    n = grid.n_steps
    dt = grid.dt
    u, w = gauss_legendre_01(24)
    C = np.zeros((n, n))
    for j in range(1, n + 1):
        tj = t[j]
        for i in range(j):
            a, b = t[i], t[i + 1]
            # cell touching t_j: grade for the (t_j - s)^{alpha-1/2} factor
            if i == j - 1 and alpha < 0.5:
                p = 1.0 / (alpha + 0.5)
                s = b - (b - a) * u**p
                ws = w * (b - a) * p * u ** (p - 1.0)
            else:
                s = a + (b - a) * u
                ws = w * (b - a)
            C[j - 1, i] = float(volterra_kernel(alpha, tj, s) @ ws) / np.sqrt(dt)
    return C


def increment_transfer_matrix(alpha: float, grid: TimeGrid) -> np.ndarray:
    """M with Delta B_k = sum_i M[k, i] xi_i; rows are increments of C.

    At alpha = 1/2 this is exactly sqrt(dt) * I: white-noise cells coincide
    with the increment cells of the motion.
    """
    C = volterra_projection_matrix(alpha, grid)
    return np.diff(C, axis=0, prepend=0.0)


def sample_fbm_volterra(
    alpha: float, grid: TimeGrid, n_replicas: int, rng_spec: RngStreamSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Paths driven through the Volterra kernel: (values, noise) batch."""
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    C = volterra_projection_matrix(alpha, grid)
    z = rng_spec.generator().standard_normal((n_replicas, grid.n_steps))
    out = np.zeros((n_replicas, grid.n_steps + 1))
    out[:, 1:] = z @ C.T  # C already carries the 1/sqrt(dt) white-noise scale
    return out, z


def sample_sheet_volterra(
    alpha: float,
    beta: float,
    grid: Grid2D,
    n_replicas: int,
    rng_spec: RngStreamSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Sheet replicas driven through the kernel on both axes.

    ``alpha`` is the exponent along s and ``beta`` the one along t.
    V = C_s Xi C_t' so rectangle increments are exactly M_s Xi M_t' with the
    per-axis increment transfer matrices.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    Cs = volterra_projection_matrix(alpha, build_grid(grid.n_s, grid.T))
    Ct = volterra_projection_matrix(beta, build_grid(grid.n_t, grid.T))
    z = rng_spec.generator().standard_normal((n_replicas, grid.n_s, grid.n_t))
    values = np.zeros((n_replicas, grid.n_s + 1, grid.n_t + 1))
    values[:, 1:, 1:] = Cs @ z @ Ct.T
    return values, z


# ----------------------------------------------------------------------------
# Tensor evaluator of discrete multiple integrals
# ----------------------------------------------------------------------------

def _chain_sort(pts: np.ndarray) -> Union[np.ndarray, None]:
    # sort by s, ties by t; the set is a chain iff t is then non-decreasing
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    q = pts[order]
    if np.any(np.diff(q[:, 1]) < 0.0):
        return None
    return q


def kernel_sheet_eval(n: int, a: float, b: float, z, args) -> float:
    """Order-n sheet kernel at evaluation corner z = (s, t).

    The kernel is supported on chains: the points must be totally ordered
    by the coordinatewise partial order and inside [0, z].  Its value
    a^n / n! multiplies drift factors h0(b ds dt) over consecutive chain
    increments (starting from the origin, closing at z).  Without drift
    every factor is h0(0) = 1, so the kernel is a^n / n! on chains: the
    Skorohod integral of I_{n-1}(g) is I_n of its symmetrisation, so only
    the top point of a chain carries the others.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    s, t = float(z[0]), float(z[1])
    pts = np.asarray(args, dtype=float).reshape(-1, 2) if n else np.empty((0, 2))
    if pts.shape[0] != n:
        raise ValueError(f"expected {n} points, got {pts.shape[0]}")
    if n == 0:
        return h0(b * s * t)
    lead = a**n / math.factorial(n)
    if np.any(pts < 0.0) or np.any(pts[:, 0] > s) or np.any(pts[:, 1] > t):
        return 0.0
    q = _chain_sort(pts)
    if q is None:
        return 0.0
    val = lead
    prev_s, prev_t = 0.0, 0.0
    for qs, qt in q:
        val *= h0(b * (qs - prev_s) * (qt - prev_t))
        prev_s, prev_t = qs, qt
    return val * h0(b * (s - prev_s) * (t - prev_t))


@lru_cache(maxsize=8)
def _set_partitions(n: int) -> tuple:
    """All partitions of {0..n-1} as tuples of blocks."""
    if n == 0:
        return ((),)
    out = []
    for p in _set_partitions(n - 1):
        out.append(p + ((n - 1,),))
        for i in range(len(p)):
            out.append(p[:i] + (p[i] + (n - 1,),) + p[i + 1:])
    return tuple(out)


def offdiagonal_contraction(g: np.ndarray, xi: np.ndarray):
    """Sum of g(i_1..i_n) xi_{i_1}..xi_{i_n} over pairwise-distinct indices.

    Inclusion-exclusion over the partition lattice: each coincidence
    pattern contributes a full contraction of g against powered noise,
    weighted by the Moebius coefficient prod (-1)^{|B|-1} (|B|-1)!.
    ``xi`` may carry leading batch axes; the result has the batch shape.
    """
    n = g.ndim
    xi = np.asarray(xi, dtype=float)
    batch = xi.shape[:-1]
    flat = xi.reshape(-1, xi.shape[-1])
    total = np.zeros(flat.shape[0])
    letters = "abcd"
    for blocks in _set_partitions(n):
        coef = 1.0
        for blk in blocks:
            coef *= (-1.0) ** (len(blk) - 1) * math.factorial(len(blk) - 1)
        pos = {}
        for bi, blk in enumerate(blocks):
            for k in blk:
                pos[k] = letters[bi]
        gsub = "".join(pos[k] for k in range(n))
        opsub = ",".join("z" + letters[bi] for bi in range(len(blocks)))
        operands = [flat ** len(blk) for blk in blocks]
        total += coef * np.einsum(f"{gsub},{opsub}->z", g, *operands)
    if batch:
        return total.reshape(batch)
    return float(total[0])


def _axis_transfer(alpha: float, n_cells: int, T: float) -> np.ndarray:
    grid = build_grid(n_cells, T)
    if alpha == 0.5:
        return math.sqrt(grid.dt) * np.eye(n_cells)
    return increment_transfer_matrix(alpha, grid)


def pushed_kernel_tensor(
    kernel: Callable,
    n: int,
    grid: Union[TimeGrid, Grid2D],
    alpha: float,
    beta: float | None = None,
) -> np.ndarray:
    """Kernel sampled at cell centers and pushed to white-noise coordinates.

    ``kernel`` receives an array of n cell centers: shape (n,) on a time
    grid, (n, 2) on a product grid.  Each tensor axis is contracted with the
    per-axis increment transfer matrix (tensorized across coordinates for
    the sheet, with Hurst exponent ``alpha`` along s and ``beta`` along t),
    yielding the coefficient array g against which the retained
    standard-normal noise integrates.
    """
    if n < 1:
        raise ValueError("tensor route needs order >= 1")
    if isinstance(grid, Grid2D):
        if beta is None:
            raise ValueError("sheet grid needs a beta")
        sc, tc = grid.cell_centers()
        centers = np.column_stack(
            [np.repeat(sc, grid.n_t), np.tile(tc, grid.n_s)]
        )
        M = np.kron(
            _axis_transfer(alpha, grid.n_s, grid.T),
            _axis_transfer(beta, grid.n_t, grid.T),
        )
    else:
        t = grid.points
        centers = (t[:-1] + t[1:]) / 2.0
        M = _axis_transfer(alpha, grid.n_steps, grid.T)
    m = centers.shape[0]
    if m**n > _MAX_TENSOR_ENTRIES:
        raise ValueError(
            f"order-{n} tensor on {m} cells exceeds the size guard; coarsen the grid"
        )
    f = np.empty((m,) * n)
    for idx in np.ndindex(f.shape):
        f[idx] = kernel(centers[list(idx)])
    g = f
    for _ in range(n):
        g = np.tensordot(g, M, axes=([0], [0]))
    return g


def _sheet_orders_generic(
    a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Transfer-matrix route at the sheet solvers' Hurst pair (1/2, 1/2),
    the signature of ``solve_sheet_chaos_batch``; small grids only."""
    R = noise.shape[0]
    xi = noise.reshape(R, -1)
    orders = np.zeros((N + 1, R, grid.n_s + 1, grid.n_t + 1))
    orders[0] = h0_array(b * np.multiply.outer(grid.s, grid.t))
    for n in range(1, N + 1):
        for i in range(1, grid.n_s + 1):
            for j in range(1, grid.n_t + 1):
                z = (grid.s[i], grid.t[j])
                g = pushed_kernel_tensor(
                    lambda pts: kernel_sheet_eval(n, a, b, z, pts),
                    n,
                    grid,
                    0.5,
                    0.5,
                )
                orders[n][:, i, j] = offdiagonal_contraction(g, xi)
    return orders


# ----------------------------------------------------------------------------
# Deterministic sheet equation by Picard iteration
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardResult:
    values: np.ndarray
    iterations: int
    converged: bool


def _cumulative_2d(g: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    from scipy.integrate import cumulative_simpson

    inner = cumulative_simpson(g, x=t, axis=1, initial=0.0)
    return cumulative_simpson(inner, x=s, axis=0, initial=0.0)


def picard_sheet(
    a: float,
    grid: Grid2D,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> PicardResult:
    """Fixed point of g = 1 + a iint_{[0,s]x[0,t]} g by Picard iteration.

    The contraction factor decays like (|a| T^2)^k / (k!)^2, so the stop
    criterion (sup-norm change below tol) is reached in a handful of
    iterations.  The cumulative quadrature is Simpson's rule in each
    coordinate.
    """
    g = np.ones((grid.n_s + 1, grid.n_t + 1))
    for it in range(1, max_iter + 1):
        gn = 1.0 + a * _cumulative_2d(g, grid.s, grid.t)
        delta = float(np.max(np.abs(gn - g)))
        g = gn
        if delta <= tol:
            return PicardResult(values=g, iterations=it, converged=True)
    return PicardResult(values=g, iterations=max_iter, converged=False)
