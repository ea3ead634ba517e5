"""Chaos-expansion solvers for the linear Skorohod equation.

Three computational routes live here.  The one-parameter solution has a
closed form through Hermite polynomials, so truncated sums and the exact
exponential are both cheap and can be compared pathwise.  Discrete multiple
integrals realize low-order Wiener integrals against retained white noise:
kernels are pushed to white-noise coordinates through the per-axis transfer
matrices and summed off-diagonally (inclusion-exclusion over the partition
lattice).  For the sheet, the explicit kernel structure collapses the
off-diagonal sums into fast recursions over grid cells: a prefix-sum form
when the drift vanishes and a pairwise chain recursion otherwise.

The Wick-corrected Euler scheme and the Picard solver for the deterministic
sheet equation close the loop for the convergence and negativity studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.linalg.blas import dtrmm

from .fields import GaussianField, increment_transfer_matrix
from .model import Grid2D, HurstPair, ModelParams, TimeGrid, build_grid
from .quad import integrate_graded
from .special import (
    VolterraKernelSpec,
    h0,
    h0_array,
    kernel_sq_grade,
    volterra_kernel,
)

__all__ = [
    "OrderTooHigh",
    "TruncatedChaosSolution",
    "PicardResult",
    "kernel_1d_eval",
    "kernel_sheet_eval",
    "exact_solution_1d",
    "chaos_sum_1d",
    "wick_euler_1d",
    "wick_euler_paths",
    "chaos_norm_decay",
    "pushed_kernel_tensor",
    "offdiagonal_contraction",
    "discrete_multiple_integral",
    "solve_sheet_chaos",
    "solve_sheet_chaos_batch",
    "solve_sheet_chaos_total_batch",
    "sheet_solver_route",
    "deterministic_sheet_solution",
    "picard_sheet",
    "sheet_kernel_form_gap",
]

# Tensor routes materialise cells**order entries; keep them in check.
_MAX_TENSOR_ENTRIES = 2**18
# The chain route holds two cells x cells kernels (268 MB at this size).
_MAX_CHAIN_CELLS = 4096


class OrderTooHigh(ValueError):
    """Discrete multiple integrals are capped at order 4."""


@dataclass(frozen=True)
class TruncatedChaosSolution:
    """Per-order contributions of a truncated chaos sum.

    ``orders`` carries one leading axis for the order (0..truncation); the
    remaining axes are whatever the solver evaluated on (grid nodes, paths).
    """

    truncation: int
    orders: np.ndarray

    def __post_init__(self) -> None:
        if self.orders.shape[0] != self.truncation + 1:
            raise ValueError("orders must have truncation+1 leading entries")

    @property
    def total(self) -> np.ndarray:
        return self.orders.sum(axis=0)


# ----------------------------------------------------------------------------
# Explicit kernels
# ----------------------------------------------------------------------------

def kernel_1d_eval(n: int, a: float, b: float, t: float, args) -> float:
    """Order-n solution kernel of the one-parameter equation at time t.

    Constant (a^n / n!) e^{bt} on the cube [0, t]^n, zero outside.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    args = np.asarray(args, dtype=float).reshape(-1)
    if args.size != n:
        raise ValueError(f"expected {n} arguments, got {args.size}")
    if n and (np.any(args < 0.0) or np.any(args > t)):
        return 0.0
    return a**n / math.factorial(n) * math.exp(b * t)


def _chain_sort(pts: np.ndarray) -> Union[np.ndarray, None]:
    # sort by s, ties by t; the set is a chain iff t is then non-decreasing
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    q = pts[order]
    if np.any(np.diff(q[:, 1]) < 0.0):
        return None
    return q


def kernel_sheet_eval(n: int, a: float, b: float, z, args, form: str = "auto") -> float:
    """Order-n sheet kernel at evaluation corner z = (s, t).

    With drift, the kernel is supported on chains: the points must be
    totally ordered by the coordinatewise partial order and inside [0, z];
    its value multiplies drift factors h0(b ds dt) over consecutive chain
    increments (starting from the origin, closing at z).  Without drift the
    kernel instead counts the points that dominate all the others and sit
    inside [0, z]; the two prescriptions agree up to order 2 but not beyond,
    so ``form`` can force either one ("chain" / "count") for diagnostics.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if form not in ("auto", "chain", "count"):
        raise ValueError(f"unknown form {form!r}")
    s, t = float(z[0]), float(z[1])
    pts = np.asarray(args, dtype=float).reshape(-1, 2) if n else np.empty((0, 2))
    if pts.shape[0] != n:
        raise ValueError(f"expected {n} points, got {pts.shape[0]}")
    use_count = form == "count" or (form == "auto" and b == 0.0)
    if n == 0:
        return 1.0 if use_count else h0(b * s * t)
    lead = a**n / math.factorial(n)
    if use_count:
        inside = (pts[:, 0] >= 0.0) & (pts[:, 0] <= s) & (pts[:, 1] >= 0.0) & (pts[:, 1] <= t)
        dominates = np.all(
            (pts[:, None, 0] >= pts[None, :, 0]) & (pts[:, None, 1] >= pts[None, :, 1]),
            axis=1,
        )
        return lead * float(np.count_nonzero(inside & dominates))
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


# ----------------------------------------------------------------------------
# One-parameter solution: exact exponential and Hermite chaos sum
# ----------------------------------------------------------------------------

def exact_solution_1d(a: float, b: float, alpha: float, t, B_t):
    """e^{bt} exp(a B_t - a^2 t^{2 alpha} / 2); broadcasts over arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be >= 0")
    B = np.asarray(B_t, dtype=float)
    out = np.exp(b * t_arr + a * B - 0.5 * a * a * t_arr ** (2.0 * alpha))
    return float(out) if out.ndim == 0 else out


def chaos_sum_1d(
    a: float, b: float, alpha: float, t, B_t, truncation: int
) -> TruncatedChaosSolution:
    """Truncated chaos sum via the Hermite identity.

    Order n contributes e^{bt} (a^n / n!) t^{n alpha} H_n(B_t t^{-alpha})
    with probabilist Hermite polynomials.  At t = 0 only order 0 survives
    (value 1).  ``t`` and ``B_t`` broadcast together, e.g. a grid row against
    a (paths, grid) array of sampled values.

    The orders are filled in place by the variance-scaled Hermite recurrence
    Q_{k+1} = a / (k+1) (B Q_k - a t^{2 alpha} Q_{k-1}), which needs neither
    the division by t^alpha nor its powers.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    B = np.asarray(B_t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be >= 0")
    # zeroing the noise at t = 0 keeps every order above 0 exactly 0 there
    aB = np.where(t_arr > 0.0, a * B, 0.0)
    a2var = a * a * t_arr ** (2.0 * alpha)
    orders = np.empty((truncation + 1,) + aB.shape)
    orders[0] = np.exp(b * t_arr)
    if truncation >= 1:
        np.multiply(aB, orders[0], out=orders[1, ...])
    correction = np.empty(aB.shape)
    for k in range(1, truncation):
        nxt = orders[k + 1, ...]  # a view even for scalar inputs
        np.multiply(aB, orders[k], out=nxt)
        np.multiply(a2var, orders[k - 1], out=correction)
        nxt -= correction
        nxt *= 1.0 / (k + 1)
    return TruncatedChaosSolution(truncation=truncation, orders=orders)


# ----------------------------------------------------------------------------
# Wick-corrected Euler scheme
# ----------------------------------------------------------------------------

def wick_euler_paths(p: ModelParams, grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Scheme trajectories for an array of sampled paths (..., n_steps+1).

    The correction bracket t_{k+1}^{2a} - t_k^{2a} - dt^{2a} vanishes at
    k = 0, so the first step is plain Euler for every alpha and grid.
    """
    if p.b != 0.0:
        raise ValueError("scheme is stated for the driftless equation")
    alpha, a = p.hurst.alpha, p.a
    t = grid.points
    c = t[1:] ** (2.0 * alpha) - t[:-1] ** (2.0 * alpha) - grid.dt ** (2.0 * alpha)
    dB = np.diff(values, axis=-1)
    X = np.empty_like(values)
    X[..., 0] = 1.0
    for k in range(grid.n_steps):
        X[..., k + 1] = X[..., k] * (1.0 + a * dB[..., k] - 0.5 * a * a * c[k])
    return X


def wick_euler_1d(p: ModelParams, n: int, field: GaussianField) -> np.ndarray:
    """Scheme trajectory on an n-step grid for one sampled field."""
    if not isinstance(field.grid, TimeGrid) or field.grid.n_steps != n:
        raise ValueError("field must live on the n-step one-parameter grid")
    return wick_euler_paths(p, field.grid, field.values)


# ----------------------------------------------------------------------------
# Per-order kernel norms
# ----------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _volterra_spec(alpha: float) -> VolterraKernelSpec:
    return VolterraKernelSpec.calibrated(alpha)


def _kernel_sq_grid_estimate(alpha: float, T: float, n_grid: int) -> float:
    """Grid estimate of int_0^T K(T, s)^2 ds: midpoint cells, graded ends.

    The end cells hold the |2 alpha - 1| power behaviour of the squared
    kernel, so they get dedicated graded quadrature while the smooth
    interior uses plain midpoint values.
    """
    if n_grid < 4:
        raise ValueError("n_grid must be >= 4")
    spec = _volterra_spec(alpha)
    edges = np.linspace(0.0, T, n_grid + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    interior = volterra_kernel(spec, T, mids[1:-1])
    dt = T / n_grid
    total = float(interior @ interior) * dt
    e = kernel_sq_grade(alpha)

    def ksq(s: np.ndarray) -> np.ndarray:
        return volterra_kernel(spec, T, s) ** 2

    total += integrate_graded(ksq, 0.0, edges[1], e_a=e, e_b=0.0, tol=1e-10)
    total += integrate_graded(ksq, edges[-2], T, e_a=0.0, e_b=e, tol=1e-10)
    return total


def chaos_norm_decay(p: ModelParams, N: int, n_grid: int = 256) -> np.ndarray:
    """Discrete L2 norms of the white-noise images of the solution kernels.

    The symmetrised order-n kernel is constant a^n / (n+1)! on the cube
    when b = 0, so its pushed norm factorises into per-axis norms of the
    transferred indicator; each axis contributes the square root of the
    grid estimate of int K(T, s)^2 ds.  A nonzero drift enters through the
    t-slot factor e^{bt}, estimated here by its sup envelope (exact at
    b = 0).  Entry n of the result is the order-n norm.
    """
    if p.hurst.is_sheet:
        raise ValueError("norm decay is defined for the one-parameter model")
    if N < 0:
        raise ValueError("truncation must be >= 0")
    Q = _kernel_sq_grid_estimate(p.hurst.alpha, p.T, n_grid)
    drift = 1.0 if p.b == 0.0 else max(1.0, math.exp(p.b * p.T))
    out = np.empty(N + 1)
    for n in range(N + 1):
        out[n] = abs(p.a) ** n / math.factorial(n + 1) * Q ** ((n + 1) / 2.0) * drift
    return out


# ----------------------------------------------------------------------------
# Discrete multiple integrals
# ----------------------------------------------------------------------------

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
    return increment_transfer_matrix(_volterra_spec(alpha), grid)


def pushed_kernel_tensor(
    kernel: Callable, n: int, grid: Union[TimeGrid, Grid2D], regime: HurstPair
) -> np.ndarray:
    """Kernel sampled at cell centers and pushed to white-noise coordinates.

    ``kernel`` receives an array of n cell centers: shape (n,) on a time
    grid, (n, 2) on a product grid.  Each tensor axis is contracted with the
    per-axis increment transfer matrix (tensorized across coordinates for
    the sheet), yielding the coefficient array g against which the retained
    standard-normal noise integrates.
    """
    if n < 1:
        raise ValueError("tensor route needs order >= 1")
    if isinstance(grid, Grid2D):
        if regime.beta is None:
            raise ValueError("sheet grid needs a Hurst pair with beta")
        sc, tc = grid.cell_centers()
        centers = np.column_stack(
            [np.repeat(sc, grid.n_t), np.tile(tc, grid.n_s)]
        )
        M = np.kron(
            _axis_transfer(regime.alpha, grid.n_s, grid.T),
            _axis_transfer(regime.beta, grid.n_t, grid.T),
        )
    else:
        t = grid.points
        centers = (t[:-1] + t[1:]) / 2.0
        M = _axis_transfer(regime.alpha, grid.n_steps, grid.T)
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


def discrete_multiple_integral(
    kernel, n: int, field: GaussianField, regime: HurstPair
) -> float:
    """Discrete order-n Wiener integral of ``kernel`` against the field's noise.

    The field must have been generated through the transfer projection that
    matches ``regime`` on its grid for pathwise identities (telescoping of
    indicator kernels); at Hurst 1/2 the Cholesky sampler already is that
    projection.  Law-level statements (orthogonality across orders, moment
    identities) need only the retained noise.
    """
    if n > 4:
        raise OrderTooHigh(f"order {n} > 4 not supported")
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return float(kernel(np.empty((0,)))) if callable(kernel) else float(kernel)
    g = pushed_kernel_tensor(kernel, n, field.grid, regime)
    return offdiagonal_contraction(g, field.white_noise.reshape(-1))


# ----------------------------------------------------------------------------
# Sheet solver
# ----------------------------------------------------------------------------

def _prefix2d(A: np.ndarray) -> np.ndarray:
    return np.cumsum(np.cumsum(A, axis=-2), axis=-1)


def _sheet_orders_count(a: float, grid: Grid2D, dW: np.ndarray, N: int) -> np.ndarray:
    """Driftless recursion: elementary symmetric functions via prefix sums.

    Order n at a node sums, over top cells c below the node, the increment
    at c times e_{n-1} of the increments strictly dominated by c.  e_k comes
    from the power sums p_1..p_k of those increments by Newton's identities,
    k e_k = sum_i (-1)^(i-1) e_{k-i} p_i.
    """
    R = dW.shape[0]
    orders = np.zeros((N + 1, R, grid.n_s + 1, grid.n_t + 1))
    orders[0] = 1.0
    esym, power = [np.ones_like(dW)], []
    for n in range(1, N + 1):
        orders[n][:, 1:, 1:] = a**n * _prefix2d(dW * esym[n - 1])
        if n < N:
            dWn = dW**n
            power.append(_prefix2d(dWn) - dWn)
            signed = (
                (-1) ** (i - 1) * esym[n - i] * power[i - 1] for i in range(1, n + 1)
            )
            esym.append(sum(signed) / n)
    return orders


def _offset_matrix(k: np.ndarray) -> np.ndarray:
    """Block-Toeplitz matrix ``M[(I, J), (i, j)] = k[I - i, J - j]`` over the cells.

    ``k`` is (n_s, n_t); rows and columns run over the n_s x n_t cells in
    row-major order, and negative offsets read zero, so ``M`` is lower
    triangular.  It is a window view of the flipped, zero-padded table.
    """
    ns, nt = k.shape
    flipped = np.zeros((2 * ns - 1, 2 * nt - 1))
    flipped[:ns, :nt] = k[::-1, ::-1]
    windows = sliding_window_view(flipped, (ns, nt))[::-1, ::-1]
    return windows.reshape(ns * nt, ns * nt)


def _chain_kernel(b: float, grid: Grid2D, shift: float) -> np.ndarray:
    """``h0(b (di + shift) ds (dj + shift) dt)`` over cell offsets, as a matrix.

    ``shift = 0`` gives the cell-to-cell kernel ``P`` with its diagonal
    zeroed (a chain step moves strictly up); ``shift = 1/2`` gives the
    cell-to-node kernel ``Qi``, whose row (I, J) is the interior node
    (I + 1, J + 1), reached from the centres of the cells below it.
    """
    ds = (np.arange(grid.n_s) + shift) * grid.ds
    dt = (np.arange(grid.n_t) + shift) * grid.dt
    k = h0_array(np.multiply.outer(b * ds, dt))
    if shift == 0.0:
        k[0, 0] = 0.0
    return _offset_matrix(k)


def _apply_lower(K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``X @ K.T`` for lower-triangular ``K``, in place when ``X`` is C-ordered.

    BLAS trmm reads ``X.T`` (then F-ordered) as its right operand and
    overwrites it; any other layout is silently copied by scipy first.
    """
    return dtrmm(1.0, K.T, X.T, side=0, lower=0, trans_a=1, overwrite_b=1).T


def _chain_levels(a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int):
    """Yield ``a^n L_n`` for n = 1..N: chain weights per cell, in one buffer.

    ``L_n[c]`` sums, over chains of n cells topped by c, the product of the
    cells' increments ``dW = sqrt(cell area) noise`` and the drift factors
    ``h0`` along the chain from the origin: ``L_n = dW (L_{n-1} P^T)``.
    The buffer is updated in place, so a caller reads each level before
    asking for the next.
    """
    if N == 0:
        return
    R = noise.shape[0]
    w = noise.reshape(R, grid.n_s * grid.n_t)
    scale = a * math.sqrt(grid.cell_area)
    sc, tc = grid.cell_centers()
    L = w * h0_array(np.multiply.outer(b * sc, tc)).reshape(-1)
    L *= scale
    yield L
    if N > 1:
        P = _chain_kernel(b, grid, 0.0)
        for _ in range(2, N + 1):
            L = _apply_lower(P, L)
            L *= w
            L *= scale
            yield L


def _sheet_orders_chain(
    a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Drifted recursion over chains of cells, batched across replicas.

    Order n at interior node z is ``sum_c Qi[z, c] a^n L_n[c]``, where
    ``P[c, c'] = h0(b Δs Δt)`` carries a chain from cell c' to cell c and
    ``Qi[z, c]`` from the centre of cell c to node z.  On a uniform grid
    both depend only on index offsets, so ``h0`` is evaluated once per
    offset.  In row-major cell order ``P`` is strictly lower triangular
    (c' lies strictly below c) and ``Qi`` lower triangular, so BLAS trmm
    applies both in place at half the flops of a dense product.  Nodes on
    the axes s = 0 or t = 0 have no cell below them and keep order 0 only,
    so just the n_s x n_t interior nodes are read out.  The readout is
    linear: a sum over orders needs one readout of ``sum_n a^n L_n``
    (``_sheet_total_chain``).
    """
    R = noise.shape[0]
    orders = np.zeros((N + 1, R, grid.n_s + 1, grid.n_t + 1))
    orders[0] = h0_array(b * np.multiply.outer(grid.s, grid.t))[None]
    if N == 0:
        return orders
    Qi = _chain_kernel(b, grid, 0.5)
    Y = np.empty((R, grid.n_s * grid.n_t))
    for n, level in enumerate(_chain_levels(a, b, grid, noise, N), start=1):
        np.copyto(Y, level)
        Y = _apply_lower(Qi, Y)
        orders[n][:, 1:, 1:] = Y.reshape(R, grid.n_s, grid.n_t)
    return orders


def _sheet_total_chain(
    a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Sum over orders 0..N of ``_sheet_orders_chain``, read out once.

    The recursion, and ``P`` with it, is done before ``Qi`` and the
    surface are built, so at most two replica-sized arrays are live.
    """
    R = noise.shape[0]
    S = np.zeros((R, grid.n_s * grid.n_t))
    for level in _chain_levels(a, b, grid, noise, N):
        S += level
        del level  # so the recursion's buffer is freed before Qi is built
    S = _apply_lower(_chain_kernel(b, grid, 0.5), S)
    total = np.empty((R, grid.n_s + 1, grid.n_t + 1))
    total[:] = h0_array(b * np.multiply.outer(grid.s, grid.t))
    total[:, 1:, 1:] += S.reshape(R, grid.n_s, grid.n_t)
    return total


def _sheet_orders_generic(
    p: ModelParams, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Transfer-matrix route for arbitrary Hurst pairs; small grids only."""
    R = noise.shape[0]
    xi = noise.reshape(R, -1)
    orders = np.zeros((N + 1, R, grid.n_s + 1, grid.n_t + 1))
    orders[0] = h0_array(p.b * np.multiply.outer(grid.s, grid.t))[None]
    for n in range(1, N + 1):
        for i in range(1, grid.n_s + 1):
            for j in range(1, grid.n_t + 1):
                z = (grid.s[i], grid.t[j])
                g = pushed_kernel_tensor(
                    lambda pts: kernel_sheet_eval(n, p.a, p.b, z, pts),
                    n,
                    grid,
                    p.hurst,
                )
                orders[n][:, i, j] = offdiagonal_contraction(g, xi)
    return orders


def sheet_solver_route(p: ModelParams, grid: Grid2D, N: int) -> str:
    """Validate a sheet solve and name its route, before any noise is drawn.

    "count" (Hurst (1/2, 1/2) without drift), "chain" (Hurst (1/2, 1/2)
    with drift) or "generic" (the tensor route).  Raises what the solvers
    raise, including the chain route's refusal of grids above 4096 cells,
    whose cells x cells kernels would not fit in memory.
    """
    if not p.hurst.is_sheet:
        raise ValueError("sheet solver needs a Hurst pair with beta")
    if N > 4:
        raise OrderTooHigh(f"order {N} > 4 not supported")
    if N < 0:
        raise ValueError("truncation must be >= 0")
    if p.hurst.alpha != 0.5 or p.hurst.beta != 0.5:
        return "generic"
    if p.b == 0.0:
        return "count"
    if grid.n_s * grid.n_t > _MAX_CHAIN_CELLS:
        raise ValueError("chain recursion holds cells x cells matrices; grid too large")
    return "chain"


def _sheet_route(p: ModelParams, grid: Grid2D, noise: np.ndarray, N: int) -> str:
    route = sheet_solver_route(p, grid, N)
    if noise.ndim != 3 or noise.shape[1:] != (grid.n_s, grid.n_t):
        raise ValueError("noise must have shape (replicas, n_s, n_t)")
    return route


def solve_sheet_chaos_batch(
    p: ModelParams, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Per-order sheet solution for a batch of noise draws (R, n_s, n_t).

    Returns (N+1, R, n_s+1, n_t+1).  At Hurst (1/2, 1/2) the white-noise
    cells coincide with the sheet increments and the kernel recursions
    apply at any grid size; other regimes fall back to the tensor route.
    """
    route = _sheet_route(p, grid, noise, N)
    if route == "chain":
        return _sheet_orders_chain(p.a, p.b, grid, noise, N)
    if route == "count":
        return _sheet_orders_count(p.a, grid, math.sqrt(grid.cell_area) * noise, N)
    return _sheet_orders_generic(p, grid, noise, N)


def solve_sheet_chaos_total_batch(
    p: ModelParams, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Truncated sheet solution, orders 0..N summed: (R, n_s+1, n_t+1).

    The chain route sums the chain weights over orders and reads the sum
    out once; the other routes sum ``solve_sheet_chaos_batch``'s orders.
    """
    if _sheet_route(p, grid, noise, N) == "chain":
        return _sheet_total_chain(p.a, p.b, grid, noise, N)
    return solve_sheet_chaos_batch(p, grid, noise, N).sum(axis=0)


def solve_sheet_chaos(
    p: ModelParams, grid2d: Grid2D, field: GaussianField, truncation: int
) -> TruncatedChaosSolution:
    """Truncated chaos solution of the sheet equation on one sampled field."""
    if not isinstance(field.grid, Grid2D):
        raise ValueError("field must live on a product grid")
    orders = solve_sheet_chaos_batch(p, grid2d, field.white_noise[None], truncation)
    return TruncatedChaosSolution(truncation=truncation, orders=orders[:, 0])


def sheet_kernel_form_gap(
    a: float, grid: Grid2D, field: GaussianField, z, N: int
) -> np.ndarray:
    """Per-order gap between the two driftless kernel prescriptions at z.

    The chain form and the count form agree up to order 2 and genuinely
    differ from order 3 on; this reports the discrete-integral difference
    rather than asserting either way.
    """
    regime = HurstPair(0.5, 0.5)
    out = np.zeros(N + 1)
    for n in range(1, N + 1):
        vals = {}
        for form in ("count", "chain"):
            vals[form] = discrete_multiple_integral(
                lambda pts, f=form: kernel_sheet_eval(n, a, 0.0, z, pts, form=f),
                n,
                field,
                regime,
            )
        out[n] = vals["count"] - vals["chain"]
    return out


# ----------------------------------------------------------------------------
# Deterministic sheet equation
# ----------------------------------------------------------------------------

def deterministic_sheet_solution(a: float, s, t):
    """Closed-form solution h0(a s t) of g = 1 + a iint g."""
    x = a * np.asarray(s, dtype=float) * np.asarray(t, dtype=float)
    if x.ndim == 0:
        return h0(float(x))
    return h0_array(x)


@dataclass(frozen=True)
class PicardResult:
    values: np.ndarray
    iterations: int
    converged: bool
    rule: str


def _cumulative_2d(g: np.ndarray, s: np.ndarray, t: np.ndarray, rule: str) -> np.ndarray:
    if rule == "rectangle":
        ds = s[1] - s[0]
        dt = t[1] - t[0]
        out = np.zeros_like(g)
        out[1:, 1:] = _prefix2d(g[:-1, :-1]) * ds * dt
        return out
    if rule == "trapezoid":
        inner = cumulative_trapezoid(g, x=t, axis=1, initial=0.0)
        return cumulative_trapezoid(inner, x=s, axis=0, initial=0.0)
    if rule == "simpson":
        inner = cumulative_simpson(g, x=t, axis=1, initial=0.0)
        return cumulative_simpson(inner, x=s, axis=0, initial=0.0)
    raise ValueError(f"unknown rule {rule!r}")


def picard_sheet(
    a: float,
    grid: Grid2D,
    rule: str = "simpson",
    max_iter: int = 200,
    tol: float = 1e-10,
) -> PicardResult:
    """Fixed point of g = 1 + a iint_{[0,s]x[0,t]} g by Picard iteration.

    The contraction factor decays like (|a| T^2)^k / (k!)^2, so the stop
    criterion (sup-norm change below tol) is reached in a handful of
    iterations.  ``rule`` picks the cumulative quadrature; the default
    follows the accuracy needed at 64x64 grids rather than the cheapest
    rule (see the trade-off measurements in the tests).
    """
    g = np.ones((grid.n_s + 1, grid.n_t + 1))
    for it in range(1, max_iter + 1):
        gn = 1.0 + a * _cumulative_2d(g, grid.s, grid.t, rule)
        delta = float(np.max(np.abs(gn - g)))
        g = gn
        if delta <= tol:
            return PicardResult(values=g, iterations=it, converged=True, rule=rule)
    return PicardResult(values=g, iterations=max_iter, converged=False, rule=rule)
