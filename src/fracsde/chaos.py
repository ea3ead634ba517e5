"""Chaos-expansion solvers for the linear Skorohod equation.

The one-parameter solution has a closed form through Hermite polynomials,
so truncated sums and the exact exponential are both cheap and can be
compared pathwise.  For the Brownian sheet, Hurst (1/2, 1/2), the white-noise
cells coincide with the sheet increments and the solution kernel is
supported on chains of points, so each chaos order is one recursion over
grid cells that extends a chain by one cell per order: by prefix sums when
the drift vanishes, and otherwise through triangular kernels applied one
pair of t-tiles at a time.  The sheet solvers run this pair alone and take
no Hurst exponent; the tests keep a tensor evaluator of discrete multiple
integrals for any pair as their oracle.  Every solver takes the scalars it
reads and a grid, the only carrier of the horizon T.

The Wick-corrected Euler scheme and the closed-form deterministic sheet
profile close the loop for the convergence and negativity studies.

The commands run ``chaos_total_1d``, ``wick_euler_factors`` and
``solve_sheet_chaos_total_blocks``; ``chaos_sum_1d`` and
``solve_sheet_chaos_batch`` keep every order, and ``wick_euler_paths``
every step, for the tests to compare.
The solvers size no blocks, bar the trmm buffer of the drifted chain
route: the commands in ``experiments`` cut every row and noise block.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Grid2D, TimeGrid
from .special import h0, h0_array

__all__ = [
    "exact_solution_1d",
    "chaos_sum_1d",
    "chaos_total_1d",
    "wick_euler_factors",
    "wick_euler_paths",
    "chaos_norm_decay",
    "solve_sheet_chaos_batch",
    "solve_sheet_chaos_total_blocks",
    "check_sheet_solve",
    "deterministic_sheet_solution",
]

# Cells of the largest drifted sheet grid.  Its chain kernels' tile array
# takes 24.9 MB at 64 x 64 (6 tiles of 11 t cells), but 136 MB at 342 x 12,
# where one tile holds the whole grid.
_MAX_CHAIN_CELLS = 4096
# t cells per tile of the drifted chain route, at most (see _tile_width).
# At grid 48 (one thread, 227 replicas, medians of two sets of 25
# interleaved runs) an apply on tiles of 8, 12 or 16 cells took 0.89-0.90,
# 0.88-0.89 and 0.85-0.86 of the time of one cells x cells trmm, and the
# tile array takes 7.4, 11.2 and 14.8 MB against 42.5 MB.
_TILE_T_CELLS = 12
# Values, at most, in the trmm operand buffer of _apply_tiles; larger
# batches are applied in row blocks.
_TILE_BUFFER_VALUES = 2**18
# Side of each kernel tile's square, a multiple of this.  OpenBLAS 0.3.31
# (Haswell kernels) gave a trmm whose bits moved with the number of
# right-hand columns at sides 362-364 and 588, and none at any multiple of
# 8 from 8 to 1296, at 1 and 2 threads.
_TRMM_ALIGN = 8


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


def _chaos_inputs(a: float, b: float, alpha: float, t, B_t, truncation: int):
    """Validated inputs of the chaos sum: B, t > 0, a^2 t^{2 alpha}, e^{bt}.

    The last three are evaluated on the shape of ``t`` alone.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    B = np.asarray(B_t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be >= 0")
    return B, t_arr > 0.0, a * a * t_arr ** (2.0 * alpha), np.exp(b * t_arr)


def chaos_sum_1d(
    a: float, b: float, alpha: float, t, B_t, truncation: int
) -> np.ndarray:
    """Every order of the truncated chaos sum, (N+1, ...), via the Hermite identity.

    Order n contributes e^{bt} (a^n / n!) t^{n alpha} H_n(B_t t^{-alpha})
    with probabilist Hermite polynomials.  At t = 0 only order 0 survives
    (value 1).  ``t`` and ``B_t`` broadcast together, e.g. a grid row against
    a (paths, grid) array of sampled values.

    This is the per-order oracle of the tests: no command runs it.  The
    commands want only the sum, which ``chaos_total_1d`` evaluates as one
    polynomial in a B_t without storing the orders; it agrees with the
    sum over this array's leading axis to rounding.

    The orders come from the variance-scaled Hermite recurrence
    Q_{k+1} = a / (k+1) (B Q_k - a t^{2 alpha} Q_{k-1}), which needs neither
    the division by t^alpha nor its powers.
    """
    B, live, a2var, e0 = np.broadcast_arrays(
        *_chaos_inputs(a, b, alpha, t, B_t, truncation)
    )
    # zeroing the noise at t = 0 keeps every order above 0 exactly 0 there
    aB = np.where(live, a * B, 0.0)
    orders = np.empty((truncation + 1,) + aB.shape)
    orders[0, ...] = e0
    if truncation >= 1:
        np.multiply(aB, orders[0, ...], out=orders[1, ...])
    for k in range(1, truncation):
        # orders[k, ...] is a view even for scalar inputs; orders[k] is not
        nxt = orders[k + 1, ...]
        np.multiply(aB, orders[k, ...], out=nxt)
        nxt -= a2var * orders[k - 1, ...]
        nxt *= 1.0 / (k + 1)
    return orders


def _horner_coefficients(y: float, e0: float, truncation: int) -> tuple[float, ...]:
    """c_j = e0 E_{(N-j)//2}(y) / j! for j = 0..N; E_m(y) = sum_{i<=m} y^i / i!.

    Each coefficient is computed exactly in integers and rounded once:
    float partial sums of E_m at y = -a^2 t^{2 alpha} / 2 cancel, losing up
    to e^{2|y|} relative.  With y = p / q and e0 = r / s, E_m(y) is
    n_m / (q^m m!) with n_m = q m n_{m-1} + p^m.  A coefficient beyond the
    double range rounds to +-inf.  A non-finite y or e0 leaves nothing to
    round, and every coefficient reads nan, as inf - inf does in the
    recurrence.
    """
    if not (math.isfinite(y) and math.isfinite(e0)):
        return (math.nan,) * (truncation + 1)
    p, q = y.as_integer_ratio()
    r, s = e0.as_integer_ratio()
    sums = [(1, 1)]
    for m in range(1, truncation // 2 + 1):
        n, d = sums[-1]
        sums.append((q * m * n + p**m, q * m * d))
    coefficients = []
    for j in range(truncation + 1):
        n, d = sums[(truncation - j) // 2]
        try:  # int / int rounds correctly
            coefficients.append(r * n / (s * d * math.factorial(j)))
        except OverflowError:
            coefficients.append(math.inf if n > 0 else -math.inf)
    return tuple(coefficients)


@lru_cache(maxsize=16)
def _horner_table(a2var: bytes, e0: bytes, truncation: int) -> np.ndarray:
    """Read-only (N+1, nodes) table of every node's ``_horner_coefficients``.

    Keyed by the float64 bytes of a^2 t^{2 alpha} and e^{bt}, so a caller
    that sums a chunk block by block on one time grid assembles it once.
    """
    table = np.array([
        _horner_coefficients(-0.5 * v, g, truncation)
        for v, g in zip(np.frombuffer(a2var).tolist(), np.frombuffer(e0).tolist())
    ]).T
    table.setflags(write=False)
    return table


def chaos_total_1d(a: float, b: float, alpha: float, t, B_t, truncation: int):
    """The summed chaos of ``chaos_sum_1d``, as one polynomial in x = a B_t.

    Expanding each Hermite polynomial and collecting powers of x gives

        sum_{k<=N} Q_k = sum_{j<=N} c_j x^j,
        c_j = e^{bt} E_{(N-j)//2}(y) / j!,  y = -a^2 t^{2 alpha} / 2,

    with E_m the exponential series cut after y^m.  The coefficients live
    on the shape of ``t``, each exactly rounded; their table is cached per
    time grid (``_horner_table``), so calls on row blocks of one chunk pay
    for it once.  Horner's rule runs in place in the output, two array
    passes per order, against one buffer of x, over the whole broadcast
    shape: a caller that wants cache-sized work passes row blocks, as
    ``exact-vs-chaos`` does.  The sum agrees with
    ``chaos_sum_1d(...).sum(axis=0)`` to rounding, not bit for bit; every
    value is elementwise, so no bit depends on how a caller blocks its rows.
    """
    B, live, a2var, e0 = _chaos_inputs(a, b, alpha, t, B_t, truncation)
    table = _horner_table(a2var.tobytes(), e0.tobytes(), truncation).reshape(
        (truncation + 1,) + live.shape
    )
    # zeroing a at t = 0 leaves only order 0 there
    x = B * np.where(live, a, 0.0)
    total = np.empty(x.shape)
    np.copyto(total, table[truncation])
    for j in range(truncation - 1, -1, -1):
        total *= x
        total += table[j]
    return total[()]


# ----------------------------------------------------------------------------
# Wick-corrected Euler scheme
# ----------------------------------------------------------------------------

def wick_euler_factors(
    a: float, alpha: float, grid: TimeGrid, values: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The scheme's step factors for an array of sampled paths (..., n_steps+1).

    Step k multiplies X_k by 1 + a (B_{k+1} - B_k) - a^2 c_k / 2, with the
    correction bracket c_k = t_{k+1}^{2 alpha} - t_k^{2 alpha} - dt^{2 alpha};
    X_0 = 1.  The bracket vanishes at k = 0, so the first step is plain
    Euler for every alpha and grid.  The scheme is stated for the driftless
    equation, so it takes no drift.  The factors come back step-major,
    (n_steps, ...), in ``out`` if given: the terminal value X_T is their
    product over axis 0 in step order (``np.multiply.reduce``), the bits of
    the step-by-step recursion.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (grid.n_steps + 1,):
        raise ValueError(
            f"paths of shape {values.shape} do not end in the grid's "
            f"{grid.n_steps + 1} nodes"
        )
    V = np.moveaxis(values, -1, 0)
    shape = (grid.n_steps,) + V.shape[1:]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out of shape {out.shape} is not {shape}")
    np.subtract(V[1:], V[:-1], out=out)
    out *= a
    out += 1.0
    out -= _wick_corrections(a, alpha, grid).reshape((-1,) + (1,) * (V.ndim - 1))
    return out


@lru_cache(maxsize=16)
def _wick_corrections(a: float, alpha: float, grid: TimeGrid) -> np.ndarray:
    """Read-only a^2 c_k / 2 of every step k of ``grid``, cached per grid
    object (``TimeGrid`` hashes by identity) for callers that run the
    scheme block by block."""
    t = grid.points
    # float64 powers: on a grid past the double range the bracket reads
    # inf or nan and the factors follow, where a float power would raise
    with np.errstate(over="ignore", invalid="ignore"):
        dt_power = np.float64(grid.dt) ** (2.0 * alpha)
        c = t[1:] ** (2.0 * alpha) - t[:-1] ** (2.0 * alpha) - dt_power
        corrections = 0.5 * a * a * c
    corrections.setflags(write=False)
    return corrections


def wick_euler_paths(
    a: float, alpha: float, grid: TimeGrid, values: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scheme trajectories for an array of sampled paths (..., n_steps+1):
    the running products of ``wick_euler_factors``.

    ``out``, if given, receives the trajectories in the shape of ``values``.
    No command runs it: ``euler-study`` reads only X_T, the full product.
    """
    values = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(values.shape)
    elif out.shape != values.shape:
        raise ValueError(f"out of shape {out.shape} is not {values.shape}")
    factors = wick_euler_factors(a, alpha, grid, values)
    X = np.moveaxis(out, -1, 0)
    X[0, ...] = 1.0
    np.multiply.accumulate(factors, axis=0, out=X[1:])
    return out


# ----------------------------------------------------------------------------
# Per-order kernel norms
# ----------------------------------------------------------------------------

def chaos_norm_decay(a: float, alpha: float, T: float, N: int) -> np.ndarray:
    """Discrete L2 norms of the white-noise images of the solution kernels.

    The one-parameter, driftless equation at horizon T: the symmetrised
    order-n kernel is constant a^n / (n+1)! on the cube, so its pushed norm
    factorises into per-axis norms of the transferred indicator; each axis
    contributes the square root of int_0^T K(T, s)^2 ds = T^{2 alpha}.
    Entry n of the result is the order-n norm.
    """
    if N < 0:
        raise ValueError("truncation must be >= 0")
    Q = T ** (2.0 * alpha)
    out = np.empty(N + 1)
    for n in range(N + 1):
        out[n] = abs(a) ** n / math.factorial(n + 1) * Q ** ((n + 1) / 2.0)
    return out


# ----------------------------------------------------------------------------
# Sheet solver
# ----------------------------------------------------------------------------

def _prefix2d(A: np.ndarray) -> np.ndarray:
    return np.cumsum(np.cumsum(A, axis=-2), axis=-1)


def _offset_windows(k: np.ndarray) -> np.ndarray:
    """View ``W[I, J, i, j] = k[I - i, J - j]`` of the offset table ``k``.

    ``k`` is (n_s, n_t); negative offsets read zero.  Reshaped to (cells,
    cells), with cells in row-major order, ``W`` is a block-Toeplitz lower
    triangular matrix; it is a window view of the flipped, zero-padded
    table, so nothing of cells x cells size exists until it is copied.
    """
    ns, nt = k.shape
    flipped = np.zeros((2 * ns - 1, 2 * nt - 1))
    flipped[:ns, :nt] = k[::-1, ::-1]
    return sliding_window_view(flipped, (ns, nt))[::-1, ::-1]


def _tile_width(n_t: int) -> int:
    """t cells per tile of the drifted chain route: ``n_t`` cut into
    ceil(n_t / _TILE_T_CELLS) tiles of equal width, the last one padded."""
    tiles = -(-n_t // _TILE_T_CELLS)
    return -(-n_t // tiles)


def _tiled(Y: np.ndarray, bt: int) -> np.ndarray:
    """``Y`` (..., n_t) copied into the tiled layout (tiles, ..., bt), zero-padded."""
    X = np.zeros((-(-Y.shape[-1] // bt),) + Y.shape[:-1] + (bt,))
    for x, y in _tile_views(X, Y):
        x[...] = y
    return X


def _untile(X: np.ndarray, Y: np.ndarray, add: bool = False) -> None:
    """Write, or with ``add`` add, the grid cells of the tiled ``X`` into ``Y``."""
    for x, y in _tile_views(X, Y):
        if add:
            y += x
        else:
            y[...] = x


def _tile_views(X: np.ndarray, Y: np.ndarray):
    """Yield, tile by tile, the grid cells of the tiled ``X`` and of ``Y``.

    ``X`` is (tiles, R, n_s, bt), ``Y`` the same cells untiled, (R, n_s,
    n_t): tile q holds t cells q bt .. q bt + bt - 1, ordered (i, j) within
    the tile.  The last tile's cells past n_t are padding, left out here.
    """
    bt = X.shape[-1]
    for q, x in enumerate(X):
        y = Y[..., q * bt:(q + 1) * bt]
        yield x[..., :y.shape[-1]], y


def _chain_kernels(b: float, grid: Grid2D) -> np.ndarray:
    """Both drifted chain kernels, tile pair by tile pair, in one array.

    The offset tables are ``h0(b (di + shift) ds (dj + shift) dt)``.  At
    ``shift = 0`` they give the cell-to-cell step kernel ``P``, whose
    diagonal is zero (a chain step moves strictly up); at ``shift = 1/2``
    the cell-to-node kernel ``Qi``, whose row (I, J) is the interior node
    (I + 1, J + 1), reached from the centres of the cells below it.

    The t axis is cut into tiles of ``bt = _tile_width(n_t)`` cells, padded
    to whole tiles.  A kernel block from a source tile to a target tile d
    tiles later depends on d alone, and is zero for d < 0.  Block d is
    placed in a square of e rows: source cell (i, j) of its tile is column
    ``i bt + j``, target cell (I, J) is row ``h + I bt + J``.  A block
    entry is nonzero only if I >= i, and for d = 0 also J >= j, so any
    shift h >= bt puts every nonzero of both kernels strictly below the
    diagonal; h is the least one that makes e = n_s bt + h a multiple of
    ``_TRMM_ALIGN``.  Entry d of the (tiles, e, e) array holds ``P``'s
    block in its strict lower triangle and ``Qi``'s, transposed, in its
    strict upper one; its diagonal is zero.
    """
    ns, bt = grid.n_s, _tile_width(grid.n_t)
    m = -(-grid.n_t // bt)
    c = ns * bt
    h = bt + -(c + bt) % _TRMM_ALIGN

    def table(shift: float) -> np.ndarray:
        ds = (np.arange(ns) + shift) * grid.ds
        dt = (np.arange(m * bt) + shift) * grid.dt
        return h0_array(np.multiply.outer(b * ds, dt))

    step, node = table(0.0), table(0.5)
    step[0, 0] = 0.0
    step, node = _offset_windows(step), _offset_windows(node)
    K = np.zeros((m, c + h, c + h))
    for d in range(m):
        # the block from tile 0 to tile d: rows (I, d bt + J), columns (i, j)
        block = np.s_[:, d * bt:(d + 1) * bt, :, :bt]
        K[d, h:, :c] = step[block].reshape(c, c)
        K[d, :c, h:] += node[block].reshape(c, c).T
    return K


def _apply_tiles(K: np.ndarray, X: np.ndarray, node: bool) -> np.ndarray:
    """``X @ T.T`` over the cells of the tiled ``X``, in place.

    ``X`` is (tiles, R, n_s, bt), ``K`` from ``_chain_kernels``, and ``T``
    is ``P`` or (``node``) ``Qi``.  Target tile q is the sum over d <= q of
    block d applied to source tile q - d.  Each pair copies its source tile
    into a buffer of e columns, zero past the tile's c cells, and one BLAS
    trmm maps that buffer in place through the strict triangle of
    ``K[d]``; its last c columns are the block's share of the target tile.
    Targets run from the last tile down, so every source is read before it
    is overwritten.  trmm reads the (e, rows) transpose of the buffer,
    F-ordered, as its right operand; replicas run in row blocks of at most
    ``_TILE_BUFFER_VALUES`` buffer values.
    """
    from scipy.linalg.blas import dtrmm

    m, R = X.shape[:2]
    e = K.shape[-1]
    c = X.shape[2] * X.shape[3]
    tiles = X.reshape(m, R, c)
    blocks = max(1, -(-R * e // _TILE_BUFFER_VALUES))
    rows = max(1, -(-R // blocks))
    buf = np.empty((min(rows, R), e))
    for r0 in range(0, R, rows):
        B = buf[:min(rows, R - r0)]
        for q in range(m - 1, -1, -1):
            target = tiles[q, r0:r0 + rows]
            for d in range(q + 1):
                B[:, :c] = tiles[q - d, r0:r0 + rows]
                B[:, c:] = 0.0
                if node:
                    dtrmm(1.0, K[d].T, B.T, side=0, lower=1, overwrite_b=1)
                else:
                    dtrmm(1.0, K[d].T, B.T, side=0, lower=0, trans_a=1, overwrite_b=1)
                if d == 0:
                    target[...] = B[:, e - c:]
                else:
                    target += B[:, e - c:]
    return X


def _chain_apply(b: float, grid: Grid2D) -> tuple[int, Callable, Callable]:
    """The tile width and the maps ``X -> X @ P.T``, ``X -> X @ Qi.T``.

    ``P`` is the step kernel, ``Qi`` the node kernel, and ``X`` is tiled
    (see ``_tile_views``).  With drift both are read from the tile array of
    ``_chain_kernels``, built here, and applied in place by trmm.  Without
    drift every entry is h0(0) = 1, so ``Qi`` sums the cells below each
    node, a 2-D prefix sum, and ``P`` the cells below each cell but not the
    cell itself; one tile holds the whole grid.
    """
    if b != 0.0:
        K = _chain_kernels(b, grid)
        step, node = partial(_apply_tiles, K, node=False), partial(_apply_tiles, K, node=True)
        return _tile_width(grid.n_t), step, node
    return grid.n_t, (lambda X: _prefix2d(X) - X), _prefix2d


def _chain_levels(
    a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int, bt: int, step
):
    """Yield ``a^n L_n`` for n = 1..N: chain weights per cell, tiled.

    ``L_n[c]`` sums, over chains of n cells topped by c, the product of the
    cells' increments ``dW = sqrt(cell area) noise`` and the drift factors
    ``h0`` along the chain from the origin: ``L_n = dW (L_{n-1} P^T)``, where
    ``P[c, c'] = h0(b Δs Δt)`` carries a chain from cell c' to cell c; it
    is strictly lower triangular in row-major cell order (see
    ``_chain_kernels``).  ``noise`` is (R, n_s, n_t); the levels are in the
    layout of ``_tile_views`` with tiles of ``bt`` cells, and the noise of
    padded cells is zero.  ``step`` applies ``P``; the caller takes it and
    ``bt`` from ``_chain_apply``, so one kernel array serves every block of
    noise.  With drift one buffer is updated in place, so a caller reads
    each level before asking for the next.
    """
    if N == 0:
        return
    scale = a * math.sqrt(grid.cell_area)
    sc, tc = grid.cell_centers()
    first = h0_array(np.multiply.outer(b * sc, tc))
    L = _tiled(noise, bt)
    L *= _tiled(first, bt)[:, None]
    L *= scale
    yield L
    last = grid.n_t - (len(L) - 1) * bt  # real cells of the last tile
    for _ in range(2, N + 1):
        L = step(L)
        for x, z in _tile_views(L, noise):
            x *= z
        L[-1, ..., last:] = 0.0
        L *= scale
        yield L


def check_sheet_solve(b: float, grid: Grid2D, N: int) -> None:
    """Validate a sheet solve with drift ``b`` before any noise is drawn or read.

    A negative order is refused.  With drift, grids above
    ``_MAX_CHAIN_CELLS`` cells are refused too: the tile array of both
    chain kernels (``_chain_kernels``) holds about n_s^2 n_t bt values,
    and a grid of one tile about cells^2.  Without drift the chain kernels
    are prefix sums, so any grid is taken.
    """
    if N < 0:
        raise ValueError("truncation must be >= 0")
    if b != 0.0:
        cells = grid.n_s * grid.n_t
        if cells > _MAX_CHAIN_CELLS:
            raise ValueError(
                f"grid too large: {grid.n_s} x {grid.n_t} = {cells} cells; the "
                f"drifted chain route takes at most {_MAX_CHAIN_CELLS}"
            )
        # load the chain route's trmm here, at set-up, not in the first chunk
        from scipy.linalg.blas import dtrmm  # noqa: F401


def _check_noise(grid: Grid2D, noise: np.ndarray) -> None:
    if noise.ndim != 3 or noise.shape[1:] != (grid.n_s, grid.n_t):
        raise ValueError("noise must have shape (replicas, n_s, n_t)")


def solve_sheet_chaos_batch(
    a: float, b: float, grid: Grid2D, noise: np.ndarray, N: int
) -> np.ndarray:
    """Per-order sheet solution for a batch of noise draws (R, n_s, n_t).

    Returns (N+1, R, n_s+1, n_t+1) for noise coefficient ``a`` and drift
    ``b`` on the Brownian sheet: its white-noise cells coincide with the
    sheet increments, so the chain recursion applies, and each order is
    its chain weights read out onto the nodes.  ``check_sheet_solve``
    runs first.
    """
    check_sheet_solve(b, grid, N)
    _check_noise(grid, noise)
    orders = np.zeros((N + 1, noise.shape[0], grid.n_s + 1, grid.n_t + 1))
    orders[0] = h0_array(b * np.multiply.outer(grid.s, grid.t))
    bt, step, readout = _chain_apply(b, grid)
    for n, level in enumerate(_chain_levels(a, b, grid, noise, N, bt, step), start=1):
        # the readout runs in place, and the recursion still needs the level
        _untile(readout(level.copy()), orders[n][:, 1:, 1:])
    return orders


def solve_sheet_chaos_total_blocks(a: float, b: float, grid: Grid2D, blocks, N: int):
    """Yield ``(r0, total)``: the summed orders 0..N for each block of noise.

    ``blocks`` yields ``(r0, z)``: ``z`` (R, n_s, n_t) holds replicas
    ``r0 .. r0 + R - 1`` and may be a reused buffer.  ``total`` is (R,
    n_s+1, n_t+1); no bit of it depends on the blocking.  The readout is
    linear, so the chain route sums each block's levels into one summed
    weight array and reads it out through the node kernel as soon as the
    block's recursion ends.  With drift both kernels sit in one tile
    array (``_chain_kernels``), built once for all blocks.  The levels and
    the summed weights are tiled, the noise is read tile by tile from
    ``z``, and the readout is added into ``total`` once.

    Live at a time, whatever the replica count: the kernel tile array,
    the trmm operand buffer of ``_apply_tiles`` and three of one block's
    arrays: the noise ``z``, the recursion's level and the summed weights,
    with ``total`` taking the level's place once the recursion ends.  No
    block's solution outlives its block here, so a caller must drop each
    ``total`` (and any view of it) before it asks for the next block, or
    two blocks' solutions are live at once.
    """
    check_sheet_solve(b, grid, N)
    bt, step, readout = _chain_apply(b, grid)
    base = h0_array(b * np.multiply.outer(grid.s, grid.t))
    for r0, z in blocks:
        _check_noise(grid, z)
        S = np.zeros((-(-grid.n_t // bt), len(z), grid.n_s, bt))
        for level in _chain_levels(a, b, grid, z, N, bt, step):
            S += level
            del level  # so the recursion's buffer is freed before the readout
        S = readout(S)
        total = np.empty((len(z), grid.n_s + 1, grid.n_t + 1))
        total[:] = base
        _untile(S, total[:, 1:, 1:], add=True)
        del S
        yield r0, total
        del total  # so no block's solution outlives its block


# ----------------------------------------------------------------------------
# Deterministic sheet equation
# ----------------------------------------------------------------------------

def deterministic_sheet_solution(a: float, s, t):
    """Closed-form solution h0(a s t) of g = 1 + a iint g."""
    x = a * np.asarray(s, dtype=float) * np.asarray(t, dtype=float)
    if x.ndim == 0:
        return h0(float(x))
    return h0_array(x)
