"""Quadrature helpers for integrands with power-law endpoint singularities.

The house scheme is Gauss-Legendre under a power-of-the-variable substitution:
to integrate f ~ (x-a)^e near a (e > -1), substitute x = a + (b-a) u^p with
p = 1/(1+e), which maps the singular factor to a bounded one.  Integrals are
refined by doubling the node count until two successive values agree.
``refine_rows`` refines a batch of integrals together, each row on its
own; ``integrate_graded`` runs it on one row, ``integrate_graded_rows`` on
a batch over (0, b_i).
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureDiverged",
    "QuadratureOverflow",
    "gauss_legendre_01",
    "graded_nodes",
    "integrate_graded",
    "integrate_graded_rows",
    "refine_rows",
]


class QuadratureDiverged(RuntimeError):
    """Refinement failed to stabilise; the integrand is too rough."""


class QuadratureOverflow(QuadratureDiverged):
    """A refined value was inf or nan: the integral left the double range."""


# refinement ceiling per half-interval; node generation is superlinear in n,
# so an unbounded doubling walk on a non-converging integrand would stall
# instead of raising
_N_MAX = 8192


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1), nodes ascending.

    The roots x of P_n in [0, 1) come from Newton's method started at
    Tricomi's asymptotic guesses, with P_n and P_{n-1} from the recurrence:
    O(n^2) work and O(n) memory, where the eigenvalues of the dense Jacobi
    matrix cost O(n^3) and n^2 floats at the node ceiling.  The weight on
    (-1, 1), 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2, keeps the P_n term that
    vanishes only at the exact root.  Each root x gives the nodes
    (1 -+ x) / 2 on (0, 1), each with half its weight.
    """
    if n < 1:
        raise ValueError(f"node count {n} must be >= 1")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        p, q = _legendre_pair(n, x)
        dx = p * (1.0 - x) * (1.0 + x) / (n * (q - x * p))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    p, q = _legendre_pair(n, x)
    w = (1.0 - x) * (1.0 + x) / (n * (q - x * p)) ** 2
    # x descends, so 1 - x ascends; an odd n's middle root x = 0 is used once
    xu, wu = x[: n // 2][::-1], w[: n // 2][::-1]
    return (np.concatenate([(1.0 - x) / 2.0, (1.0 + xu) / 2.0]),
            np.concatenate([w, wu]))


def _half_nodes(a: float, b: float, e: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes graded at a for a factor (x-a)^e, e > -1; e > 0 (fractional,
    # non-smooth) benefits from the same substitution with p < 1
    if not e > -1.0:
        raise ValueError(f"endpoint exponent {e} must be > -1")
    u, w = gauss_legendre_01(n)
    p = 1.0 / (1.0 + e)
    if a != 0.0 and p > 1.0:
        # keep the innermost node distance (b-a) u_min^p above the rounding
        # scale of a, else x collapses onto the endpoint and x - a is noise
        floor = 64.0 * np.finfo(float).eps * abs(a) / abs(b - a)
        if floor < 1.0:
            p = min(p, max(math.log(floor) / math.log(u[0]), 1.0))
        else:
            p = 1.0
    x = a + (b - a) * u**p
    wx = w * (b - a) * p * u ** (p - 1.0)
    return x, wx


def graded_nodes(
    a: float, b: float, n: int, e_a: float = 0.0, e_b: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Composite nodes/weights on (a, b) graded for (x-a)^{e_a} and (b-x)^{e_b}."""
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    mid = 0.5 * (a + b)
    xl, wl = _half_nodes(a, mid, e_a, n)
    xr, wr = _half_nodes(b, mid, e_b, n)  # mirrored: cluster at b, reversed orientation
    return np.concatenate([xl, xr]), np.concatenate([wl, -wr])


def integrate_graded(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    e_a: float = 0.0,
    e_b: float = 0.0,
    n0: int = 64,
    tol: float = 1e-9,
    max_doublings: int = 9,
) -> float:
    """Integrate vectorised ``f`` over (a, b) with endpoint grading and refinement.

    Doubles the per-half node count until two successive estimates agree to
    ``tol`` (relative to max(1, |I|)).  Raises QuadratureDiverged otherwise.
    This is ``refine_rows`` on a single row.
    """
    def value(rows: np.ndarray, n: int) -> np.ndarray:
        x, w = graded_nodes(a, b, n, e_a, e_b)
        return np.array([np.dot(w, f(x))])

    return float(refine_rows(value, np.zeros(1, dtype=int), n0, max_doublings, tol)[0])


def refine_rows(
    value: Callable[[np.ndarray, int], np.ndarray],
    rows: np.ndarray,
    n0: int,
    max_doublings: int,
    tol: float,
) -> np.ndarray:
    """Refine ``value(rows, n)`` by doubling n from ``n0``; one result per row.

    ``value`` returns the n-node estimate of each integral in the index
    array ``rows``.  All live rows are refined together; a row retires once
    two successive values agree to ``tol`` (relative to max(1, |I|)), so
    when ``value`` reduces each row on its own, a row's result does not
    depend on the rows batched with it.  Raises QuadratureDiverged for rows
    still live after ``max_doublings`` doublings or at the node ceiling.
    """
    out = np.empty(len(rows))
    live = np.arange(len(rows))
    n = n0
    prev = value(rows, n)
    delta = np.inf
    for _ in range(max_doublings):
        if 2 * n > _N_MAX:
            break
        n *= 2
        cur = value(rows[live], n)
        if not np.all(np.isfinite(cur)):
            raise QuadratureOverflow(f"non-finite quadrature value at n={n}")
        gap = np.abs(cur - prev)
        done = gap <= tol * np.maximum(1.0, np.abs(cur))
        out[live[done]] = cur[done]
        live, prev = live[~done], cur[~done]
        if not live.size:
            return out
        delta = float(np.max(gap[~done]))
    raise QuadratureDiverged(
        f"{live.size} rows not converged by n={n} (largest delta {delta:.3e}, "
        f"first at row {rows[live[0]]})"
    )


def integrate_graded_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    b: np.ndarray,
    e: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """int_0^{b_i} v^e f_i(v) dv for every entry b_i > 0 of the 1-d array b.

    ``f(rows, v)`` returns the cofactor of row ``rows[k]`` at ``v[k]``, for
    an index array ``rows`` and nodes ``v`` of shape (len(rows), n).  The
    substitution v = b u^p with p = 3/(1+e) folds v^e dv into the weight
    b^{1+e} p u^2 du exactly, so no node sees the singular power, and a
    cofactor smooth in v becomes a series in u^p (p >= 2 for e <= 1/2).
    The rows are refined together by ``refine_rows`` from 16 nodes up to
    the node ceiling, each reduced with its own dot, so a row's value does
    not depend on the rows batched with it.
    """
    if not e > -1.0:
        raise ValueError(f"endpoint exponent {e} must be > -1")
    p = 3.0 / (1.0 + e)
    # per-row scale by scalar float64 powers, one row at a time, as the
    # rows' bits must not depend on how many share the array; past the
    # double range a scale reads inf, where a Python float power would raise
    with np.errstate(over="ignore"):
        scale = np.array([v ** (1.0 + e) for v in b])

    def value(rows: np.ndarray, n: int) -> np.ndarray:
        u, w = gauss_legendre_01(n)
        vals = f(rows, b[rows, None] * u**p)
        wu = w * p * u**2
        return np.array([row @ wu for row in vals]) * scale[rows]

    # 16 * 2^9 nodes is the ceiling _N_MAX
    return refine_rows(value, np.arange(len(b)), 16, 9, tol)
