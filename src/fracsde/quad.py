"""Quadrature helpers for integrands with power-law endpoint singularities.

The house scheme is Gauss-Legendre under a power-of-the-variable substitution:
to integrate f ~ (x-a)^e near a (e > -1), substitute x = a + (b-a) u^p with
p = 1/(1+e), which maps the singular factor to a bounded one.  Integrals are
refined by doubling the node count until two successive values agree.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureDiverged",
    "gauss_legendre_01",
    "graded_nodes",
    "integrate_graded",
]


class QuadratureDiverged(RuntimeError):
    """Refinement failed to stabilise; the integrand is too rough."""


# refinement ceiling per half-interval; node generation is superlinear in n,
# so an unbounded doubling walk on a non-converging integrand would stall
# instead of raising
_N_MAX = 8192


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


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
    """
    x, w = graded_nodes(a, b, n0, e_a, e_b)
    prev = float(np.dot(w, f(x)))
    n = n0
    delta = np.inf
    for _ in range(max_doublings):
        if 2 * n > _N_MAX:
            break
        n *= 2
        x, w = graded_nodes(a, b, n, e_a, e_b)
        cur = float(np.dot(w, f(x)))
        if not np.isfinite(cur):
            raise QuadratureDiverged(f"non-finite quadrature value at n={n}")
        delta = abs(cur - prev)
        if delta <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureDiverged(
        f"no convergence by n={n} (last delta {delta:.3e})"
    )
