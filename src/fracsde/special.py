"""Special functions underlying the chaos kernels and the noise representation.

Three families live here:

* ``h0`` -- the entire function h0(x) = sum_n x^n / (n!)^2, evaluated as
  the Bessel function I0(2 sqrt(x)) for x >= 0 and J0(2 sqrt(-x)) for
  x < 0.  It is the deterministic profile of the sheet equation and the
  building block of the sheet chaos kernels.  On the negative axis it
  oscillates and dips below zero; ``negativity_interval`` locates the
  deepest negative window.

* probabilist Hermite polynomials H_n (three-term recurrence), which turn
  one-parameter chaos sums into closed form.

* the Volterra kernel
  K(t, s) = d (t-s)^{alpha-1/2} 2F1(alpha-1/2, 1/2-alpha; alpha+1/2; 1-t/s)
  of the moving-average representation of fractional Brownian motion
  (Decreusefond and Ustunel, Potential Analysis 10, 1999; Nualart, The
  Malliavin Calculus and Related Topics, 2nd ed., 5.1.3).  It is the closed
  form of d [(t-s)^{alpha-1/2} + s^{alpha-1/2} (1/2-alpha)
  int_0^{t/s-1} th^{alpha-3/2} (1 - (1+th)^{alpha-1/2}) d th].  The
  constant ``d`` is the closed form
  d = sqrt(2 alpha Gamma(3/2-alpha) / (Gamma(alpha+1/2) Gamma(2-2 alpha))),
  the normalisation c_H of the square-root kernel K_H of fBm, for which
  int_0^t K(t, s)^2 ds = t^{2 alpha}, i.e. Var B_t = t^{2 alpha}.  The
  Hurst exponent alpha is the kernel's only parameter: every kernel function
  takes it and reads d from ``calibrate_d_alpha``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoInterval",
    "DomainError",
    "h0",
    "h0_array",
    "NegativityInterval",
    "negativity_interval",
    "hermite_all",
    "volterra_kernel",
    "volterra_kernel_dt_dist",
    "calibrate_d_alpha",
    "kernel_sq_grade",
]


class NoInterval(ValueError):
    """Requested depth exceeds the deepest value h0 attains below zero."""


class DomainError(ValueError):
    """Kernel evaluated outside 0 < s < t."""


# ----------------------------------------------------------------------------
# h0 and its negative window
# ----------------------------------------------------------------------------

def h0(x: float) -> float:
    """h0 at one point, as a float; see ``h0_array``."""
    return float(h0_array(float(x)))


def h0_array(x: np.ndarray) -> np.ndarray:
    """h0(x) = sum_n x^n/(n!)^2 elementwise, through its Bessel forms.

    h0(x) = I0(2 sqrt(x)) for x >= 0 and J0(2 sqrt(-x)) for x < 0; each form
    is evaluated on its own entries only.  Summing the series instead
    cancels catastrophically on the negative axis.  Raises OverflowError
    when a value is not finite: I0 leaves the double range near
    x = 1.27e5.
    """
    from scipy.special import i0, j0

    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = i0(2.0 * np.sqrt(x[pos]))
    neg = ~pos
    out[neg] = j0(2.0 * np.sqrt(-x[neg]))
    if not np.all(np.isfinite(out)):
        raise OverflowError("h0 exceeds the double range")
    return out


@lru_cache(maxsize=1)
def _h0_negative_window() -> tuple[float, float, float, float]:
    """(lo0, hi0, xmin, fmin): the first window with h0 < 0 and its bottom.

    On the negative axis h0(x) = J0(2 sqrt(-x)), so the window runs between
    the first two zeros of J0 and bottoms out at the first zero of J1.
    """
    from scipy.special import j0, jn_zeros

    j01, j02 = jn_zeros(0, 2).tolist()
    (j11,) = jn_zeros(1, 1).tolist()
    return (-((j02 / 2.0) ** 2), -((j01 / 2.0) ** 2), -((j11 / 2.0) ** 2),
            float(j0(j11)))


def _j0_level(level: float, a: float, b: float) -> float:
    """r in (a, b) with J0(r) = level, J0 - level changing sign on [a, b].

    Newton steps (J0' = -J1) kept inside the shrinking sign-change bracket;
    a step that would leave it bisects instead.  Next to the bottom of the
    window J1 is small and rounding in J0 keeps the Newton step large, so
    the search also ends once the bracket is a few floats wide.
    """
    from scipy.special import j0, j1

    eps = np.finfo(float).eps
    fa = float(j0(a)) - level
    r = 0.5 * (a + b)
    for _ in range(100):
        f = float(j0(r)) - level
        step = f / float(j1(r))
        if abs(step) <= 2.0 * eps * r:
            return r + step
        if (f > 0.0) == (fa > 0.0):
            a, fa = r, f
        else:
            b = r
        if b - a <= 4.0 * eps * r:
            return r
        r = r + step if a < r + step < b else 0.5 * (a + b)
    raise RuntimeError(f"J0(r) = {level} not resolved on ({a}, {b})")


@dataclass(frozen=True)
class NegativityInterval:
    """Open interval (lo, hi) on the negative axis with h0 < -depth throughout."""

    lo: float
    hi: float
    depth: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi < 0.0):
            raise ValueError("interval must satisfy lo < hi < 0")
        if self.depth < 0.0:
            raise ValueError("depth must be non-negative")


def negativity_interval(delta: float) -> NegativityInterval:
    """Maximal open subinterval of the first negative window with h0 < -delta.

    For delta = 0 this is the window between the two zeros of h0 closest to
    the origin.  Raises NoInterval when delta reaches the window's depth
    (about 0.402759, the magnitude of the global minimum of h0).
    """
    if delta < 0.0:
        raise ValueError(f"delta={delta} must be >= 0")
    lo0, hi0, xmin, fmin = _h0_negative_window()
    if delta >= -fmin:
        raise NoInterval(f"h0 never goes below {-delta:.6f}; floor is {fmin:.6f}")
    if delta == 0.0:
        return NegativityInterval(lo0, hi0, 0.0)
    # in r = 2 sqrt(-x) the window is (j01, j02) with its bottom at j11
    r_of = lambda x: 2.0 * math.sqrt(-x)
    r_lo = _j0_level(-delta, r_of(hi0), r_of(xmin))
    r_hi = _j0_level(-delta, r_of(xmin), r_of(lo0))
    return NegativityInterval(-((r_hi / 2.0) ** 2), -((r_lo / 2.0) ** 2), delta)


# ----------------------------------------------------------------------------
# probabilist Hermite polynomials
# ----------------------------------------------------------------------------

def hermite_all(n_max: int, x: np.ndarray) -> np.ndarray:
    """All orders 0..n_max at once; shape (n_max+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


# ----------------------------------------------------------------------------
# Volterra kernel of the fBm representation
# ----------------------------------------------------------------------------

def volterra_kernel(alpha: float, t: float, s: np.ndarray) -> np.ndarray:
    """K(t, s) for 0 < s < t; vectorised over s."""
    d = calibrate_d_alpha(alpha)
    s = np.asarray(s, dtype=float)
    if not t > 0.0:
        raise DomainError(f"t={t} must be > 0")
    if np.any(s <= 0.0) or np.any(s >= t):
        raise DomainError("kernel requires 0 < s < t")
    from scipy.special import hyp2f1

    g = t - s
    q = alpha - 0.5
    return d * g**q * hyp2f1(q, -q, alpha + 0.5, -g / s)


def volterra_kernel_dt_dist(
    alpha: float, dist: np.ndarray, s: float | np.ndarray
) -> np.ndarray:
    """dK/dr (s + dist, s) parametrised by the exact gap dist = r - s > 0.

    Differentiating the kernel in its first argument collapses its two
    pieces into d (alpha-1/2) dist^{alpha-3/2} (1 + dist/s)^{alpha-1/2}.
    Quadratures that grade into the r -> s singularity construct the gap
    directly; recomputing r - s by subtraction there would leave only noise.
    ``s`` may be an array that broadcasts against ``dist`` (one s per row).
    """
    d = calibrate_d_alpha(alpha)
    dist = np.asarray(dist, dtype=float)
    if not np.all(np.asarray(s) > 0.0) or np.any(dist <= 0.0):
        raise DomainError("derivative requires 0 < s and dist > 0")
    if alpha == 0.5:
        return np.zeros_like(dist)
    q = alpha - 0.5
    return d * q * dist ** (alpha - 1.5) * (1.0 + dist / s) ** q


def kernel_sq_grade(alpha: float) -> float:
    """Endpoint grading exponent for integrands built from squared kernels.

    Near either endpoint K^2 expands in powers from the lattice
    {2q, q, 0} + N with q = alpha - 1/2, the worst singular term being
    x^{2q} when q < 0.  The substitution power p resolves the q-lattice
    (p = 1/|q|) and is raised when needed so the x^{2q} factor maps to a
    positive power.  Returned as the equivalent exponent e = 1/p - 1.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    q = alpha - 0.5
    if q == 0.0:
        return 0.0
    p = 1.0 / abs(q)
    if q < 0.0:
        p = max(p, 1.5 / (1.0 + 2.0 * q))
    # any p >= 1/(1+2q) already bounds the transformed integrand; unbounded p
    # (alpha -> 1/2) would underflow the innermost node u_min^p to exactly 0
    p = min(p, 32.0)
    return 1.0 / p - 1.0


@lru_cache(maxsize=32)
def calibrate_d_alpha(alpha: float) -> float:
    """Normalisation d with int_0^1 K(1, s)^2 ds = 1, in closed form.

    d = c_H = sqrt(2 alpha Gamma(3/2-alpha) / (Gamma(alpha+1/2) Gamma(2-2 alpha)))
    (Nualart, The Malliavin Calculus and Related Topics, 2nd ed., 5.1;
    Decreusefond and Ustunel, Potential Analysis 10, 1999); it is exactly 1
    at alpha = 1/2.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha={alpha} not in (0, 1)")
    return math.sqrt(
        2.0 * alpha * math.gamma(1.5 - alpha)
        / (math.gamma(alpha + 0.5) * math.gamma(2.0 - 2.0 * alpha))
    )
