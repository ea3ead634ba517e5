"""Fractional operators: the adjoint kernel map, power integrals/derivatives,
the inverse kernel map for the separable linear drift and the shift density.

``_kstar_points`` realises the adjoint operator

    (K* phi)(s) = K(T, s) phi(s) + int_s^T (phi(r) - phi(s)) dK/dr (r, s) dr

on bounded functions with finitely many jumps.  Applied to the indicator of
[0, t] it reproduces K(t, .) restricted to [0, t], so its squared L2 norm
equals t^{2 alpha}; the norm here is computed by honest nested quadrature,
which is the check the acceptance suite runs.

The Riemann-Liouville integral I^g is discretised by product integration
against piecewise-linear interpolants, giving matrices exact on hat
functions.  The Marchaud-form derivative D^g is discretised against
per-cell models in {1, u^g, u^{1+g}}, which carry the u^g ramp that I^g
leaves at 0, so D^g I^g is the identity to quadrature accuracy.  Each has
one route and validates its order; ``check_regime`` validates the exponent
pair of the inverse kernel map.

The inverse kernel map is only needed for the separable drift
F(t, s) = t s.  It factorises into two axis profiles; each profile is
computed numerically through I^{1/2-h} (h < 1/2) or through the
Marchaud-type difference integral (h > 1/2), never through the closed form
it happens to equal.  All points of a profile go to one batched graded
Gauss-Legendre rule (``quad.integrate_graded_rows``), each half-interval
graded at its known endpoint power; a point's value does not depend on the
points evaluated with it.  ``power_gap_integral`` is the h > 1/2 building
block and is evaluated independently at every argument so that its scaling
exponent 1 - 2h is measurable, not built in.  The squared Cameron-Martin
norm integrates the squared profile with ``quad.integrate_graded``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .model import Grid2D
from .quad import (
    gauss_legendre_01,
    integrate_graded,
    integrate_graded_rows,
    refine_rows,
)
from .special import kernel_sq_grade, volterra_kernel, volterra_kernel_dt_dist

__all__ = [
    "RegimeUndefined",
    "IllConditionedOrder",
    "RoughInput",
    "GridFunction2D",
    "check_regime",
    "kstar_indicator_norm_sq",
    "fractional_integral_matrix",
    "marchaud_derivative_matrix",
    "frac_integral_2d",
    "frac_derivative_2d",
    "power_gap_integral",
    "kinv_axis_factor",
    "kinv_apply_F",
    "kinv_norm_sq_discrete",
    "rkhs_norm_sq_separable",
    "girsanov_log_density",
]


class RegimeUndefined(ValueError):
    """Inverse kernel map is not defined in the boundary regime h = 1/2."""


class IllConditionedOrder(ValueError):
    """Fractional order below the conditioning floor of the product rule."""


class RoughInput(ValueError):
    """Input too rough for the difference-quotient derivative form."""


@dataclass(frozen=True)
class GridFunction2D:
    """Function samples at the nodes of a product grid."""

    grid: Grid2D
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.samples.shape != (self.grid.n_s + 1, self.grid.n_t + 1):
            raise ValueError("sample count must match the grid")


def check_regime(alpha: float, beta: float) -> None:
    """Refuse Hurst exponents the inverse kernel map is not defined for:
    exactly 1/2 (``RegimeUndefined``) or outside (0, 1) (``ValueError``)."""
    for h in (alpha, beta):
        if h == 0.5:
            raise RegimeUndefined("exponent exactly 1/2 has no inverse-kernel regime")
        if not (0.0 < h < 1.0):
            raise ValueError(f"exponent {h} not in (0, 1)")


# ----------------------------------------------------------------------------
# adjoint kernel operator
# ----------------------------------------------------------------------------

def _inner_increment_integral(
    alpha: float,
    phi: Callable[[np.ndarray], np.ndarray],
    s: np.ndarray,
    phi_s: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> np.ndarray:
    """int_lo^hi (phi(r) - phi(s)) dK/dr (r, s) dr for each row s <= lo < hi.

    The arguments are equal-length 1-d arrays, one integral per row.
    Worked in gap coordinates D = r - s, which the node construction keeps
    exact; recomputing r - s by subtraction near the singularity would be
    pure rounding noise.  The piece starting at s is power-graded for the
    D^{alpha-1/2} behaviour of Lipschitz increments; later pieces use log
    coordinates, which flatten the kernel derivative however close the
    piece begins to s.  All rows are refined together by
    ``quad.refine_rows``, each reduced with its own dot, so a row's value
    does not depend on the rows batched with it.
    """
    out = np.zeros(len(s))
    eps = np.finfo(float).eps
    # slivers below float resolution contribute O(width^{alpha+1/2})
    live = np.flatnonzero(hi - lo > 4096.0 * eps * np.maximum(1.0, np.abs(hi)))
    if alpha == 0.5 or not live.size:
        return out
    lo_in = np.nextafter(lo, hi)
    hi_in = np.nextafter(hi, lo)
    d_lo = lo - s
    span = hi - s
    from_zero = d_lo <= 8.0 * eps * np.abs(s)
    # log coordinates by math.log, one row at a time: np.log may round
    # differently, and a row must keep the bits it has when alone
    ylo = np.array([math.log(d) if d > 0.0 else -np.inf for d in d_lo.tolist()])
    yhi = np.array([math.log(d) for d in span.tolist()])
    p = 1.0 / (alpha + 0.5)

    def value(rows: np.ndarray, n: int) -> np.ndarray:
        u, w = gauss_legendre_01(n)
        fz = from_zero[rows]
        D = np.empty((len(rows), n))
        W = np.empty_like(D)
        sp = span[rows[fz], None]
        D[fz] = sp * u**p
        W[fz] = w * sp * p * u ** (p - 1.0)
        yl, yh = ylo[rows[~fz], None], yhi[rows[~fz], None]
        D_log = np.exp(yl + (yh - yl) * u)
        D[~fz] = D_log
        W[~fz] = w * (yh - yl) * D_log
        # phi sees r clamped inside the piece so boundary rounding cannot
        # flip it across a jump; the kernel derivative sees the exact gap
        r_phi = np.clip(s[rows, None] + D, lo_in[rows, None], hi_in[rows, None])
        f = (phi(r_phi) - phi_s[rows, None]) * volterra_kernel_dt_dist(
            alpha, D, s[rows, None]
        )
        # one dot per row: a batched matvec would sum in another order
        return np.array([row @ w_row for row, w_row in zip(f, W)])

    out[live] = refine_rows(value, live, 48, 6, tol)
    return out


def _kstar_points(
    alpha: float,
    phi: Callable[[np.ndarray], np.ndarray],
    s: np.ndarray,
    T: float,
    breakpoints: Sequence[float],
    tol: float,
) -> np.ndarray:
    """(K* phi)(s) at every point of the 1-d array s, each inside (0, T).

    Each point's increment integral is split at the breakpoints above it,
    and all points' pieces go to one batched quadrature.
    """
    s = np.asarray(s, dtype=float)
    if not np.all((0.0 < s) & (s < T)):
        raise ValueError(f"s={s} must lie in (0, {T})")
    owner, lo, hi = [], [], []
    for i, v in enumerate(s.tolist()):
        edges = [v, *sorted({b for b in breakpoints if v < b < T}), T]
        owner += [i] * (len(edges) - 1)
        lo += edges[:-1]
        hi += edges[1:]
    owner = np.array(owner)
    phi_s = phi(s)
    val = volterra_kernel(alpha, T, s) * phi_s
    pieces = _inner_increment_integral(
        alpha, phi, s[owner], phi_s[owner], np.array(lo), np.array(hi), tol
    )
    # unbuffered and in order: each point adds its pieces left to right
    np.add.at(val, owner, pieces)
    return val


_INDICATOR_NORM_TOL = 1e-6


def kstar_indicator_norm_sq(alpha: float, t: float, T: float) -> float:
    """||K* 1_[0,t]||^2 over (0, T) by nested quadrature.

    The outer integral is split at the indicator's jump; endpoint grading
    follows the kernel powers s^{2 alpha - 1} and (t - s)^{2 alpha - 1}.
    Each outer level evaluates K* at all its nodes in one batch, with an
    inner tolerance of 1e-9 and an outer one of 1e-6.
    """
    if not 0.0 < t <= T:
        raise ValueError(f"t={t} must lie in (0, {T}]")
    phi = lambda r: np.where(r <= t, 1.0, 0.0)

    def sq(s_arr: np.ndarray) -> np.ndarray:
        vals = _kstar_points(alpha, phi, s_arr, T, (t,), tol=1e-9)
        # Python's float power, not np.square: the two differ in the last bit
        return np.array([v**2 for v in vals.tolist()])

    e = kernel_sq_grade(alpha)
    left = integrate_graded(sq, 0.0, t, e_a=e, e_b=e, n0=64,
                            tol=_INDICATOR_NORM_TOL, max_doublings=5)
    right = 0.0
    if t < T:
        right = integrate_graded(sq, t, T, e_a=0.0, e_b=0.0, n0=16,
                                 tol=_INDICATOR_NORM_TOL, max_doublings=4)
    return left + right


# ----------------------------------------------------------------------------
# product-integration matrices for I^g and D^g
# ----------------------------------------------------------------------------

def _check_grid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("grid must be 1-d with at least 2 points")
    if x[0] != 0.0 or np.any(np.diff(x) <= 0.0):
        raise ValueError("grid must start at 0 and increase strictly")
    return x


def fractional_integral_matrix(gamma: float, x: np.ndarray) -> np.ndarray:
    """W with (W psi)_i = I^gamma psi (x_i), exact on piecewise-linear psi.

    Row 0 (x = 0) is zero.  gamma = 1 reduces to the trapezoid rule.
    """
    from scipy.special import gamma as sp_gamma

    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma={gamma} not in (0, 1]")
    x = _check_grid(x)
    n = len(x)
    W = np.zeros((n, n))
    for i in range(1, n):
        k = np.arange(i)
        a = x[i] - x[k]
        b = x[i] - x[k + 1]
        h = x[k + 1] - x[k]
        M0 = (a**gamma - b**gamma) / gamma
        M1 = a * M0 - (a ** (gamma + 1.0) - b ** (gamma + 1.0)) / (gamma + 1.0)
        np.add.at(W[i], k, M0 - M1 / h)
        np.add.at(W[i], k + 1, M1 / h)
    return W / sp_gamma(gamma)


_ORDER_FLOOR = 1e-3
_MOMENT_QN = 24


def _jacobi01(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights with int_0^1 w^beta f(w) dw = sum w_i f(u_i)."""
    from scipy.special import roots_jacobi as sp_roots_jacobi

    t, w = sp_roots_jacobi(_MOMENT_QN, 0.0, beta)
    return (t + 1.0) / 2.0, w / 2.0 ** (beta + 1.0)


def _cell_models(x: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell 3-point interpolation maps for the basis {1, u^q, u^{1+q}}.

    Returns (idx, C): idx[k] are the three node columns of cell k's model
    and C[k] maps their samples to basis coefficients.  Fit nodes are the
    cell's endpoints plus the next node to the right (previous at the end),
    so the model of cell k interpolates the sample at x_{k+1} exactly.
    """
    n = len(x) - 1
    idx = np.empty((n, 3), dtype=int)
    C = np.empty((n, 3, 3))
    for k in range(n):
        i0 = min(k, n - 2)
        idx[k] = (i0, i0 + 1, i0 + 2)
        xi = x[idx[k]]
        B = np.column_stack([np.ones(3), xi**q, xi ** (1.0 + q)])
        C[k] = np.linalg.inv(B)
    return idx, C


def _basis_at(q: float, u: np.ndarray) -> np.ndarray:
    """Basis values (len(u), 3) of {1, u^q, u^{1+q}} at points u."""
    return np.column_stack([np.ones_like(u), u**q, u ** (1.0 + q)])


def _check_derivative_axis(gamma: float, x: np.ndarray) -> np.ndarray:
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"derivative order {gamma} not in (0, 1)")
    x = _check_grid(x)
    if len(x) < 3:
        raise ValueError("derivative axis needs at least 2 cells")
    return x


def marchaud_derivative_matrix(gamma: float, x: np.ndarray) -> np.ndarray:
    """W with (W psi)_i = D^gamma psi (x_i) in Marchaud form,

        D^g psi(x) = [psi(x) x^{-g} + g int_0^x (psi(x)-psi(u)) (x-u)^{-g-1} du]
                     / Gamma(1-g),

    exact (to quadrature) on per-cell models in the basis {1, u^q, u^{1+q}}
    with q = gamma: the u^g ramp that I^g puts on smooth data at 0, so the
    difference quotients see that shape instead of a chord.  Row 0 is zero:
    the boundary value is singular and never used downstream.
    """
    from scipy.special import gamma as sp_gamma

    x = _check_derivative_axis(gamma, x)
    g = q = gamma
    n = len(x) - 1
    idx, C = _cell_models(x, q)
    gl_u, gl_w = gauss_legendre_01(_MOMENT_QN)
    jq_u, jq_w = _jacobi01(q)
    jm_u, jm_w = _jacobi01(-g)         # weight w^{-g} at the adjacent cell
    g1 = sp_gamma(1.0 - g)
    W = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        xi = x[i]
        W[i, i] += xi ** (-g) / g1
        a = x[i - 1]
        h = xi - a
        # adjacent cell: gap moments; its model interpolates the sample at
        # x_i, so (model(x_i) - model(u)) is the honest difference
        if i == 1:
            # closed forms: int_0^1 (1 - t^p)(1-t)^{-g-1} dt
            def beta_gap(p: float) -> float:
                return (sp_gamma(p + 1.0) * g1 / sp_gamma(p + 1.0 - g) - 1.0) / g
            m = np.array(
                [0.0, xi ** (q - g) * beta_gap(q), xi ** (1.0 + q - g) * beta_gap(1.0 + q)]
            )
        else:
            w_nodes = h * jm_u
            u_nodes = xi - w_nodes
            phi_i = _basis_at(q, np.array([xi]))[0]
            phi = _basis_at(q, u_nodes)
            rho = (phi_i[None, :] - phi) / w_nodes[:, None]
            m = h ** (1.0 - g) * (jm_w @ rho)
        W[i, idx[i - 1]] += (g / g1) * (m @ C[i - 1])
        if i == 1:
            continue
        # origin cell: v_i C0 - int model(u) kernel du
        kern0_mass = ((xi - x[1]) ** (-g) - xi ** (-g)) / g
        W[i, i] += (g / g1) * kern0_mass
        u_nodes = x[1] * jq_u
        kern = (xi - u_nodes) ** (-g - 1.0)
        phi0 = np.column_stack([np.ones(_MOMENT_QN), np.ones(_MOMENT_QN), u_nodes])
        m = x[1] ** (q + 1.0) * ((jq_w * kern) @ phi0)
        m[0] = kern0_mass
        W[i, idx[0]] -= (g / g1) * (m @ C[0])
        if i > 2:
            ks = np.arange(1, i - 1)
            aa = x[ks][:, None]
            hh = (x[ks + 1] - x[ks])[:, None]
            u_nodes = aa + hh * gl_u[None, :]
            kern = (xi - u_nodes) ** (-g - 1.0)
            cell_mass = ((xi - x[ks + 1]) ** (-g) - (xi - x[ks]) ** (-g)) / g
            W[i, i] += (g / g1) * float(np.sum(cell_mass))
            for j, k in enumerate(ks):
                phi = np.column_stack(
                    [np.ones(_MOMENT_QN), u_nodes[j] ** q, u_nodes[j] ** (1.0 + q)]
                )
                m = hh[j, 0] * ((gl_w * kern[j]) @ phi)
                W[i, idx[k]] -= (g / g1) * (m @ C[k])
    return W


def frac_integral_2d(f: GridFunction2D, g1: float, g2: float) -> GridFunction2D:
    """Tensor fractional integral I^{g1, g2} f on the grid nodes.

    One product-integration matrix per axis, each exact on piecewise-linear
    data, applied as A_s F A_t'.  Orders below the conditioning floor make
    the matrices useless in float64 and are rejected.
    """
    for g in (g1, g2):
        if not 0.0 < g <= 1.0:
            raise ValueError(f"order {g} not in (0, 1]")
        if g < _ORDER_FLOOR:
            raise IllConditionedOrder(
                f"order {g} below the {_ORDER_FLOOR:g} conditioning floor"
            )
    A_s = fractional_integral_matrix(g1, f.grid.s)
    A_t = fractional_integral_matrix(g2, f.grid.t)
    return GridFunction2D(f.grid, A_s @ np.asarray(f.samples, float) @ A_t.T)


def frac_derivative_2d(f: GridFunction2D, g1: float, g2: float) -> GridFunction2D:
    """Tensor Marchaud derivative D^{g1, g2} f on the grid nodes.

    Each axis assumes the u^g ramp at 0 of ``marchaud_derivative_matrix``,
    which is what f carries when it is a fractional integral of smooth
    data.  Orders outside (0, 1) and axes of one cell are refused before
    any matrix is built.  Rows at s = 0 / t = 0 are zero (the boundary
    value is singular and never used).  Non-finite input, or output driven
    non-finite by the quotients, means the samples are too rough for this
    form.
    """
    for g, x in ((g1, f.grid.s), (g2, f.grid.t)):
        _check_derivative_axis(g, x)
    F = np.asarray(f.samples, dtype=float)
    if not np.all(np.isfinite(F)):
        raise RoughInput("samples contain non-finite values")
    D_s = marchaud_derivative_matrix(g1, f.grid.s)
    D_t = marchaud_derivative_matrix(g2, f.grid.t)
    out = D_s @ F @ D_t.T
    if not np.all(np.isfinite(out)):
        raise RoughInput("difference quotients diverged on these samples")
    return GridFunction2D(f.grid, out)


# ----------------------------------------------------------------------------
# inverse kernel map for the separable drift
# ----------------------------------------------------------------------------

def power_gap_integral(h: float, t, tol: float = 1e-10):
    """J_h(t) = int_0^t (t^{1/2-h} - u^{1/2-h}) (t-u)^{-h-1/2} du.

    ``t`` is a scalar (a float is returned) or an array of points.  Each t
    is split at t/2 and both halves go to the batched graded rule, graded
    at the endpoint power c = 1/2 - h wherever it is singular; nothing about
    the t dependence is assumed, so the scaling law of J_h is observable
    output, and the value at one t does not depend on the others evaluated
    with it.
    """
    if not (0.0 < h < 1.0) or h == 0.5:
        raise ValueError(f"h={h} must be in (0,1) and not 1/2")
    t_in = np.asarray(t, dtype=float)
    ts = t_in.ravel()
    if not np.all(ts > 0.0):
        raise ValueError("t must be > 0")
    c = 0.5 - h
    tc = np.array([v**c for v in ts.tolist()])

    # near half, u in (0, t/2): graded at the origin for u^c when it is
    # singular (h > 1/2); a bounded u^c (h < 1/2) is better resolved by the
    # plain cubic substitution, which keeps the t^c term smooth
    e_near = min(c, 0.0)

    def near(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        tr = ts[rows, None]
        return (tc[rows, None] - u**c) * u**-e_near * (tr - u) ** (c - 1.0)

    # far half in gap coordinates v = t - u: the bracket t^c - (t-v)^c is
    # cancellation-prone, so it is expanded through expm1/log1p, and it
    # vanishes like v, leaving v^c times a smooth cofactor
    def far(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        tr = ts[rows, None]
        return -tc[rows, None] * np.expm1(c * np.log1p(-v / tr)) / v

    half = 0.5 * ts
    out = (integrate_graded_rows(near, half, e_near, tol=tol)
           + integrate_graded_rows(far, half, c, tol=tol))
    return float(out[0]) if t_in.ndim == 0 else out.reshape(t_in.shape)


def kinv_axis_factor(h: float, x: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Axis profile of the inverse kernel map applied to the identity drift.

    For h < 1/2 the profile is x^{h-1/2} I^{1/2-h}[u^{1/2-h}](x): the
    Riemann-Liouville integral is split at x/2, with each half graded at
    its singular endpoint, (x-u)^{g-1} on one and u^g on the other
    (g = 1/2 - h).  For h > 1/2 it is x^{h-1/2} D^{h-1/2}[u^{1/2-h}](x) with
    the Marchaud difference integral carried by ``power_gap_integral``.
    All points go to one batched graded rule per half, and each point's
    value is independent of the others.  The boundary regime has no
    formula of either type.
    """
    if h == 0.5:
        raise RegimeUndefined("axis profile undefined at h = 1/2")
    if not (0.0 < h < 1.0):
        raise ValueError(f"h={h} not in (0, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0):
        raise ValueError("profile requires x > 0")
    g = abs(h - 0.5)
    pre = np.array([v ** (h - 0.5) for v in x.tolist()])
    if h < 0.5:
        # near half in gap coordinates v = x - u, graded for v^{g-1}
        near = lambda rows, v: (x[rows, None] - v) ** g
        far = lambda rows, u: (x[rows, None] - u) ** (g - 1.0)
        half = 0.5 * x
        inner = (integrate_graded_rows(near, half, g - 1.0, tol=tol)
                 + integrate_graded_rows(far, half, g, tol=tol))
        return pre * inner / math.gamma(g)
    base = np.array([v ** (1.0 - 2.0 * h) for v in x.tolist()])
    gap = g * power_gap_integral(h, x, tol=tol)
    return pre * (base + gap) / math.gamma(1.0 - g)


# tolerance of the axis profiles inside both squared norms, and the outer
# tolerance of the quadrature norm
_NORM_PROFILE_TOL = 1e-9
_RKHS_NORM_TOL = 1e-7


@lru_cache(maxsize=16)
def _axis_norm_sq(h: float, T: float) -> float:
    # the squared profile is a multiple of x^{1-2h}: grade the origin for it
    f2 = lambda x: kinv_axis_factor(h, x, tol=_NORM_PROFILE_TOL) ** 2
    return integrate_graded(f2, 0.0, T, e_a=1.0 - 2.0 * h, tol=_RKHS_NORM_TOL)


def rkhs_norm_sq_separable(alpha: float, beta: float, T: float) -> float:
    """Squared Cameron-Martin norm of the separable drift: the product of the
    squared L2 norms of the two axis profiles, all quadrature.  Each axis
    norm is computed once per (h, T), so alpha = beta costs one axis."""
    return _axis_norm_sq(alpha, T) * _axis_norm_sq(beta, T)


def _axis_profile_with_origin(h: float, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    # limit at the origin: 0 on the integral side, divergent on the
    # derivative side
    out[0] = 0.0 if h < 0.5 else np.nan
    out[1:] = kinv_axis_factor(h, x[1:])
    return out


def kinv_apply_F(alpha: float, beta: float, grid: Grid2D) -> GridFunction2D:
    """Inverse kernel image of the drift F(s, t) = s t at the grid nodes.

    The map factorises over axes, so the samples are the outer product of
    the two axis profiles, each at ``kinv_axis_factor``'s default
    tolerance.  Values on the coordinate axes are the profile limits: 0
    below 1/2, nan above.
    """
    check_regime(alpha, beta)
    ps = _axis_profile_with_origin(alpha, grid.s)
    pt = _axis_profile_with_origin(beta, grid.t)
    return GridFunction2D(grid, np.outer(ps, pt))


def _axis_norm_sq_discrete(h: float, x: np.ndarray) -> float:
    # midpoint rule over the grid cells; the first cell gets a graded
    # subdivision because the profile's power at 0 is known and possibly
    # singular (h > 1/2)
    profile_sq = lambda u: kinv_axis_factor(h, u, tol=_NORM_PROFILE_TOL) ** 2
    edges = x[1:]
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    total = float(np.sum(profile_sq(mids) * widths))
    sub = x[1] * (np.arange(17) / 16.0) ** 3
    sub_mids = 0.5 * (sub[:-1] + sub[1:])
    sub_w = np.diff(sub)
    total += float(np.sum(profile_sq(sub_mids) * sub_w))
    return total


def kinv_norm_sq_discrete(alpha: float, beta: float, grid: Grid2D) -> float:
    """Grid-based squared L2 norm of the inverse kernel image of F(s, t) = st.

    Separable, so the estimate is the product of two per-axis midpoint sums.
    Finiteness and stability of this number under refinement is the working
    membership check for the drift.  On a square grid with alpha = beta
    the two factors are the same number, so one axis is evaluated.
    """
    check_regime(alpha, beta)
    s_norm = _axis_norm_sq_discrete(alpha, grid.s)
    if beta == alpha and np.array_equal(grid.s, grid.t):
        return s_norm * s_norm
    return s_norm * _axis_norm_sq_discrete(beta, grid.t)


def girsanov_log_density(epsilon: float, w, kinvF_norm_sq: float):
    """log of the change-of-measure density for the shifted sheet:

        W(T, T) / epsilon  -  ||K^{-1} F||^2 / (2 epsilon^2).

    ``w`` is W(T, T), a float or an array of values, and the result has its
    shape; any Gaussian functional whose variance is the norm tilts the same
    way.  ``kinvF_norm_sq`` is whatever norm convention the caller
    adjudicated; this function only assembles the exponent.  Below
    epsilon ~ 1e-154, 2 epsilon^2 underflows to 0 and the compensator reads
    inf rather than raising.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return w / epsilon - kinvF_norm_sq / np.float64(2.0 * epsilon * epsilon)
