"""End-to-end experiment runners behind the command-line interface.

Each ``cmd_*`` function reproduces one checkable claim: agreement of the
truncated chaos sum with the exponential solution, the Euler-scheme
convergence threshold in the Hurst exponent, negativity of the sheet
solution on the deterministic window, the change-of-measure unit-mean
identity, the fractional-operator identities, and plain field sampling
with covariance validation.

Runs are reproducible from (settings, seed): replicas are drawn in fixed
chunks keyed by (seed, chunk index), per-chunk moments are merged in chunk
order by the Chan-Golub-LeVeque update, and thread counts change
wall-clock only.  Every metric in a report carries its declared tolerance
and the run's seed; an experiment passes iff all its metrics pass.
"""
from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    _CHAOS_BLOCK_VALUES,
    chaos_norm_decay,
    chaos_total_1d,
    check_sheet_solve,
    deterministic_sheet_solution,
    exact_solution_1d,
    solve_sheet_chaos_total_blocks,
    wick_euler_paths,
)
from .fields import (
    cov_fbm,
    factor_covariance,
    sample_fbm_batch,
    sample_sheet_batch,
)
from .model import (
    Grid2D,
    HurstPair,
    ModelParams,
    MonteCarloResult,
    RngStreamSpec,
    build_grid,
    build_grid2d,
    chunk_moments,
    combine_moments,
)
from .operators import (
    GridFunction2D,
    check_regime,
    frac_derivative_2d,
    frac_integral_2d,
    girsanov_log_density,
    kinv_apply_F,
    kinv_norm_sq_discrete,
    kstar_indicator_norm_sq,
    power_gap_integral,
    rkhs_norm_sq_separable,
)
from .special import negativity_interval, volterra_kernel
from .quad import QuadratureOverflow, gauss_legendre_01

__all__ = [
    "EmptyRegion",
    "TruncationTooLow",
    "RunSettings",
    "MetricResult",
    "ExperimentReport",
    "negativity_mask",
    "cmd_exact_vs_chaos",
    "cmd_euler_study",
    "cmd_negativity",
    "cmd_girsanov_check",
    "cmd_operator_check",
    "cmd_simulate",
]

# Fixed chunking makes the replica -> stream map independent of thread
# count; never tie this to a config knob.
_CHUNK_REPLICAS = 4096

# Values per block of the sheet noise of girsanov-check and sheet simulate
# (64 replicas at grid 64): one 2 MB block stays in a per-core L2 cache
# while it is drawn and read.
_NOISE_BLOCK_VALUES = 2**18
# Values per block of negativity's noise (227 replicas at grid 48).  Each
# block applies the chain kernels three times, in ten trmm calls each at
# grid 48 (four t-tiles), and each call packs its tile's triangle, so
# larger blocks than the others spread that cost.  At grid 48 (2000
# replicas, one thread, three sets of 10 interleaved runs) 2**18 took 3-6%
# longer in the median than 2**19, and peaked 9 MB lower (83 against 92 MB).
_CHAIN_BLOCK_VALUES = 2**19


class _ChunkBuffers(threading.local):
    """Float arrays reused by every chunk a thread runs, one set per thread.

    ``take(*shapes)`` returns C-contiguous arrays of those shapes, each a
    view of the thread's own flat array, so a chunk allocates nothing
    chunk-sized.  Each flat array holds ``_CHUNK_REPLICAS`` times the size
    given for one replica; pages are touched only as chunks use them.  The
    arrays live as long as the object, so keep it local to a command.
    """

    def __init__(self, *per_replica: int) -> None:
        self.flat = [np.empty(_CHUNK_REPLICAS * size) for size in per_replica]

    def take(self, *shapes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        return tuple(
            f[:math.prod(shape)].reshape(shape) for f, shape in zip(self.flat, shapes)
        )


def _noise_blocks(seed: int, idx: int, count: int, n: int, values: int):
    """Yield ``(r0, z)``: chunk ``idx``'s ``count`` n x n standard normal
    matrices, drawn in stream order into one reused buffer of about
    ``values`` values, ``z`` holding replicas ``r0 .. r0 + len(z) - 1``.
    The draws are those of one ``standard_normal((count, n, n))`` call on
    the chunk's stream.  All three sheet commands (girsanov-check, sheet
    simulate, negativity) draw their noise here."""
    rng = RngStreamSpec(seed, idx).generator()
    rows = max(1, values // (n * n))
    buf = np.empty((min(rows, count), n, n))
    for r0 in range(0, count, rows):
        z = buf[:count - r0]
        rng.standard_normal(out=z)
        yield r0, z

# Depth of the negativity window: the limit surface must sit below -delta.
NEGATIVITY_DELTA = 0.1


class EmptyRegion(ValueError):
    """The requested negativity window contains no grid nodes."""


class TruncationTooLow(RuntimeError):
    """Estimated chaos tail exceeds the tolerated share of the field scale."""


@dataclass(frozen=True)
class RunSettings:
    """Common experiment configuration; one flat bag shared by all commands.

    ``beta`` switches the sheet model on; ``truncation`` of None picks the
    per-command default (20 Hermite orders for one-parameter runs, 3 for
    sheet runs).  Every estimate carries a standard error, so ``samples``
    must be at least 2.
    """

    alpha: float = 0.3
    beta: float | None = None
    a: float = 1.0
    b: float = 0.0
    T: float = 1.0
    grid_n: int = 64
    samples: int = 1000
    seed: int = 20240801
    truncation: int | None = None
    epsilon: float = 1.0
    threads: int = 1
    debug_corrupt_quadrature: bool = False

    def __post_init__(self) -> None:
        if self.grid_n < 1 or self.threads < 1:
            raise ValueError("grid_n and threads must be positive")
        if self.samples < 2:
            raise ValueError("samples must be >= 2 for a standard error")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        reals = (self.alpha, self.beta, self.a, self.b, self.T, self.epsilon)
        if not all(v is None or math.isfinite(v) for v in reals):
            raise ValueError("real-valued settings must be finite")

    def model_params(self) -> ModelParams:
        return ModelParams(HurstPair(self.alpha, self.beta), self.a, self.b, self.T)


@dataclass(frozen=True)
class MetricResult:
    """One named check: value, declared tolerance, verdict, provenance.

    ``seed`` is left unset by the runners; the report stamps the run's seed.
    """

    name: str
    value: float
    tolerance: str
    passed: bool
    seed: int | None = None
    std_error: float | None = None
    target: float | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a non-finite value cannot pass; to_dict writes it as JSON null
        if not math.isfinite(self.value):
            object.__setattr__(self, "passed", False)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["passed"] = bool(self.passed)
        return _finite_or_null(d)


def _finite_or_null(obj):
    """Replace every non-finite float, at any depth, by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one command produced: metrics, tables, timing."""

    experiment: str
    parameters: dict
    metrics: tuple[MetricResult, ...]
    wall_seconds: float
    tables: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "metrics": [m.to_dict() for m in self.metrics],
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "tables": sorted(self.tables),
        }


# ----------------------------------------------------------------------------
# Replica-chunked Monte Carlo plumbing
# ----------------------------------------------------------------------------

def _chunk_layout(total: int) -> list[tuple[int, int]]:
    """(chunk_index, replica_count) pairs covering ``total`` replicas."""
    starts = range(0, total, _CHUNK_REPLICAS)
    return [(i, min(_CHUNK_REPLICAS, total - start)) for i, start in enumerate(starts)]


def _map_chunks(work: Callable, total: int, threads: int) -> list:
    """Run ``work(chunk_index, count)`` over all chunks.

    Results come back in chunk order whatever the completion order, so any
    downstream reduction is deterministic in the thread count.
    """
    # perfbench/tracer.py replaces this function by name wherever it is
    # referenced and calls it as (work, total, threads); keep both.
    chunks = _chunk_layout(total)
    if threads <= 1:
        return [work(i, c) for i, c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda ic: work(ic[0], ic[1]), chunks))


def _within_4se(
    name: str, result: MonteCarloResult, target: float, of: str, **detail
) -> MetricResult:
    """Pass iff the estimate lies within 4 standard errors of ``target``."""
    gap = abs(result.estimate - target)
    # degenerate spread (a = 0 cases) falls back to near-exact agreement
    passed = gap < 1e-12 if result.std_error == 0.0 else gap <= 4.0 * result.std_error
    return MetricResult(
        name=name,
        value=result.estimate,
        tolerance=f"within 4 standard errors of {of}",
        passed=passed,
        std_error=result.std_error,
        target=float(target),
        detail=detail,
    )


def _below(
    name: str, value: float, limit: str, note: str = "", **detail
) -> MetricResult:
    """Pass iff ``value < limit``.

    ``limit`` is text so that the tolerance prints it as written: "1e-8",
    where ``f"{1e-8:g}"`` would give "1e-08".
    """
    tolerance = f"< {limit} {note}" if note else f"< {limit}"
    return MetricResult(
        name=name, value=value, tolerance=tolerance, passed=value < float(limit),
        detail=detail,
    )


def _reported(name: str, value: float, what: str, **detail) -> MetricResult:
    """A diagnostic that is reported only and always passes."""
    return MetricResult(
        name=name, value=value, tolerance=f"reported only ({what})", passed=True,
        detail=detail,
    )


def _node_table(grid: Grid2D, names: list[str], *values: np.ndarray):
    """One (s, t, *values) row per node of ``grid``, s-major."""
    rows = [
        (s, t, *(v[i, j].item() for v in values))
        for i, s in enumerate(grid.s.tolist())
        for j, t in enumerate(grid.t.tolist())
    ]
    return ["s", "t", *names], rows


def _metric_table(metrics: Sequence[MetricResult], header: list[str]):
    """One row per metric: its name, then the attributes named in header[1:]."""
    return header, [(m.name, *(getattr(m, c) for c in header[1:])) for m in metrics]


def _report(
    experiment: str, settings: RunSettings, t0: float, metrics, tables, **echo
) -> ExperimentReport:
    """Stamp the run's seed on every metric and the wall time since ``t0``;
    echo the settings with overrides."""
    return ExperimentReport(
        experiment=experiment,
        parameters={**asdict(settings), **echo},
        metrics=tuple(replace(m, seed=settings.seed) for m in metrics),
        wall_seconds=time.perf_counter() - t0,
        tables=tables,
    )


# ----------------------------------------------------------------------------
# Exponential form vs truncated chaos
# ----------------------------------------------------------------------------

def cmd_exact_vs_chaos(settings: RunSettings) -> ExperimentReport:
    """Pathwise agreement of the Hermite chaos sum with the exponential form.

    Two metrics: the sup-node error of the truncated sum over all sampled
    paths (tolerance 1e-8 at the default truncation) and the Monte Carlo
    mean of X_T against its closed-form value e^{bT} (4 standard errors).
    A chunk samples into its thread's reused buffers and evaluates both
    solutions on cache-sized row blocks (``_CHAOS_BLOCK_VALUES``); a nan
    anywhere makes the sup-node error nan, so the metric fails.
    """
    if settings.beta is not None:
        raise ValueError("exact-vs-chaos is a one-parameter experiment")
    t0 = time.perf_counter()
    p = settings.model_params()
    N = 20 if settings.truncation is None else settings.truncation
    grid = build_grid(settings.grid_n, settings.T)
    factor = factor_covariance(settings.alpha, grid)

    n = grid.n_steps
    buffers = _ChunkBuffers(n + 1, n)
    rows = max(1, _CHAOS_BLOCK_VALUES // (n + 1))

    def work(idx: int, count: int):
        values, z = buffers.take((count, n + 1), (count, n))
        sample_fbm_batch(factor, count, RngStreamSpec(settings.seed, idx), out=(values, z))
        terminal = np.empty(count)
        sup = 0.0
        for r0 in range(0, count, rows):
            block = values[r0:r0 + rows]
            chaos = chaos_total_1d(p.a, p.b, settings.alpha, grid.points, block, N)
            exact = exact_solution_1d(p.a, p.b, settings.alpha, grid.points, block)
            # np.maximum keeps a nan, where max() would drop it
            sup = np.maximum(sup, np.max(np.abs(chaos - exact)))
            terminal[r0:r0 + rows] = exact[:, -1]
        return sup, chunk_moments(terminal)

    parts = _map_chunks(work, settings.samples, settings.threads)
    sup_err = float(np.max([p_[0] for p_ in parts]))
    mean_T = combine_moments([p_[1] for p_ in parts], settings.seed)
    try:
        target = math.exp(p.b * p.T)
    except OverflowError:  # fails its metric and is written as null
        target = math.inf

    metrics = (
        _below("sup_node_error", sup_err, "1e-8", truncation=N, paths=settings.samples),
        _within_4se("terminal_mean", mean_T, target, "exp(b T)"),
    )
    tables = {
        "exact_vs_chaos": (
            ["metric", "value", "target", "std_error"],
            [
                ("sup_node_error", sup_err, 0.0, ""),
                ("terminal_mean", mean_T.estimate, target, mean_T.std_error),
            ],
        )
    }
    return _report("exact-vs-chaos", settings, t0, metrics, tables, truncation=N)


# ----------------------------------------------------------------------------
# Euler threshold study
# ----------------------------------------------------------------------------

_EULER_ALPHAS = (0.3, 0.5, 0.7)
_EULER_STEPS = (8, 16, 32, 64, 128)


def cmd_euler_study(settings: RunSettings) -> ExperimentReport:
    """L2 error of the Wick-corrected Euler scheme across step counts.

    All step counts share paths sampled on the finest grid (coarser grids
    read every 2^k-th node), so the trend across n is a coupled comparison.
    A chunk samples node-major into its thread's reused buffers, so the
    scheme's step-major loop reads and writes contiguous rows.
    The convergence verdict per Hurst exponent is err(128) < err(8) / 2;
    the threshold case alpha = 1/2 is reported, not asserted.  The Hurst
    exponents and step counts are fixed, so the report echoes ``alpha``,
    ``grid_n``, ``truncation`` and ``epsilon`` as null.
    """
    if settings.beta is not None:
        raise ValueError("euler-study is a one-parameter experiment")
    if settings.b != 0.0:
        raise ValueError("the scheme is defined for the driftless equation")
    t0 = time.perf_counter()
    n_fine = _EULER_STEPS[-1]
    T = settings.T
    fine = build_grid(n_fine, T)
    errors: dict[float, dict[int, MonteCarloResult]] = {}
    buffers = _ChunkBuffers(n_fine + 1, n_fine, n_fine + 1)

    for alpha in _EULER_ALPHAS:
        p = ModelParams(HurstPair(alpha), settings.a, 0.0, T)
        factor = factor_covariance(alpha, fine)

        def work(idx: int, count: int, p=p, factor=factor):
            # node-major: the scheme's step-major loop reads contiguous rows
            nodes, z, paths = buffers.take(
                (n_fine + 1, count), (count, n_fine), (n_fine + 1, count)
            )
            values = nodes.T
            sample_fbm_batch(factor, count, RngStreamSpec(settings.seed, idx), out=(values, z))
            limit = exact_solution_1d(p.a, 0.0, p.hurst.alpha, T, values[:, -1])
            out = []
            for n in _EULER_STEPS:
                x_hat = wick_euler_paths(
                    p, build_grid(n, T), values[:, :: n_fine // n], out=paths[:n + 1].T
                )[:, -1]
                out.append(chunk_moments((x_hat - limit) ** 2))
            return out

        parts = _map_chunks(work, settings.samples, settings.threads)
        errors[alpha] = {
            n: combine_moments([part[j] for part in parts], settings.seed)
            for j, n in enumerate(_EULER_STEPS)
        }

    rows = []
    metrics = []
    for alpha in _EULER_ALPHAS:
        per_n = errors[alpha]
        for n in _EULER_STEPS:
            r = per_n[n]
            rows.append((alpha, n, r.estimate, r.std_error))
        coarse, finest = per_n[_EULER_STEPS[0]], per_n[_EULER_STEPS[-1]]
        halved = finest.estimate < 0.5 * coarse.estimate
        verdict = "CONVERGES" if halved else "DOES-NOT-CONVERGE"
        if alpha > 0.5:
            passed, tol = halved, "err(128) < err(8)/2"
        elif alpha < 0.5:
            passed, tol = not halved, "err(128) >= err(8)/2"
        else:
            passed, tol = True, "reported only (threshold case)"
        metrics.append(
            MetricResult(
                name=f"euler_alpha_{alpha}",
                value=finest.estimate,
                tolerance=tol,
                passed=passed,
                std_error=finest.std_error,
                detail={"verdict": verdict, "err_coarse": coarse.estimate},
            )
        )
    tables = {"euler_errors": (["alpha", "n_steps", "l2_error", "std_error"], rows)}
    return _report(
        "euler-study", settings, t0, metrics, tables,
        alpha=None, grid_n=None, truncation=None, epsilon=None,
    )


# ----------------------------------------------------------------------------
# Negativity of the sheet solution
# ----------------------------------------------------------------------------

def negativity_mask(grid: Grid2D, a: float, delta: float) -> np.ndarray:
    """Boolean node mask of the window where the limit surface is below -delta.

    Nodes (s, t) strictly inside (0, T)^2 with lo < -a s t < hi, the
    bracketing interval of h0 at depth delta.
    """
    band = negativity_interval(delta)
    s = grid.s[:, None]
    t = grid.t[None, :]
    prod = -a * s * t
    inside = (s > 0.0) & (t > 0.0) & (s < grid.T) & (t < grid.T)
    mask = inside & (prod > band.lo) & (prod < band.hi)
    if not mask.any():
        raise EmptyRegion(
            f"no grid node satisfies {band.lo:.3f} < -a s t < {band.hi:.3f} "
            f"inside (0, {grid.T})^2"
        )
    return mask


def _check_truncation(noise: float, T: float, truncation: int) -> float:
    """Tail share of the order-(N+1) chaos norm; raise when above 10%.

    The share is ``norm(N+1) / sum of norms(0..N+1)`` of a proxy: the
    one-parameter, driftless model HurstPair(0.5) with noise coefficient
    ``noise``, at t = T (``chaos_norm_decay``), not the sheet equation with
    its drift.  ROADMAP item 4 measured that this proxy understates the
    sheet's exact norm tail by 21-76x (grid 16, T = 3, epsilon 0.05 to
    0.5), so the 10% threshold is looser than it reads.
    """
    proxy = ModelParams(HurstPair(0.5), noise, 0.0, T)
    try:
        norms = chaos_norm_decay(proxy, truncation + 1)
        tail = norms[-1] / math.fsum(norms)
    except OverflowError:  # a norm past the double range: no small tail
        tail = math.inf
    if not tail <= 0.1:  # "tail > 0.1" would pass an inf / inf = nan share
        share = f"a {tail:.1%}" if math.isfinite(tail) else "a non-finite"
        raise TruncationTooLow(
            f"order-{truncation} truncation leaves {share} tail; "
            "raise the truncation or lower epsilon"
        )
    return float(tail)


def cmd_negativity(settings: RunSettings) -> ExperimentReport:
    """Small-noise negativity of the sheet solution on the window (0, T)^2.

    Simulates the scaled solution (noise coefficient a epsilon, drift -a)
    on a grid_n x grid_n grid and estimates the probability that every
    node of the window is negative.  Pass requires the 95% lower confidence
    bound above zero plus the calibrated regression floor p-hat >= 0.5; the
    drift-equation limit surface is checked to sit below -delta on the
    window first.  The truncation defaults to 3 chaos orders.
    """
    t0 = time.perf_counter()
    from scipy.special import betaincinv

    if settings.a <= 0.0:
        raise ValueError("a must be > 0")
    a, T = settings.a, settings.T
    N = 3 if settings.truncation is None else settings.truncation
    grid = build_grid2d(settings.grid_n, settings.grid_n, T)
    mask = negativity_mask(grid, a, NEGATIVITY_DELTA)
    tail = _check_truncation(a * settings.epsilon, T, N)
    limit = deterministic_sheet_solution(-a, grid.s[:, None], grid.t[None, :])
    margin = float((-NEGATIVITY_DELTA - limit[mask]).min())
    p = ModelParams(HurstPair(0.5, 0.5), a * settings.epsilon, -a, T)
    check_sheet_solve(p, grid, N)  # refuse an oversized grid before drawing

    def work(idx: int, count: int):
        blocks = _noise_blocks(settings.seed, idx, count, grid.n_s, _CHAIN_BLOCK_VALUES)
        all_neg, surface = 0, np.zeros(limit.shape)
        for _, total in solve_sheet_chaos_total_blocks(p, grid, blocks, N):
            all_neg += int(np.all(total[:, mask] < 0.0, axis=1).sum())
            # a running sum in replica order: the bits of the chunk's
            # total.sum(axis=0), whatever the block size
            for row in total:
                surface += row
        return count, all_neg, surface

    parts = _map_chunks(work, settings.samples, settings.threads)
    n = sum(p_[0] for p_ in parts)
    k = sum(p_[1] for p_ in parts)
    mean_surface = np.sum([p_[2] for p_ in parts], axis=0) / n
    p_hat = k / n
    # Clopper-Pearson 95% lower bound, the 0.05 quantile of Beta(k, n-k+1);
    # 0 when no replica succeeded
    lcb = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.05))
    mean_gap = float(np.max(np.abs(mean_surface - limit)[mask]))

    metrics = (
        MetricResult(
            name="limit_surface_margin",
            value=margin,
            tolerance="limit surface below -delta on every window node",
            passed=margin >= 0.0,
            detail={"delta": NEGATIVITY_DELTA, "window_nodes": int(mask.sum())},
        ),
        MetricResult(
            name="all_negative_lcb",
            value=lcb,
            tolerance="95% lower confidence bound > 0",
            passed=lcb > 0.0,
            detail={"p_hat": p_hat, "successes": k, "replicas": n},
        ),
        MetricResult(
            name="all_negative_rate",
            value=p_hat,
            tolerance=">= 0.5 (calibrated regression floor at epsilon = 0.05)",
            passed=p_hat >= 0.5,
        ),
        _reported(
            "mean_surface_gap", mean_gap, "epsilon -> 0 diagnostic",
            truncation_tail_share=tail,
        ),
    )
    tables = {
        "negativity_surface": _node_table(
            grid, ["mean", "limit", "in_window"], mean_surface, limit, mask
        )
    }
    # echo the model that ran, not the --alpha, --beta and --b it ignores
    return _report(
        "negativity", settings, t0, metrics, tables,
        alpha=0.5, beta=0.5, b=-a, truncation=N, delta=NEGATIVITY_DELTA,
    )


# ----------------------------------------------------------------------------
# Change-of-measure unit-mean check
# ----------------------------------------------------------------------------

def _solve_lower(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with L x = y for lower-triangular L, by forward substitution."""
    x = np.empty_like(y)
    for i in range(len(y)):
        x[i] = (y[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def _norm_or_inf(norm: Callable[..., float], *args) -> float:
    """``norm(*args)``, or inf where its quadrature leaves the double range,
    so that the metrics built on it fail and are written as null."""
    try:
        return norm(*args)
    except QuadratureOverflow:
        return math.inf


def cmd_girsanov_check(settings: RunSettings) -> ExperimentReport:
    """Unit mean of the shift density and centering of the shifted field.

    Two density normalisations are reported side by side, both assembled
    by the operator module's ``girsanov_log_density``.  The grid form
    tilts by a functional whose discrete-law variance is the compensator,
    so its mean is exactly 1 up to Monte Carlo noise.  The continuum form
    takes the far-corner field value over epsilon, with the quadrature
    inverse-kernel norm as compensator; its mean is predicted by the normal
    moment formula rather than pinned at 1, and it is checked against that
    prediction.  Pass metrics ride on the grid form.

    Each replica draws its whole n x n sheet noise Z (V = L_s Z L_t') but
    reads only two linear functionals of it: the far-corner value
    W_TT = row_s' Z row_t and the tilt xi = a' Z b.  A chunk draws its
    noise into one reused buffer, a cache-sized block of replicas at a
    time, in the order of the chunk's stream.  Each block keeps only the
    first contractions row_s' Z and a' Z.  The second (with row_t and b)
    runs once over the whole chunk: a matrix-vector product rounds
    differently with its row count, and one product per chunk keeps every
    result independent of the block size.
    """
    t0 = time.perf_counter()
    if settings.beta is None:
        raise ValueError("the change-of-measure check needs a sheet model")
    check_regime(settings.alpha, settings.beta)
    alpha, beta, T, eps = settings.alpha, settings.beta, settings.T, settings.epsilon
    n = settings.grid_n
    if n < 2 or n % 2:
        raise ValueError("grid_n must be even and >= 2 for the refinement check")
    grid = build_grid2d(n, n, T)

    # tilting functional: xi = a' Z b reproduces E[W_{s,t} xi] = s t at nodes
    line = build_grid(n, T)
    Ls = factor_covariance(alpha, line).lower_triangular
    Lt = factor_covariance(beta, line).lower_triangular
    avec = _solve_lower(Ls, line.points[1:])
    bvec = _solve_lower(Lt, line.points[1:])
    grid_norm_sq = float(avec @ avec) * float(bvec @ bvec)
    quad_norm_sq = _norm_or_inf(rkhs_norm_sq_separable, alpha, beta, T)
    coarse_grid = build_grid2d(n // 2, n // 2, T)
    coarse = _norm_or_inf(kinv_norm_sq_discrete, alpha, beta, coarse_grid)
    fine = _norm_or_inf(kinv_norm_sq_discrete, alpha, beta, grid)
    refine_change = abs(fine - coarse) / coarse

    row_s, row_t = Ls[-1, :], Lt[-1, :]
    # 2 eps^2 underflows to 0 below eps ~ 1e-154; the log of the predicted
    # mean is then infinite, not an exception
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_mean_quad = ((np.float64(T) ** (2 * alpha + 2 * beta) - quad_norm_sq)
                         / np.float64(2.0 * eps * eps))

    def work(idx: int, count: int):
        w_s, xi_s = np.empty((count, n)), np.empty((count, n))
        for r0, z in _noise_blocks(settings.seed, idx, count, n, _NOISE_BLOCK_VALUES):
            np.matmul(row_s, z, out=w_s[r0:r0 + len(z)])
            np.matmul(avec, z, out=xi_s[r0:r0 + len(z)])
        w_tt = w_s @ row_t
        xi = xi_s @ bvec
        dens_grid = np.exp(girsanov_log_density(eps, xi, grid_norm_sq))
        dens_quad = np.exp(girsanov_log_density(eps, w_tt, quad_norm_sq))
        shifted = dens_grid * (w_tt - T * T / eps)
        return (
            chunk_moments(dens_grid),
            chunk_moments(dens_quad),
            chunk_moments(shifted),
            float(np.square(dens_grid).sum()),
        )

    parts = _map_chunks(work, settings.samples, settings.threads)
    mean_grid = combine_moments([p_[0] for p_ in parts], settings.seed)
    mean_quad = combine_moments([p_[1] for p_ in parts], settings.seed)
    mean_shift = combine_moments([p_[2] for p_ in parts], settings.seed)
    sum_d = mean_grid.estimate * settings.samples
    sum_d2 = math.fsum(p_[3] for p_ in parts)
    ess = sum_d * sum_d / sum_d2 if sum_d2 > 0 else 0.0
    try:
        predicted_quad = math.exp(log_mean_quad)
    except OverflowError:  # fails its metric and is written as null
        predicted_quad = math.inf

    metrics = (
        _within_4se("density_mean", mean_grid, 1.0, "1"),
        _within_4se("shifted_field_mean", mean_shift, 0.0, "0"),
        _within_4se(
            "density_mean_continuum_norm", mean_quad, predicted_quad,
            "its predicted mean",
            norm_sq_grid=grid_norm_sq, norm_sq_quadrature=quad_norm_sq,
        ),
        MetricResult(
            name="inverse_norm_refinement",
            value=refine_change,
            tolerance="relative change < 5% under 2x refinement",
            passed=refine_change < 0.05,
            detail={"coarse": coarse, "fine": fine},
        ),
        _reported(
            "effective_sample_share", ess / settings.samples,
            "importance-sampling variance monitor",
        ),
    )
    tables = {
        "girsanov": _metric_table(metrics[:3], ["metric", "value", "std_error", "target"])
    }
    return _report("girsanov-check", settings, t0, metrics, tables)


# ----------------------------------------------------------------------------
# Operator identity suite
# ----------------------------------------------------------------------------

def _corrupt_indicator_norm(alpha: float, t: float) -> float:
    # deliberately ungraded rule; misses the endpoint singularity
    nodes, weights = gauss_legendre_01(8)
    vals = volterra_kernel(alpha, t, t * nodes) ** 2
    return float(t * np.sum(weights * vals))


def cmd_operator_check(settings: RunSettings) -> ExperimentReport:
    """Battery of fractional-operator identities at one Hurst exponent.

    Covers the isometry normalisation of the adjoint-kernel map, the
    derivative-after-integral round trip, the slope of the gap integral,
    and agreement of the two inverse-operator regimes near 1/2.  The
    ``debug_corrupt_quadrature`` flag swaps in an ungraded quadrature for
    the norm identity so harness sensitivity can be demonstrated.  Only
    ``alpha``, ``T``, ``seed`` and that flag are read; the report echoes the
    other model and sampling settings as null.
    """
    t0 = time.perf_counter()
    alpha, T = settings.alpha, settings.T
    metrics = []

    if settings.debug_corrupt_quadrature:
        norm_fn = _corrupt_indicator_norm
    else:
        norm_fn = lambda _, t: _norm_or_inf(kstar_indicator_norm_sq, alpha, t, T)
    # relative, so that the gate reads the same at every T; a target
    # t^{2 alpha} that underflows to 0, or a norm and target that both
    # overflow, make the error non-finite, and np.max keeps a nan where a
    # Python max() could drop it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norm_err = float(np.max([
            abs(np.float64(norm_fn(alpha, t)) / np.float64(t) ** (2.0 * alpha) - 1.0)
            for t in (0.5 * T, T)
        ]))
    metrics.append(
        _below(
            "indicator_norm_identity", norm_err, "1e-4", "relative",
            corrupted=settings.debug_corrupt_quadrature,
        )
    )

    g = build_grid2d(16, 16, 1.0)
    uv = g.s[:, None] * g.t[None, :]
    f = GridFunction2D(g, 1.0 + uv)
    gg = (0.35, 0.45) if abs(alpha - 0.5) < 1e-12 else (min(alpha, 0.99), 0.45)
    roundtrip = frac_derivative_2d(frac_integral_2d(f, *gg), *gg)
    err_rt = float(
        np.max(np.abs(roundtrip.samples[1:, 1:] - (1.0 + uv)[1:, 1:]))
    )
    metrics.append(
        _below(
            "derivative_integral_roundtrip", err_rt, "1e-4", "at interior nodes",
            orders=gg,
        )
    )

    one = GridFunction2D(g, np.ones((17, 17)))
    xy = frac_integral_2d(one, 1.0, 1.0)
    err_xy = float(np.max(np.abs(xy.samples - uv)))
    metrics.append(
        _below("unit_orders_integral", err_xy, "1e-12", "(exact product rule)")
    )

    if abs(alpha - 0.5) > 1e-12:
        ts = np.array([0.25, 0.5, 1.0])
        # the gap integrand flips sign across 1/2; the scaling law is in |J|
        vals = np.abs(power_gap_integral(alpha, ts))
        slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
        target = 1.0 - 2.0 * alpha
        metrics.append(
            MetricResult(
                name="gap_integral_slope",
                value=slope,
                tolerance="within 0.02 of 1 - 2 alpha",
                passed=abs(slope - target) < 0.02,
                target=target,
            )
        )

    lo = kinv_apply_F(0.45, 0.45, g).samples
    hi = kinv_apply_F(0.55, 0.55, g).samples
    sel = [8, 10]  # nodes 0.5, 0.625: where both regime branches are flat
    gap = float(max(abs(lo[i, j] - hi[i, j]) for i in sel for j in sel))
    metrics.append(
        _below("regime_limit_consistency", gap, "0.05", "at central nodes (0.45 vs 0.55)")
    )

    tables = {"operator_checks": _metric_table(metrics, ["check", "value", "passed"])}
    return _report(
        "operator-check", settings, t0, metrics, tables,
        samples=None, beta=None, a=None, b=None, grid_n=None, epsilon=None,
        truncation=None,
    )


# ----------------------------------------------------------------------------
# Field sampling and covariance validation
# ----------------------------------------------------------------------------

def cmd_simulate(settings: RunSettings) -> ExperimentReport:
    """Sample driving fields, dump one trajectory, validate covariances.

    One-parameter mode checks the empirical covariance matrix against the
    closed form at every node pair (5 standard errors); sheet mode checks
    the variance at the far corner against T^{2 alpha + 2 beta} (4 standard
    errors) plus decorrelation of two disjoint rectangle increments.
    """
    simulate = _simulate_line if settings.beta is None else _simulate_sheet
    return simulate(settings)


def _simulate_line(settings: RunSettings) -> ExperimentReport:
    t0 = time.perf_counter()
    from scipy.special import ndtr, stdtrit

    grid = build_grid(settings.grid_n, settings.T)
    factor = factor_covariance(settings.alpha, grid)

    n = grid.n_steps
    buffers = _ChunkBuffers(n + 1, n, n + 1)

    def work(idx: int, count: int):
        values, z, sq = buffers.take((count, n + 1), (count, n), (count, n + 1))
        sample_fbm_batch(factor, count, RngStreamSpec(settings.seed, idx), out=(values, z))
        # the buffer is reused by the next chunk
        first = values[0].copy() if idx == 0 else None
        # (B_s B_u)^2 = B_s^2 B_u^2, so the product-estimator variance needs
        # only the elementwise-squared Gram matrix
        np.square(values, out=sq)
        return count, values.T @ values, sq.T @ sq, first

    parts = _map_chunks(work, settings.samples, settings.threads)
    n = sum(p_[0] for p_ in parts)
    cross = np.sum([p_[1] for p_ in parts], axis=0) / n
    sq = np.sum([p_[2] for p_ in parts], axis=0) / n
    path0 = parts[0][3]
    exact = cov_fbm(settings.alpha, grid.points[:, None], grid.points[None, :])
    # n - 1 sample variance of the products, hence a t statistic per pair
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.sqrt(np.maximum(sq - cross**2, 0.0) / (n - 1))
        z = np.abs(cross - exact) / se
    z[se == 0.0] = 0.0
    # an overflowing variance makes every z-score read 0: no verdict
    max_z = float(np.nanmax(z)) if np.all(np.isfinite(se)) else math.nan
    # the t(n-1) quantile whose upper tail is the normal tail beyond 5
    # standard errors; tends to 5 as n grows
    critical = float(-stdtrit(n - 1, ndtr(-5.0)))
    metrics = (
        MetricResult(
            name="covariance_max_z",
            value=max_z,
            tolerance="all node pairs within the t(n-1) critical value "
            "of a 5-standard-error two-sided tail",
            passed=max_z < critical,
            detail={"replicas": n, "critical_value": critical},
        ),
    )
    tables = {
        "sample_path": (
            ["t", "value"],
            [(float(t), float(v)) for t, v in zip(grid.points, path0)],
        ),
        "covariance": (
            ["s", "u", "empirical", "exact", "std_error"],
            [
                (float(grid.points[i]), float(grid.points[j]), float(cross[i, j]),
                 float(exact[i, j]), float(se[i, j]))
                for i in range(grid.n_steps + 1)
                for j in range(i, grid.n_steps + 1)
            ],
        ),
    }
    return _report("simulate", settings, t0, metrics, tables)


def _simulate_sheet(settings: RunSettings) -> ExperimentReport:
    """Sheet replicas V = L_s Z L_t', mapped by ``fields.sample_sheet_batch``.

    A chunk draws its noise into one reused buffer, a cache-sized block of
    replicas at a time, in the order of the chunk's stream; the sampler
    maps each block into one reused buffer of sheets, and the chunk keeps
    only each replica's far corner and two rectangle increments (and the
    first sheet).  Each replica's sheet is its own pair of matrix products,
    so no bit depends on the block size.
    """
    t0 = time.perf_counter()
    n = settings.grid_n
    if n < 2:
        # one cell leaves the first rectangle increment V(0, 0) = 0, and the
        # decorrelation check would compare 0 with its target 0
        raise ValueError(f"sheet simulate needs grid_n >= 2, got {n}")
    grid = build_grid2d(n, n, settings.T)
    alpha, beta = settings.alpha, settings.beta
    line = build_grid(n, settings.T)
    factor_s = factor_covariance(alpha, line)
    factor_t = factor_covariance(beta, line)
    half_s, half_t = grid.n_s // 2, grid.n_t // 2

    def work(idx: int, count: int):
        corner, inc_a, inc_b = np.empty(count), np.empty(count), np.empty(count)
        values = first = None
        for r0, z in _noise_blocks(settings.seed, idx, count, n, _NOISE_BLOCK_VALUES):
            if values is None:  # the first block is the largest
                values = np.empty((len(z), n + 1, n + 1))
            v = sample_sheet_batch(factor_s, factor_t, z, values[:len(z)])
            out = slice(r0, r0 + len(z))
            corner[out] = v[:, -1, -1]
            inc_a[out] = v[:, half_s, half_t]
            inc_b[out] = (
                v[:, -1, -1] - v[:, half_s, -1]
                - v[:, -1, half_t] + v[:, half_s, half_t]
            )
            if idx == 0 and r0 == 0:
                first = v[0].copy()
        return (
            chunk_moments(corner**2),
            chunk_moments(inc_a * inc_b),
            first,
        )

    parts = _map_chunks(work, settings.samples, settings.threads)
    var_corner = combine_moments([p_[0] for p_ in parts], settings.seed)
    decorr = combine_moments([p_[1] for p_ in parts], settings.seed)
    sheet0 = parts[0][2]
    with np.errstate(over="ignore"):  # an overflow fails its metric
        target = float(np.float64(settings.T) ** (2.0 * alpha + 2.0 * beta))
    # product covariance of the two rectangle increments; zero exactly at
    # Hurst (1/2, 1/2), nonzero otherwise by long-range dependence
    s_half = grid.s[grid.n_s // 2]
    t_half = grid.t[grid.n_t // 2]
    inc_target = (
        cov_fbm(alpha, s_half, grid.T) - cov_fbm(alpha, s_half, s_half)
    ) * (cov_fbm(beta, t_half, grid.T) - cov_fbm(beta, t_half, t_half))
    metrics = (
        _within_4se(
            "corner_variance", var_corner, target, "T^(2 alpha + 2 beta)"
        ),
        _within_4se(
            "disjoint_increment_covariance", decorr, inc_target,
            "the product-covariance value",
        ),
    )
    tables = {"sample_sheet": _node_table(grid, ["value"], sheet0)}
    return _report("simulate", settings, t0, metrics, tables)
