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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    chaos_norm_decay,
    chaos_total_1d,
    check_sheet_solve,
    deterministic_sheet_solution,
    exact_solution_1d,
    solve_sheet_chaos_total_blocks,
    wick_euler_factors,
)
from .fields import (
    cov_fbm,
    factor_covariance,
    sample_fbm_batch,
    sample_sheet_batch,
)
from .model import (
    Grid2D,
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
from .special import negativity_interval
from .quad import QuadratureOverflow

__all__ = [
    "EmptyRegion",
    "TruncationTooLow",
    "RunSettings",
    "SETTINGS_READ",
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

# Values per row block of exact-vs-chaos (252 rows at 65 nodes), which
# samples its paths, sums the chaos and takes the exact solution and their
# gap on one block while it is in cache.  A block's chaos sum and its
# buffer of x take 0.26 MB.  On 4096 paths x 65 nodes at N = 20 (one
# thread, Xeon with 2 MB L2 per core) the sum took 13.8, 10.7, 9.4, 8.7,
# 8.2 and 9.7 ms in blocks of 2**12 to 2**17 values; the whole
# exact-vs-chaos run could not tell 2**14 from 2**15 or 2**16.
# Block-sized temporaries are reused from the heap, where freed chunk-sized
# ones went back to the OS and faulted in again (75k minor faults in a
# 100k-replica run, about 1k with blocks).  Line simulate shares it.
_CHAOS_BLOCK_VALUES = 2**14
# Values per row block of euler-study (508 rows at 129 nodes): a block's
# paths, and the step factors that take its noise's array, stay in a
# per-core L2 cache across the five step counts.  Each block pays a fixed
# cost per step count; in 30 interleaved 20000-path runs (one thread) the
# command took 0.96 of its step-loop time at 2**16 and 1.01 at 2**15.
_EULER_BLOCK_VALUES = 2**16
# Values per block of the sheet noise of negativity and girsanov-check.
# girsanov-check (64 replicas at grid 64): one 2 MB block stays in a
# per-core L2 cache while it is drawn and read.
# negativity (113 replicas at grid 48): each block applies the chain
# kernels three times, in ten trmm calls each at grid 48 (four t-tiles),
# and each call has a fixed cost, so smaller blocks pay it more often: one
# apply took 10.3 ms on 113 replicas and 19.3 ms on 227.  At grid 48 (2000
# replicas, one thread, five interleaved runs) 2**18 took the same command
# time as 2**19 in the median and peaked 9 MB lower (79.5 against 88.2
# MB); the sheet-chain benchmark reads about 5% fewer replicas per second.
_NOISE_BLOCK_VALUES = 2**18
# Values per block of sheet simulate, counted over the three arrays a block
# holds at once: its noise, the products L_s Z and its sheets (81 replicas,
# 0.5 MB, at grid 16), so that all three stay in a per-core L2 cache.  At
# grid 16 (50000 replicas, two threads, one BLAS thread, five runs each)
# the command added 0.75, 0.88, 1.5 and 2.7 MB to the peak RSS at 2**14 to
# 2**17, against 15.0 MB for blocks of 2**18 noise values (three 2 MB
# arrays); its time read 0.15-0.17 s in the median at every size.
_SHEET_BLOCK_VALUES = 2**16


def _noise_blocks(seed: int, idx: int, n: int, blocks: list[tuple[int, int]]):
    """Yield ``(r0, z)``: chunk ``idx``'s n x n standard normal matrices,
    drawn in stream order into one reused buffer a block of ``blocks``
    (``_row_blocks``) at a time, ``z`` holding replicas
    ``r0 .. r0 + len(z) - 1``.
    The draws are those of one ``standard_normal((count, n, n))`` call on
    the chunk's stream.  All three sheet commands (girsanov-check, sheet
    simulate, negativity) draw their noise here."""
    rng = RngStreamSpec(seed, idx).generator()
    buf = np.empty((blocks[0][1], n, n))  # the first block is the largest
    for start, stop in blocks:
        z = buf[:stop - start]
        rng.standard_normal(out=z)
        yield start, z


def _row_blocks(count: int, rows: int) -> list[tuple[int, int]]:
    """(start, stop) blocks of ``count`` rows, ``max(rows, 1)`` at a time,
    the remainder last.  A command's blocks are part of its definition, as
    its chunks are: a block's products round by the block's shape, so a
    new block size is a stated change of output."""
    rows = max(rows, 1)
    return [(r0, min(r0 + rows, count)) for r0 in range(0, count, rows)]


def _path_blocks(L: np.ndarray, seed: int, idx: int, count: int, values: int,
                 node_major: bool = False):
    """Yield ``(r0, paths, z)``: chunk ``idx``'s ``count`` fBm paths and
    their noise, sampled by ``fields.sample_fbm_batch`` in row blocks of
    about ``values`` values (``_row_blocks``) into two reused buffers;
    ``paths`` (rows, n+1) holds replicas ``r0 .. r0 + len(paths) - 1``, as
    the transpose of an (n+1, rows) array if ``node_major``.  The draws are
    those of one call over the chunk; each block's paths are one GEMM by L
    over its rows."""
    n = len(L)
    rng = RngStreamSpec(seed, idx).generator()
    blocks = _row_blocks(count, values // (n + 1))
    z = np.empty((blocks[0][1], n))  # the first block is the largest
    paths = np.empty((n + 1, len(z))).T if node_major else np.empty((len(z), n + 1))
    for start, stop in blocks:
        k = stop - start
        yield (start, *sample_fbm_batch(L, k, rng, out=(paths[:k], z[:k])))


# Depth of the negativity window: the limit surface must sit below -delta.
NEGATIVITY_DELTA = 0.1


class EmptyRegion(ValueError):
    """The requested negativity window contains no grid nodes."""


class TruncationTooLow(RuntimeError):
    """Estimated chaos tail exceeds the tolerated share of the field scale."""


@dataclass(frozen=True)
class RunSettings:
    """Experiment configuration; each command reads the fields that
    ``SETTINGS_READ`` lists for it.

    ``beta`` switches ``simulate`` to the sheet model; ``truncation`` of
    None picks the per-command default (20 Hermite orders for
    ``exact-vs-chaos``, 3 for ``negativity``).  Every estimate carries a
    standard error, so ``samples`` must be at least 2.
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


# The RunSettings fields each command reads; every command reads ``seed``
# and ``threads`` too.  The CLI offers these as flags and config keys and
# refuses the rest, and a report echoes these and null for the others.
SETTINGS_READ = {
    command: (*read, "seed", "threads")
    for command, read in {
        "exact-vs-chaos": ("alpha", "a", "b", "T", "grid_n", "samples", "truncation"),
        "euler-study": ("a", "T", "samples"),
        "negativity": ("a", "T", "epsilon", "grid_n", "samples", "truncation"),
        "girsanov-check": ("alpha", "beta", "T", "epsilon", "grid_n", "samples"),
        "operator-check": ("alpha", "T"),
        "simulate": ("alpha", "beta", "T", "grid_n", "samples"),
    }.items()
}


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
    """Pass iff the estimate lies within 4 standard errors of ``target``.

    A standard error that is not finite bounds nothing, so it fails.  A
    spread no larger than the rounding of the estimate, eps |estimate|,
    counts as none (the a = 0 cases, where every path is e^{bT} and only
    the chunk sums round) and asks for agreement to 1e-12 of |target|, so a
    spread that underflowed, or a target of 0, leaves nothing to pass on.
    """
    gap, se = abs(result.estimate - target), result.std_error
    if se <= np.finfo(float).eps * abs(result.estimate):
        passed = gap < 1e-12 * abs(target)
    else:
        passed = math.isfinite(se) and gap <= 4.0 * se
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
    echo the settings the command reads, null for the rest, then ``echo``."""
    read = SETTINGS_READ[experiment]
    parameters = {k: v if k in read else None for k, v in asdict(settings).items()}
    return ExperimentReport(
        experiment=experiment,
        parameters={**parameters, **echo},
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
    A chunk samples its paths, and evaluates both solutions on them, one
    cache-sized row block at a time (``_CHAOS_BLOCK_VALUES``,
    ``_path_blocks``), so it holds no chunk-sized array of paths; a nan
    anywhere makes the sup-node error nan, so the metric fails.  A target
    e^{bT} past the double range, inf or underflowed to 0, fails too.
    """
    t0 = time.perf_counter()
    a, b = settings.a, settings.b
    N = 20 if settings.truncation is None else settings.truncation
    grid = build_grid(settings.grid_n, settings.T)
    L = factor_covariance(settings.alpha, grid)

    def work(idx: int, count: int):
        terminal = np.empty(count)
        sup = 0.0
        blocks = _path_blocks(L, settings.seed, idx, count, _CHAOS_BLOCK_VALUES)
        for r0, block, _ in blocks:
            chaos = chaos_total_1d(a, b, settings.alpha, grid.points, block, N)
            exact = exact_solution_1d(a, b, settings.alpha, grid.points, block)
            # np.maximum keeps a nan, where max() would drop it
            sup = np.maximum(sup, np.max(np.abs(chaos - exact)))
            terminal[r0:r0 + len(block)] = exact[:, -1]
        return sup, chunk_moments(terminal)

    parts = _map_chunks(work, settings.samples, settings.threads)
    sup_err = float(np.max([p_[0] for p_ in parts]))
    mean_T = combine_moments([p_[1] for p_ in parts])
    try:  # 0 from an underflow would match underflowed paths: nan fails
        target = math.exp(b * settings.T) or math.nan
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
    The study reads only the scheme's terminal value, the product of its
    step factors (``wick_euler_factors``).  A chunk samples its paths
    node-major, one cache-sized row block at a time (``_EULER_BLOCK_VALUES``,
    ``_path_blocks``), and each step count's factors of a block take the
    array of the block's noise, dead once sampled into the paths; the chunk
    holds no chunk-sized array of paths.
    The convergence verdict per Hurst exponent is err(128) < err(8) / 2;
    the threshold case alpha = 1/2 is reported, not asserted.  Errors carry
    a signal only above the rounding floor of a 128-step product,
    err(8) > (128 eps)^2 E[X_T^2]; below it, or when err(8) is not finite,
    every verdict reads NO-SIGNAL and the asserted two fail on a nan value.
    The Hurst exponents and step counts are fixed, and the scheme is
    driftless.
    """
    t0 = time.perf_counter()
    n_fine = _EULER_STEPS[-1]
    a, T = settings.a, settings.T
    grids = {n: build_grid(n, T) for n in _EULER_STEPS}
    errors: dict[float, dict[int, MonteCarloResult]] = {}

    for alpha in _EULER_ALPHAS:
        L = factor_covariance(alpha, grids[n_fine])

        def work(idx: int, count: int, alpha=alpha, L=L):
            # the scheme's X_T at each step count, then the paths' B_T
            ends = np.empty((len(_EULER_STEPS) + 1, count))
            blocks = _path_blocks(L, settings.seed, idx, count, _EULER_BLOCK_VALUES,
                                  node_major=True)
            for r0, values, z in blocks:
                out = slice(r0, r0 + len(values))
                for j, n in enumerate(_EULER_STEPS):
                    factors = wick_euler_factors(
                        a, alpha, grids[n], values[:, :: n_fine // n],
                        out=z.reshape(n_fine, len(z))[:n],
                    )
                    np.multiply.reduce(factors, axis=0, out=ends[j, out])
                ends[-1, out] = values[:, -1]
            sq = ends[:-1]
            sq -= exact_solution_1d(a, 0.0, alpha, T, ends[-1])
            np.square(sq, out=sq)
            return [chunk_moments(row) for row in sq]

        parts = _map_chunks(work, settings.samples, settings.threads)
        errors[alpha] = {
            n: combine_moments([part[j] for part in parts])
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
        # each of the 128 factors rounds X_T by about eps, so rounding alone
        # leaves errors of (128 eps)^2 E[X_T^2], E[X_T^2] = e^{a^2 T^{2 alpha}}.
        # Errors at or below that floor, or past the double range, carry no
        # trend, and an asserted verdict then fails on a nan value
        with np.errstate(over="ignore"):
            scale = np.exp(np.float64(a) * a * np.float64(T) ** (2.0 * alpha))
        floor = float((n_fine * np.finfo(float).eps) ** 2 * scale)
        signal = floor < coarse.estimate < math.inf
        if not signal:
            verdict = "NO-SIGNAL"
        else:
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
                value=finest.estimate if signal or alpha == 0.5 else math.nan,
                tolerance=tol,
                passed=passed,
                std_error=finest.std_error,
                detail={"verdict": verdict, "err_coarse": coarse.estimate},
            )
        )
    tables = {"euler_errors": (["alpha", "n_steps", "l2_error", "std_error"], rows)}
    return _report("euler-study", settings, t0, metrics, tables)


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
    one-parameter, driftless equation at Hurst exponent 1/2 with noise
    coefficient ``noise``, at t = T (``chaos_norm_decay``), not the sheet
    equation with its drift.  ROADMAP item 4 measured that this proxy
    understates the sheet's exact norm tail by 21-76x (grid 16, T = 3,
    epsilon 0.05 to 0.5), so the 10% threshold is looser than it reads.
    """
    try:
        norms = chaos_norm_decay(noise, 0.5, T, truncation + 1)
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
    noise = a * settings.epsilon
    tail = _check_truncation(noise, T, N)
    limit = deterministic_sheet_solution(-a, grid.s[:, None], grid.t[None, :])
    margin = float((-NEGATIVITY_DELTA - limit[mask]).min())
    check_sheet_solve(-a, grid, N)  # refuse an oversized grid before drawing

    def work(idx: int, count: int):
        blocks = _noise_blocks(settings.seed, idx, grid.n_s, _row_blocks(
            count, _NOISE_BLOCK_VALUES // grid.n_s**2))
        all_neg, surface = 0, np.zeros(limit.shape)
        for _, total in solve_sheet_chaos_total_blocks(noise, -a, grid, blocks, N):
            all_neg += int(np.all(total[:, mask] < 0.0, axis=1).sum())
            # a running sum in replica order: the bits of the chunk's
            # total.sum(axis=0), whatever the block size
            for row in total:
                surface += row
            del total, row  # row views total: drop both before the next block
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
    # echo the model that ran: the Brownian sheet with drift -a
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
    time, in the order of the chunk's stream.  Each block is contracted to
    row_s' Z and a' Z, and those at once with row_t and b, so a chunk holds
    two block-sized buffers and its W_TT and xi.  A matrix-vector product
    rounds a row by where it falls in the product, so the block partition
    (``_row_blocks``) is part of the results' bits.
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
    Ls = factor_covariance(alpha, line)
    Lt = factor_covariance(beta, line)
    avec = _solve_lower(Ls, line.points[1:])
    bvec = _solve_lower(Lt, line.points[1:])
    grid_norm_sq = float(avec @ avec) * float(bvec @ bvec)
    quad_norm_sq = _norm_or_inf(rkhs_norm_sq_separable, alpha, beta, T)
    coarse_grid = build_grid2d(n // 2, n // 2, T)
    coarse = _norm_or_inf(kinv_norm_sq_discrete, alpha, beta, coarse_grid)
    fine = _norm_or_inf(kinv_norm_sq_discrete, alpha, beta, grid)
    # a coarse norm that underflows to 0 leaves no relative change to read:
    # nan fails the metric and is written as null
    refine_change = abs(fine - coarse) / coarse if coarse > 0 else math.nan

    row_s, row_t = Ls[-1, :], Lt[-1, :]
    # 2 eps^2 underflows to 0 below eps ~ 1e-154; the log of the predicted
    # mean is then infinite, not an exception
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_mean_quad = ((np.float64(T) ** (2 * alpha + 2 * beta) - quad_norm_sq)
                         / np.float64(2.0 * eps * eps))

    rows = _NOISE_BLOCK_VALUES // (n * n)

    def work(idx: int, count: int):
        blocks = _row_blocks(count, rows)
        w_s, xi_s = np.empty((2, blocks[0][1], n))  # the first block is the largest
        w_tt, xi = np.empty(count), np.empty(count)
        for r0, z in _noise_blocks(settings.seed, idx, n, blocks):
            k = len(z)
            np.matmul(row_s, z, out=w_s[:k])
            np.matmul(avec, z, out=xi_s[:k])
            np.matmul(w_s[:k], row_t, out=w_tt[r0:r0 + k])
            np.matmul(xi_s[:k], bvec, out=xi[r0:r0 + k])
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
    mean_grid = combine_moments([p_[0] for p_ in parts])
    mean_quad = combine_moments([p_[1] for p_ in parts])
    mean_shift = combine_moments([p_[2] for p_ in parts])
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

def cmd_operator_check(settings: RunSettings) -> ExperimentReport:
    """Battery of fractional-operator identities at one Hurst exponent.

    Covers the isometry normalisation of the adjoint-kernel map, the
    derivative-after-integral round trip, the slope of the gap integral,
    and agreement of the two inverse-operator regimes near 1/2.
    """
    t0 = time.perf_counter()
    alpha, T = settings.alpha, settings.T
    metrics = []

    # relative, so that the gate reads the same at every T; a target
    # t^{2 alpha} that underflows to 0, or a norm and target that both
    # overflow, make the error non-finite, and np.max keeps a nan where a
    # Python max() could drop it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norm_err = float(np.max([
            abs(np.float64(_norm_or_inf(kstar_indicator_norm_sq, alpha, t, T))
                / np.float64(t) ** (2.0 * alpha) - 1.0)
            for t in (0.5 * T, T)
        ]))
    metrics.append(_below("indicator_norm_identity", norm_err, "1e-4", "relative"))

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
    return _report("operator-check", settings, t0, metrics, tables)


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
    """Line paths sampled in row blocks, their Gram matrices summed.

    A chunk samples its paths one cache-sized row block at a time
    (``_CHAOS_BLOCK_VALUES``, ``_path_blocks``) and adds each block's Gram
    matrices of values and of squared values to its two sums, so it holds
    no chunk-sized array.  The sums' last bits depend on the block size.
    """
    t0 = time.perf_counter()
    from scipy.special import ndtr, stdtrit

    grid = build_grid(settings.grid_n, settings.T)
    L = factor_covariance(settings.alpha, grid)

    def work(idx: int, count: int):
        cross, sq = np.zeros((2, len(L) + 1, len(L) + 1))
        first = None
        for r0, values, _ in _path_blocks(L, settings.seed, idx, count,
                                          _CHAOS_BLOCK_VALUES):
            if idx == 0 and r0 == 0:
                first = values[0].copy()
            cross += values.T @ values
            # (B_s B_u)^2 = B_s^2 B_u^2, so the product-estimator variance
            # needs only the Gram matrix of the squares, taken in place
            np.square(values, out=values)
            sq += values.T @ values
        return count, cross, sq, first

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
    # a pair with no spread scores 0 only where it matches exactly (the
    # t = 0 pairs); a gap hidden by an underflowed spread reads inf
    z[(se == 0.0) & (cross == exact)] = 0.0
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

    A chunk draws its noise into one reused buffer, a block of replicas at
    a time, in the order of the chunk's stream; the sampler maps each block
    into one reused buffer of sheets.  A block's noise, its products L_s Z
    and its sheets take ``_SHEET_BLOCK_VALUES`` values together, so the
    three stay in a per-core L2 cache.  The chunk keeps only each
    replica's far corner and two rectangle increments (and the first
    sheet).  Each replica's sheet is its own pair of matrix products, so no
    bit depends on the block size.
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
    Ls = factor_covariance(alpha, line)
    Lt = factor_covariance(beta, line)
    half_s, half_t = grid.n_s // 2, grid.n_t // 2
    rows = _SHEET_BLOCK_VALUES // (2 * n * n + (n + 1) ** 2)

    def work(idx: int, count: int):
        corner, inc_a, inc_b = np.empty(count), np.empty(count), np.empty(count)
        blocks = _row_blocks(count, rows)
        values = np.empty((blocks[0][1], n + 1, n + 1))  # the first is the largest
        first = None
        for r0, z in _noise_blocks(settings.seed, idx, n, blocks):
            v = sample_sheet_batch(Ls, Lt, z, values[:len(z)])
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
    var_corner = combine_moments([p_[0] for p_ in parts])
    decorr = combine_moments([p_[1] for p_ in parts])
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
