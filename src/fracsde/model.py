"""Core model objects: grids, RNG streams, Monte Carlo results.

Everything downstream (samplers, operators, chaos solvers, experiments) builds on
the types defined here.  The grid builders validate at construction time, so a
bad horizon or step count fails loudly and early; the grid is the only carrier
of the horizon T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
# numpy loads np.random on first use; load it here, not in the first chunk map
import numpy.random  # noqa: F401

__all__ = [
    "NonPositiveHorizon",
    "InvalidGrid",
    "TimeGrid",
    "Grid2D",
    "RngStreamSpec",
    "MonteCarloResult",
    "chunk_moments",
    "combine_moments",
    "build_grid",
    "build_grid2d",
]


class NonPositiveHorizon(ValueError):
    """Time horizon must be strictly positive."""


class InvalidGrid(ValueError):
    """Grid resolution must be a positive integer step count."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T.

    ``points`` has n+1 entries; endpoints are exact (np.linspace guarantees
    t_0 == 0.0 and t_n == T bitwise).
    """

    n_steps: int
    T: float
    points: np.ndarray = field(repr=False)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps


def build_grid(n_steps: int, T: float) -> TimeGrid:
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise InvalidGrid(f"n_steps={n_steps} must be a positive integer")
    if not (math.isfinite(T) and T > 0.0):
        raise NonPositiveHorizon(f"T={T} must be > 0")
    return TimeGrid(int(n_steps), float(T), np.linspace(0.0, float(T), int(n_steps) + 1))


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Uniform product grid on [0, T]^2 with n_s x n_t cells."""

    n_s: int
    n_t: int
    T: float
    s: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    @property
    def ds(self) -> float:
        return self.T / self.n_s

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def cell_area(self) -> float:
        return self.ds * self.dt

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        sc = (self.s[:-1] + self.s[1:]) / 2.0
        tc = (self.t[:-1] + self.t[1:]) / 2.0
        return sc, tc


def build_grid2d(n_s: int, n_t: int, T: float) -> Grid2D:
    for n in (n_s, n_t):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidGrid(f"cell count {n} must be a positive integer")
    if not (math.isfinite(T) and T > 0.0):
        raise NonPositiveHorizon(f"T={T} must be > 0")
    return Grid2D(
        int(n_s),
        int(n_t),
        float(T),
        np.linspace(0.0, float(T), int(n_s) + 1),
        np.linspace(0.0, float(T), int(n_t) + 1),
    )


@dataclass(frozen=True)
class RngStreamSpec:
    """Deterministic per-replica random stream.

    Streams are keyed by (master_seed, replica_index) so replica k draws the
    same numbers no matter how many other replicas ran before it, serial or
    parallel.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.replica_index < 0:
            raise ValueError("seed and replica index must be non-negative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.replica_index])


@dataclass(frozen=True)
class MonteCarloResult:
    """Point estimate and its standard error."""

    estimate: float
    std_error: float


def chunk_moments(samples: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk's samples."""
    flat = np.asarray(samples, dtype=float).reshape(-1)
    mean = flat.mean()
    return flat.size, float(mean), float(np.square(flat - mean).sum())


def combine_moments(partials: Sequence[tuple]) -> MonteCarloResult:
    """Fold per-chunk (count, mean, M2) triples into one estimate.

    The pairwise update of Chan, Golub & LeVeque (1979) runs in chunk
    order, so the result does not depend on the thread count, and the
    spread never passes through the cancelling ``sum x^2 - n mean^2``.
    """
    n, mean, m2 = partials[0]
    for nb, mean_b, m2_b in partials[1:]:
        total = n + nb
        delta = mean_b - mean
        mean += delta * nb / total
        m2 += m2_b + delta * delta * n * nb / total
        n = total
    se = math.sqrt(m2 / (n - 1) / n)
    return MonteCarloResult(mean, se)
