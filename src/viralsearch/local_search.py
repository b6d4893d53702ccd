"""Differential evolution (rand/1/bin) used as the burst-phase local optimizer.

Synchronous updating: every trial vector of a generation is built from the
same population snapshot, evaluated as a batch, and accepted greedily. This
keeps results reproducible and lets vectorized objectives evaluate whole
generations at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    ConfigurationError,
    Objective,
    Point,
    RngStream,
)


@dataclass(frozen=True)
class DEConfig:
    """Differential evolution parameters.

    The engine overrides `pop_size` and `generations` with its burst
    population and burst duration; `differential_weight` and
    `crossover_rate` are used as given.
    """

    pop_size: int = 20
    generations: int = 50
    differential_weight: float = 0.8
    crossover_rate: float = 0.9

    def __post_init__(self):
        if self.pop_size < 4:
            raise ConfigurationError(
                f"pop_size must be >= 4 (three distinct partners plus the "
                f"target), got {self.pop_size}"
            )
        if self.generations < 1:
            raise ConfigurationError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 < self.differential_weight <= 2.0:
            raise ConfigurationError(
                f"differential_weight must be in (0, 2], got {self.differential_weight}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError(
                f"crossover_rate must be in [0, 1], got {self.crossover_rate}"
            )


def _partner_indices(rng: RngStream, n: int) -> np.ndarray:
    """For each target i, three distinct indices r1, r2, r3 != i, as (n, 3).

    Row i is uniform over the ordered triples of distinct indices in
    [0, n) other than i. Column k is drawn uniform on [0, n - 1 - k) and
    then stepped past the k + 1 indices already taken in its row ({i},
    then {i, r1}, then {i, r1, r2}), visited in ascending order: each
    `r += r >= s` moves the draw over one taken index, which maps
    [0, n - 1 - k) one-to-one onto the indices still free. One draw of
    3n integers per call, so O(n) time and memory.
    """
    partners = rng.integers(0, (n - 1, n - 2, n - 3), size=(n, 3))
    r1, r2, r3 = partners.T  # views: the steps below write into `partners`
    i = np.arange(n)
    r1 += r1 >= i
    lo, hi = np.minimum(i, r1), np.maximum(i, r1)
    r2 += r2 >= lo
    r2 += r2 >= hi
    # {lo, hi, r2} in ascending order; r2 differs from both
    low, high = np.minimum(lo, r2), np.maximum(hi, r2)
    for s in (low, lo + hi + r2 - low - high, high):
        r3 += r3 >= s
    return partners


def de_optimize(
    objective: Objective,
    region: Bounds,
    cfg: DEConfig,
    seed_point: Optional[Point] = None,
    t: int = 0,
    rng: RngStream = None,
    history: Optional[list] = None,
) -> tuple[Point, float]:
    """Minimize `objective` over `region` at frozen generation `t`.

    The population starts uniform in the region; when `seed_point` is
    given it replaces member 0, and greedy selection guarantees the
    returned value never exceeds the seed's value. Trials are clamped to
    the region. When `history` is a list, the per-generation best value
    is appended to it.

    Returns the best point found and its value.
    """
    if rng is None:
        raise ValueError("de_optimize requires an explicit rng")
    n, d = cfg.pop_size, region.dim
    f, cr = cfg.differential_weight, cfg.crossover_rate

    pop = rng.uniform(region.lb, region.ub, size=(n, d))
    if seed_point is not None:
        seed_point = np.asarray(seed_point, dtype=float)
        if seed_point.shape != (d,):
            raise ValueError(
                f"seed point has shape {seed_point.shape}, region has {d} axes"
            )
        pop[0] = seed_point
    values = objective.evaluate_many(t, pop)

    for _ in range(cfg.generations):
        partners = _partner_indices(rng, n)
        mutant = pop[partners[:, 0]] + f * (pop[partners[:, 1]] - pop[partners[:, 2]])
        cross = rng.random((n, d)) < cr
        cross[np.arange(n), rng.integers(0, d, size=n)] = True  # one forced coordinate
        trial = np.where(cross, mutant, pop)
        np.clip(trial, region.lb, region.ub, out=trial)

        trial_values = objective.evaluate_many(t, trial)
        accept = trial_values <= values
        pop[accept] = trial[accept]
        values[accept] = trial_values[accept]
        if history is not None:
            history.append(float(values.min()))

    best = int(np.argmin(values))
    return pop[best].copy(), float(values[best])
