"""Differential evolution (rand/1/bin) used as the burst-phase local optimizer.

Synchronous updating: every trial vector of a generation is built from the
same population snapshot, evaluated as a batch, and accepted greedily. This
keeps results reproducible and lets vectorized objectives evaluate whole
generations at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    Bounds,
    ConfigurationError,
    Objective,
    Point,
    RngStream,
    check_counts,
    random_init,
)


# DE/rand/1/bin's differential weight F and crossover rate CR (Storn &
# Price 1997), the same for every burst
_F = 0.8
_CR = 0.9

_BLOCK = 16  # generations whose randomness one draw serves
_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max


def check_draw_range(pop_size: int, d: int) -> None:
    """Raise unless a burst of n = `pop_size` members in d axes can draw
    its partners and forced axes as int64 integers on
    [0, (n-1)(n-2)(n-3) * d)."""
    check_counts(4, pop_size=pop_size)  # three distinct partners plus the target
    choices = (pop_size - 1) * (pop_size - 2) * (pop_size - 3) * d
    if choices > _INT64_MAX:
        raise ConfigurationError(
            f"a burst of {pop_size} members in {d} axes has (n-1)(n-2)(n-3)*d = "
            f"{choices} partner and axis choices, more than int64 can draw; "
            f"use a smaller burst population"
        )


def _draw_block(
    rng: RngStream, n: int, d: int, cr: float, g: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partners and crossover masks for g generations of n members in d axes.

    Returns `partners` of shape (g, n, 3) and `cross` of shape (g, n, d).
    In each generation, row i of `partners` is uniform over the ordered
    triples of distinct indices in [0, n) other than i, and row i of
    `cross` is True on each axis with probability `cr` and always on one
    forced axis, uniform and independent of the partners. `partners` is
    intp, a view of a C-ordered (g, 3, n) array, so `partners[k].T`
    holds generation k's r1, r2 and r3 rows contiguously.

    One draw on [0, (n-1)(n-2)(n-3) * d) per member and generation is
    split into the forced axis, r3, r2 and r1 (`divmod` by d, n - 3 and
    n - 2, as a floor division and a multiply-subtract), so r1 is
    uniform on [0, n - 1), r2 on [0, n - 2) and r3 on [0, n - 3), all
    independent. Each is then stepped past the indices already taken in
    its row ({i}, then {i, r1}, then {i, r1, r2}), visited in ascending
    order: each `r += r >= s` moves the draw over one taken index, which
    maps its range one-to-one onto the indices still free. The draw and
    the decoding run in int32 when the range fits in it: numpy draws a
    range of at most 2**32 values by the same 32-bit Lemire method in
    int32 as in int64, so the integers and the generator's state come out
    the same. Two RNG calls per block; O(g * n * d) time and memory.
    """
    high = (n - 1) * (n - 2) * (n - 3) * d
    dtype = np.int32 if high <= _INT32_MAX else np.int64
    i = np.arange(n, dtype=dtype)
    partners = np.empty((3, g, n), dtype=dtype)
    r1, r2, r3 = partners  # views: the steps below write into `partners`
    draws = rng.integers(0, high, size=(g, n), dtype=dtype)
    cross = rng.random((g, n, d)) < cr
    # floor division by a scalar is cheaper than np.divmod; the remainder
    # x - (x // k) * k is exact, as x >= 0
    q = draws // d
    axis = np.subtract(draws, np.multiply(q, d, out=r1), out=draws)
    # one forced axis, set through its flat index in the C-ordered `cross`,
    # an intp index as fancy indexing takes it
    cross.reshape(-1)[axis + np.arange(0, g * n * d, d, dtype=np.intp).reshape(g, n)] = True
    np.floor_divide(q, n - 3, out=draws)
    np.subtract(q, np.multiply(draws, n - 3, out=r3), out=r3)
    np.floor_divide(draws, n - 2, out=r1)
    np.subtract(draws, np.multiply(r1, n - 2, out=r2), out=r2)

    # in place, reusing the spent buffers: a block keeps a few (g, n) arrays
    r1 += r1 >= i
    lo, hi = np.minimum(i, r1, out=draws), np.maximum(i, r1, out=q)
    r2 += r2 >= lo
    r2 += r2 >= hi
    # past {lo, hi, r2} in ascending order (min, median, max); r2 differs
    # from both
    r3 += r3 >= np.minimum(lo, r2)
    r3 += r3 >= np.minimum(np.maximum(lo, r2), hi)
    r3 += r3 >= np.maximum(hi, r2)
    # one conversion per block, to the index type `take` would convert to
    # on every call
    rows = partners.transpose(1, 0, 2).astype(np.intp, order="C")
    return rows.transpose(0, 2, 1), cross


def de_optimize(
    objective: Objective,
    region: Bounds,
    pop_size: int,
    generations: int,
    seed_point: Optional[Point] = None,
    t: int = 0,
    *,
    rng: RngStream,
    history: Optional[list] = None,
) -> tuple[Point, float]:
    """Minimize `objective` over `region` at frozen generation `t` with
    `pop_size` members for `generations` generations.

    The population starts uniform in the region; when `seed_point` is
    given it replaces member 0, and greedy selection guarantees the
    returned value never exceeds the seed's value. A seed point of the
    wrong shape or outside the region (NaN included) raises `ValueError`
    before any evaluation. Trials are clamped to the region, tiled once
    per call to one limit per coordinate. When `history` is a list, the
    per-generation best value is appended to it. A call evaluates
    pop · (G + 1) rows: the starting population, then one batch per
    generation. Partners and crossover masks are drawn once per block of
    `_BLOCK` generations, so a generation makes no RNG call.

    Returns the best point found and its value.
    """
    n, d = pop_size, region.dim
    check_draw_range(pop_size, d)
    check_counts(1, generations=generations)

    pop = random_init(region, n, rng)
    if seed_point is not None:
        seed_point = np.asarray(seed_point, dtype=float)
        if seed_point.shape != (d,):
            raise ValueError(
                f"seed point has shape {seed_point.shape}, region has {d} axes"
            )
        if not region.contains(seed_point):
            raise ValueError(
                f"seed point {seed_point.tolist()} lies outside the region "
                f"[{region.lb.tolist()}, {region.ub.tolist()}]"
            )
        pop[0] = seed_point
    values = objective.evaluate_many(t, pop)
    # the burst's workspace: the limits tiled to the population's shape, the
    # rows r1, r2 and r3 of every member, and the accept mask with its row view
    lb, ub = region.lb[None].repeat(n, 0), region.ub[None].repeat(n, 0)
    gather = np.empty((3, n, d))
    r1, r2, r3 = gather
    accept = np.empty(n, dtype=bool)
    accept_rows = accept[:, None]

    for start in range(0, generations, _BLOCK):
        partners, cross = _draw_block(rng, n, d, _CR, min(_BLOCK, generations - start))
        keep = np.logical_not(cross, out=cross)
        for rows, keep_target in zip(partners.transpose(0, 2, 1), keep):
            # every index is valid, so "clip" clips nothing, and lets `take`
            # write straight into the workspace
            pop.take(rows, 0, out=gather, mode="clip")
            # pop[r1] + F * (pop[r2] - pop[r3]), bit for bit: IEEE * and +
            # commute exactly
            r2 -= r3
            r2 *= _F
            r2 += r1
            # the crossover: the target's own coordinates where the mask is off
            np.copyto(r2, pop, where=keep_target)
            # np.clip's values, into a fresh array for the objective
            trial = np.maximum(r2, lb)
            np.minimum(trial, ub, out=trial)

            trial_values = objective.evaluate_many(t, trial)
            np.less_equal(trial_values, values, out=accept)
            np.copyto(pop, trial, where=accept_rows)
            np.copyto(values, trial_values, where=accept)
            if history is not None:
                history.append(float(values.min()))

    best = int(np.argmin(values))
    return pop[best].copy(), float(values[best])
