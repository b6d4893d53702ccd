"""The viral-search state machine.

A population of scouts random-walks the search box. Whenever a scout
evaluates at least as well as the incumbent (minus a tolerance), it
triggers a localized differential-evolution burst inside a small cube
around its position; the burst's best result updates the incumbent.
An optional fixed grid of centers tracks how evenly the box is being
visited and periodically teleports scouts from over-visited to
under-visited regions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    ConfigurationError,
    Objective,
    Point,
    Population,
    RngStream,
    clamp_to_bounds,
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
)
from .local_search import DEConfig, de_optimize


def _boundary_policy(cfg: "VSConfig"):
    return reflect_into_bounds if cfg.walk_boundary == "reflect" else clamp_to_bounds

_MAX_CENTERS = 1_000_000


@dataclass(frozen=True)
class VSConfig:
    """All run parameters.

    `n_generations` / `n_individuals` govern the global exploration;
    `n_viral_generations` / `n_viral_individuals` govern each burst.
    `epidemic_radius_fraction` is the per-axis half-width of the burst
    cube as a fraction of the axis range, and `walk_step_fraction`
    scales the Gaussian random-walk step the same way.
    """

    n_generations: int
    n_viral_generations: int
    n_individuals: int
    n_viral_individuals: int
    centers_per_axis: int = 0
    epidemic_radius_fraction: float = 0.05
    walk_step_fraction: float = 0.1
    rebalance_every: int = 10
    rebalance_fraction: float = 0.25
    trigger_tolerance: float = 1e-12
    stagnation_window: Optional[int] = None
    seed: int = 0
    time_varying: bool = False
    init: str = "stratified"
    walk_boundary: str = "reflect"

    def __post_init__(self):
        if self.n_generations < 0:
            raise ConfigurationError("n_generations must be >= 0")
        for name in ("n_viral_generations", "n_individuals", "n_viral_individuals"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.centers_per_axis < 0:
            raise ConfigurationError("centers_per_axis must be >= 0")
        for name in ("epidemic_radius_fraction", "walk_step_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {v}")
        if self.rebalance_every < 1:
            raise ConfigurationError("rebalance_every must be >= 1")
        if not 0.0 <= self.rebalance_fraction <= 1.0:
            raise ConfigurationError("rebalance_fraction must be in [0, 1]")
        if self.trigger_tolerance < 0.0:
            raise ConfigurationError("trigger_tolerance must be >= 0")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ConfigurationError("stagnation_window must be >= 1 or None")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.init not in ("stratified", "random"):
            raise ConfigurationError(
                f"init must be 'stratified' or 'random', got {self.init!r}"
            )
        if self.walk_boundary not in ("reflect", "clamp"):
            raise ConfigurationError(
                f"walk_boundary must be 'reflect' or 'clamp', got {self.walk_boundary!r}"
            )


@dataclass
class TraceRow:
    """One generation's snapshot of the incumbent."""

    generation: int
    fobj_global: float
    best_point: Optional[Point]
    epidemics_so_far: int
    elapsed_ms: float
    worker: int = 0


@dataclass
class EngineState:
    """Mutable run state; single-owner, never shared between engines."""

    population: Population
    generation: int = 0
    fobj_global: float = float("inf")
    best_individual_global: Optional[Point] = None
    centers: Optional[np.ndarray] = None
    visit_counts: Optional[np.ndarray] = None
    epidemic_count: int = 0
    trace: list = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)

    def has_centers(self) -> bool:
        return self.centers is not None and len(self.centers) > 0


@dataclass
class RunResult:
    best_point: Optional[Point]
    best_value: float
    trace: list
    epidemic_count: int
    wall_time_ms: float
    config_echo: VSConfig


def make_centers(b: Bounds, centers_per_axis: int) -> np.ndarray:
    """Full Cartesian grid of reference centers.

    Each axis is cut into `centers_per_axis` equal slices and centers sit
    at slice midpoints, so the grid has centers_per_axis ** dim points.
    """
    if centers_per_axis < 1:
        raise ConfigurationError("centers_per_axis must be >= 1 to build centers")
    total = centers_per_axis**b.dim
    if total > _MAX_CENTERS:
        raise ConfigurationError(
            f"{centers_per_axis} centers per axis over {b.dim} axes would "
            f"create {total} centers; use fewer centers per axis or split "
            f"the box across parallel workers"
        )
    marks = [
        b.lb[j] + (np.arange(centers_per_axis) + 0.5) * (b.span[j] / centers_per_axis)
        for j in range(b.dim)
    ]
    grid = np.meshgrid(*marks, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def nearest_center(p: Point, centers: np.ndarray) -> int:
    """Index of the Euclidean-nearest center; ties go to the lowest index."""
    if len(centers) == 0:
        raise ValueError("centers list is empty")
    d2 = ((centers - np.asarray(p, dtype=float)) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def _center_indices(points: np.ndarray, b: Bounds, k: int) -> np.ndarray:
    """Row index in `make_centers(b, k)` of each point's nearest center.

    The centers are the cell midpoints of a regular grid, so the nearest
    one is found axis by axis: cell ceil((x - lb) / w) - 1 with width
    w = span / k, clipped to [0, k - 1], then flattened in the grid's
    C order. A point on a cell edge goes to the lower cell, which is
    `nearest_center`'s lowest-index tie. Costs O(n * dim) time and memory.
    """
    cells = np.ceil((points - b.lb) / (b.span / k)).astype(np.intp) - 1
    np.clip(cells, 0, k - 1, out=cells)
    return np.ravel_multi_index(tuple(cells.T), (k,) * b.dim)


def init_state(b: Bounds, cfg: VSConfig, rng: RngStream) -> EngineState:
    """Fresh engine state: initialized population, centers, empty trace."""
    if cfg.init == "stratified":
        pop = stratified_init(b, cfg.n_individuals, rng)
    else:
        pop = random_init(b, cfg.n_individuals, rng)
    if cfg.centers_per_axis >= 1:
        centers = make_centers(b, cfg.centers_per_axis)
    else:
        centers = np.empty((0, b.dim))
    return EngineState(
        population=pop,
        centers=centers,
        visit_counts=np.zeros(len(centers), dtype=np.int64),
    )


def move_random(
    state: EngineState, b: Bounds, cfg: VSConfig, rng: RngStream
) -> EngineState:
    """Perturb every scout with an independent Gaussian step per axis,
    folding at the walls per the configured boundary policy, and tally
    center visits when centers are on.

    The tally finds each scout's center by grid arithmetic, so it costs
    O(n * dim + C) per call for C centers."""
    n, d = state.population.shape
    steps = cfg.walk_step_fraction * b.span * rng.standard_normal((n, d))
    state.population = _boundary_policy(cfg)(state.population + steps, b)
    if state.has_centers():
        idx = _center_indices(state.population, b, cfg.centers_per_axis)
        state.visit_counts += np.bincount(idx, minlength=len(state.visit_counts))
    return state


def rebalance(
    state: EngineState, b: Bounds, cfg: VSConfig, rng: RngStream
) -> EngineState:
    """Teleport scouts from the most-visited centers toward the least-visited.

    Moves floor(rebalance_fraction * n) scouts, chosen from the busiest
    centers first, scattering them (per-axis Gaussian, stdev = half the
    center spacing) around the quietest centers, quietest first. Visit
    counts are history and stay untouched. Each scout's center comes from
    the same grid arithmetic as `move_random`'s tally; ranking the C
    centers costs O(C log C).
    """
    n = len(state.population)
    k = int(cfg.rebalance_fraction * n)
    if k == 0 or not state.has_centers():
        return state
    counts = state.visit_counts
    member_center = _center_indices(state.population, b, cfg.centers_per_axis)
    # busiest members first, member index breaking ties
    member_order = np.lexsort((np.arange(n), -counts[member_center]))
    movers = member_order[:k]
    # destinations cycle over the quietest half of the centers (at least
    # one), quietest first, center index breaking ties
    dest_order = np.lexsort((np.arange(len(state.centers)), counts))
    pool = dest_order[: max(1, len(state.centers) // 2)]
    dest = pool[np.arange(k) % len(pool)]
    spacing = b.span / cfg.centers_per_axis
    scatter = state.centers[dest] + rng.normal(
        0.0, spacing / 2.0, size=(k, b.dim)
    )
    state.population[movers] = _boundary_policy(cfg)(scatter, b)
    return state


def trigger_epidemic(
    trigger: Point,
    b: Bounds,
    cfg: VSConfig,
    de_cfg: DEConfig,
    objective: Objective,
    t: int,
    rng: RngStream,
) -> tuple[Point, float]:
    """Run a localized DE burst in a cube around the triggering scout.

    The cube spans trigger +/- epidemic_radius_fraction * axis range on
    each axis, clipped to the global box, and the trigger itself seeds
    the burst population so the result can never be worse than the
    trigger's own value.
    """
    trigger = np.asarray(trigger, dtype=float)
    half = cfg.epidemic_radius_fraction * b.span
    lo = np.maximum(b.lb, trigger - half)
    hi = np.minimum(b.ub, trigger + half)
    if not (lo < hi).all():
        raise ValueError(
            f"burst region collapsed around {trigger.tolist()}; is the "
            f"trigger inside the bounds?"
        )
    region = Bounds(lo, hi)
    burst_cfg = replace(
        de_cfg,
        pop_size=cfg.n_viral_individuals,
        generations=cfg.n_viral_generations,
    )
    return de_optimize(objective, region, burst_cfg, seed_point=trigger, t=t, rng=rng)


def step(
    state: EngineState,
    objective: Objective,
    b: Bounds,
    cfg: VSConfig,
    de_cfg: DEConfig,
    rng: RngStream,
) -> EngineState:
    """One generation: evaluate scouts, fire bursts on improvement, update
    the incumbent, move everyone, rebalance on cadence, append a trace row."""
    t = state.generation
    if cfg.time_varying and state.best_individual_global is not None:
        # the landscape moved under the incumbent; refresh its value so
        # trigger comparisons stay meaningful
        state.fobj_global = objective(t, state.best_individual_global)

    values = objective.evaluate_many(t, state.population)

    # the incumbent only decreases during the sweep, so scouts that fail
    # against the sweep-start value can be skipped outright
    for i in np.flatnonzero(values <= state.fobj_global - cfg.trigger_tolerance):
        if values[i] > state.fobj_global - cfg.trigger_tolerance:
            continue
        best_point, best_value = trigger_epidemic(
            state.population[i].copy(), b, cfg, de_cfg, objective, t, rng
        )
        state.epidemic_count += 1
        if best_value <= state.fobj_global:
            state.fobj_global = best_value
            state.best_individual_global = best_point

    move_random(state, b, cfg, rng)
    if (
        state.has_centers()
        and cfg.rebalance_fraction > 0
        and t > 0
        and t % cfg.rebalance_every == 0
    ):
        rebalance(state, b, cfg, rng)

    best = state.best_individual_global
    state.trace.append(
        TraceRow(
            generation=t,
            fobj_global=state.fobj_global,
            best_point=None if best is None else best.copy(),
            epidemics_so_far=state.epidemic_count,
            elapsed_ms=(time.perf_counter() - state.started_at) * 1e3,
        )
    )
    state.generation = t + 1
    return state


def run(
    objective: Objective,
    b: Bounds,
    cfg: VSConfig,
    de_cfg: Optional[DEConfig] = None,
) -> RunResult:
    """Full optimization: initialize, iterate `step` for n_generations (or
    until the incumbent stagnates for `stagnation_window` generations),
    and package the result."""
    if objective.arity != b.dim:
        raise ConfigurationError(
            f"objective arity {objective.arity} does not match bounds "
            f"dimension {b.dim}"
        )
    de_cfg = de_cfg if de_cfg is not None else DEConfig()
    # fail fast on an unusable burst configuration
    replace(
        de_cfg,
        pop_size=cfg.n_viral_individuals,
        generations=cfg.n_viral_generations,
    )

    t0 = time.perf_counter()
    rng = make_rng(cfg.seed)
    state = init_state(b, cfg, rng)
    last_improvement = 0
    while state.generation < cfg.n_generations:
        previous = state.fobj_global
        step(state, objective, b, cfg, de_cfg, rng)
        t = state.generation - 1
        if previous - state.fobj_global > cfg.trigger_tolerance:
            last_improvement = t
        if (
            cfg.stagnation_window is not None
            and t - last_improvement >= cfg.stagnation_window
        ):
            break

    best = state.best_individual_global
    return RunResult(
        best_point=None if best is None else best.copy(),
        best_value=state.fobj_global,
        trace=state.trace,
        epidemic_count=state.epidemic_count,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        config_echo=cfg,
    )
