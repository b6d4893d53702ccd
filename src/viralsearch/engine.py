"""The viral-search state machine.

A population of scouts random-walks the search box. Whenever a scout
evaluates finite and at least as well as the incumbent (minus a
tolerance), it triggers a localized differential-evolution burst inside
a small cube around its position; the burst's best result updates the
incumbent. An optional fixed grid of centers tracks how evenly the box
is being visited and periodically teleports scouts from over-visited to
under-visited regions.

Each run draws its walk's normal steps in line, in `move_random`, from
its own generator, `walk_rng`: an SFC64 that `init_state` seeds from a
child of the run's seed sequence. It is drawn as (dim, n), whose C order
is the population's axis-major order. The initialization, the bursts and
the rebalance draw from the run's PCG64 generator. So with centers off
the scouts' path does not depend on the bursts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    ConfigurationError,
    Objective,
    Point,
    Population,
    RngStream,
    check_counts,
    make_rng,
    reflect_into_bounds,
    stratified_init,
)
from .local_search import DEConfig, check_draw_range, de_optimize

_MAX_CENTERS = 1_000_000
_TRIGGER_TOLERANCE = 1e-12
_REBALANCE_EVERY = 10
_REBALANCE_FRACTION = 0.25


@dataclass(frozen=True)
class VSConfig:
    """All run parameters.

    `n_generations` / `n_individuals` govern the global exploration;
    `n_viral_generations` / `n_viral_individuals` govern each burst.
    `epidemic_radius_fraction` is the per-axis half-width of the burst
    cube as a fraction of the axis range, and `walk_step_fraction`
    scales the Gaussian random-walk step the same way. The rest is fixed:
    a scout starts a burst when it beats the incumbent by
    `_TRIGGER_TOLERANCE`, the scouts start on a Latin hypercube
    (`stratified_init`), and with centers on a rebalance every
    `_REBALANCE_EVERY` generations moves `_REBALANCE_FRACTION` of them.
    """

    n_generations: int
    n_viral_generations: int
    n_individuals: int
    n_viral_individuals: int
    centers_per_axis: int = 0
    epidemic_radius_fraction: float = 0.05
    walk_step_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_counts(0, n_generations=self.n_generations,
                     centers_per_axis=self.centers_per_axis, seed=self.seed)
        check_counts(1, n_viral_generations=self.n_viral_generations,
                     n_individuals=self.n_individuals)
        # a burst member needs three distinct partners
        check_counts(4, n_viral_individuals=self.n_viral_individuals)
        for name in ("epidemic_radius_fraction", "walk_step_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {v}")


@dataclass
class TraceRow:
    """One generation's snapshot of the incumbent and the rows evaluated so
    far. `best_point` is the incumbent's read-only array, shared by every
    row it was the incumbent of and by the run's result."""

    generation: int
    fobj_global: float
    best_point: Optional[Point]
    epidemics_so_far: int
    elapsed_ms: float
    evaluations: int
    worker: int = 0


@dataclass
class EngineState:
    """Mutable run state; single-owner, never shared between engines.

    `population` is Fortran-ordered (axis-major): each axis is one
    contiguous column, so per-axis arithmetic runs along all n scouts.
    `walk_rng` is the generator the walk alone draws its normal steps
    from, one (dim, n) draw per move; `init_state` makes it an SFC64, and
    a state built by hand may pass any `Generator`. `walk_box` caches
    `_walk_box`'s arrays with the arguments they were built for.
    `evaluations` counts the objective rows each phase evaluated (scouts,
    bursts, refreshes)."""

    population: Population
    walk_rng: RngStream
    generation: int = 0
    fobj_global: float = float("inf")
    best_individual_global: Optional[Point] = None
    visit_counts: Optional[np.ndarray] = None
    epidemic_count: int = 0
    trace: list = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    walk_box: Optional[tuple] = None
    evaluations: dict = field(default_factory=lambda: {"scout": 0, "burst": 0, "refresh": 0})

    def has_centers(self) -> bool:
        return self.visit_counts is not None and len(self.visit_counts) > 0


@dataclass
class RunResult:
    best_point: Optional[Point]
    best_value: float
    trace: list
    epidemic_count: int
    wall_time_ms: float
    # objective rows evaluated per phase: "scout", "burst" and "refresh"
    evaluations: dict


def _center_count(b: Bounds, centers_per_axis: int) -> int:
    """Size of the center grid, capped at `_MAX_CENTERS`."""
    total = centers_per_axis**b.dim
    if total > _MAX_CENTERS:
        raise ConfigurationError(
            f"{centers_per_axis} centers per axis over {b.dim} axes would "
            f"create {total} centers; use fewer centers per axis or split "
            f"the box across parallel workers"
        )
    return total


def _center_indices(points: np.ndarray, b: Bounds, k: int) -> np.ndarray:
    """Index of each point's Euclidean-nearest center on the grid of `k`
    centers per axis: cells of width w = span / k with their centers at the
    midpoints lb + (j + 0.5) * w, flattened in C order.

    Because the centers are cell midpoints, the nearest one is found axis
    by axis: cell ceil((x - lb) / w) - 1, clipped to [0, k - 1]. A point on
    a cell edge, equidistant from two centers, goes to the lower cell, the
    lowest index. Costs O(n * dim) time and memory.
    """
    cells = np.ceil((points - b.lb) / (b.span / k)).astype(np.intp) - 1
    np.clip(cells, 0, k - 1, out=cells)
    return np.ravel_multi_index(tuple(cells.T), (k,) * b.dim)


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def _trigger_candidates(values: np.ndarray, threshold: float) -> np.ndarray:
    """Ascending indices of the finite `values` at or below `threshold`:
    `np.flatnonzero((values < inf) & (values <= threshold))` for n >= 1
    values, with the masks built only when the minimum qualifies, which
    it rarely does."""
    low = np.minimum.reduce(values)
    if not (low <= threshold and low < np.inf):
        return _NO_ROWS
    return np.flatnonzero((values < np.inf) & (values <= threshold))


def init_state(b: Bounds, cfg: VSConfig, rng: RngStream) -> EngineState:
    """Fresh engine state: a `stratified_init` population drawn from `rng`,
    the walk's generator, an SFC64 on the next child of `rng`'s seed
    sequence (which leaves `rng`'s stream where it was), zero visit counts
    per center (none when centers are off), empty trace. For another start,
    build the `EngineState` by hand."""
    n_centers = _center_count(b, cfg.centers_per_axis) if cfg.centers_per_axis else 0
    pop = np.asfortranarray(stratified_init(b, cfg.n_individuals, rng))
    walk_rng = np.random.Generator(np.random.SFC64(rng.bit_generator.seed_seq.spawn(1)[0]))
    return EngineState(population=pop, walk_rng=walk_rng,
                       visit_counts=np.zeros(n_centers, dtype=np.int64))


def _walk_box(state: EngineState, b: Bounds, step_fraction: float) -> tuple:
    """`b`'s limits repeated per scout in the axis-major order of the
    flattened population, so each fold call is one pass along n * dim
    coordinates with no broadcasting, and the walk's step scale per
    coordinate, `step_fraction * box.span`: the products `step_fraction *
    b.span` broadcast would give. Built on a state's first move and again
    only when the box, the scout count or the step fraction changes, in
    O(n * dim) memory."""
    n = len(state.population)
    cached = state.walk_box
    if cached is None or cached[0] is not b or cached[1] != n or cached[2] != step_fraction:
        box = Bounds(np.repeat(b.lb, n), np.repeat(b.ub, n))
        state.walk_box = cached = (b, n, step_fraction, box, step_fraction * box.span)
    return cached[3], cached[4]


def move_random(state: EngineState, b: Bounds, cfg: VSConfig) -> EngineState:
    """Perturb every scout with an independent Gaussian step per axis,
    reflecting it back across the walls it crossed, and tally center
    visits when centers are on.

    The normal steps are one (dim, n) draw from `state.walk_rng`, so the
    step of scout i on axis j is the draw's [j, i]. The scale, the step
    and the fold are flat passes over the n * dim coordinates against
    `_walk_box`'s per-coordinate limits and scale; the fold is one call of
    `reflect_into_bounds`, looked up as it runs, so a wrapper patched over
    it sees every walk. The tally finds each scout's center by grid
    arithmetic, so it costs O(n * dim + C) per call for C centers."""
    n, dim = shape = state.population.shape
    box, scale = _walk_box(state, b, cfg.walk_step_fraction)
    # the (dim, n) draw's C order is the population's axis-major order, so
    # its flat view lines up with the box's without a copy
    steps = state.walk_rng.standard_normal((dim, n)).ravel()
    steps *= scale
    steps += state.population.ravel(order="F")
    state.population = reflect_into_bounds(steps, box).reshape(shape, order="F")
    if state.has_centers():
        idx = _center_indices(state.population, b, cfg.centers_per_axis)
        state.visit_counts += np.bincount(idx, minlength=len(state.visit_counts))
    return state


def rebalance(
    state: EngineState, b: Bounds, cfg: VSConfig, rng: RngStream
) -> EngineState:
    """Teleport scouts from the most-visited centers toward the least-visited.

    Moves floor(n / 4) of the n scouts (`_REBALANCE_FRACTION`), none when
    n < 4, chosen from the busiest centers first, scattering them
    (per-axis Gaussian, stdev = half the center spacing) around the
    quietest centers, quietest first. Visit counts are history and stay
    untouched. Each scout's center comes from the same grid arithmetic as
    `move_random`'s tally (ties to the lowest center index), and a
    destination center at grid cell c sits at the midpoint lb + (c + 0.5)
    * span / centers_per_axis; ranking the C centers costs O(C log C) time
    and O(C) memory.
    """
    n = len(state.population)
    k = int(_REBALANCE_FRACTION * n)
    if k == 0 or not state.has_centers():
        return state
    counts = state.visit_counts
    member_center = _center_indices(state.population, b, cfg.centers_per_axis)
    # busiest members first, member index breaking ties
    movers = np.argsort(-counts[member_center], kind="stable")[:k]
    # destinations cycle over the quietest half of the centers (at least
    # one), quietest first, center index breaking ties
    pool = np.argsort(counts, kind="stable")[: max(1, len(counts) // 2)]
    dest = pool[np.arange(k) % len(pool)]
    cells = np.stack(np.unravel_index(dest, (cfg.centers_per_axis,) * b.dim), -1)
    spacing = b.span / cfg.centers_per_axis
    scatter = b.lb + (cells + 0.5) * spacing + rng.normal(0.0, spacing / 2, (k, b.dim))
    state.population[movers] = reflect_into_bounds(scatter, b)
    return state


def _burst_cube(trigger: Point, b: Bounds, cfg: VSConfig) -> tuple:
    """The burst cube's corners: trigger +/- epidemic_radius_fraction *
    span on each axis, clipped to `b`."""
    half = cfg.epidemic_radius_fraction * b.span
    return np.maximum(b.lb, trigger - half), np.minimum(b.ub, trigger + half)


def trigger_epidemic(
    trigger: Point,
    b: Bounds,
    cfg: VSConfig,
    objective: Objective,
    t: int,
    rng: RngStream,
) -> tuple[Point, float]:
    """Run a localized DE burst in a cube around the triggering scout.

    The cube spans trigger +/- epidemic_radius_fraction * axis range on
    each axis, clipped to the global box, and the trigger itself seeds
    the burst population so the result can never be worse than the
    trigger's own value. The burst runs `n_viral_individuals` members for
    `n_viral_generations` generations with `DEConfig`'s default weights.
    """
    trigger = np.asarray(trigger, dtype=float)
    lo, hi = _burst_cube(trigger, b, cfg)
    if not (lo < hi).all():
        raise ValueError(
            f"burst region collapsed around {trigger.tolist()}; is the "
            f"trigger inside the bounds?"
        )
    burst = DEConfig(pop_size=cfg.n_viral_individuals, generations=cfg.n_viral_generations)
    return de_optimize(objective, Bounds(lo, hi), burst, seed_point=trigger, t=t, rng=rng)


def step(
    state: EngineState,
    objective: Objective,
    b: Bounds,
    cfg: VSConfig,
    rng: RngStream,
) -> EngineState:
    """One generation: evaluate scouts, fire a `trigger_epidemic` burst
    from each scout that improves on the incumbent, update the incumbent,
    move everyone, rebalance every `_REBALANCE_EVERY` generations after
    the first when centers are on, append a trace row. The rows
    each phase evaluated (scouts, bursts, the incumbent's refresh) are
    added to `state.evaluations` here. The walk draws from
    `state.walk_rng`; the bursts and the rebalance draw from `rng`."""
    t = state.generation
    if objective.time_varying and state.best_individual_global is not None:
        # the landscape moved under the incumbent; refresh its value so
        # trigger comparisons stay meaningful
        state.fobj_global = objective(t, state.best_individual_global)
        state.evaluations["refresh"] += 1

    values = objective.evaluate_many(t, state.population)
    state.evaluations["scout"] += len(values)

    # the incumbent only decreases during the sweep, so scouts that fail
    # against the sweep-start value can be skipped outright; +inf is a
    # legal penalty but never triggers, since inf <= inf - tolerance
    # holds while the incumbent is still +inf
    for i in _trigger_candidates(values, state.fobj_global - _TRIGGER_TOLERANCE).tolist():
        if values[i] > state.fobj_global - _TRIGGER_TOLERANCE:
            continue
        best_point, best_value = trigger_epidemic(
            state.population[i].copy(), b, cfg, objective, t, rng
        )
        state.epidemic_count += 1
        # a burst evaluates its pop members once, then once per generation
        state.evaluations["burst"] += cfg.n_viral_individuals * (cfg.n_viral_generations + 1)
        if best_value <= state.fobj_global:
            # a fresh array from the burst, shared read-only by every
            # later trace row and the run's result
            best_point.flags.writeable = False
            state.fobj_global = best_value
            state.best_individual_global = best_point

    move_random(state, b, cfg)
    if state.has_centers() and t > 0 and t % _REBALANCE_EVERY == 0:
        rebalance(state, b, cfg, rng)

    state.trace.append(
        TraceRow(
            generation=t,
            fobj_global=state.fobj_global,
            best_point=state.best_individual_global,
            epidemics_so_far=state.epidemic_count,
            elapsed_ms=(time.perf_counter() - state.started_at) * 1e3,
            evaluations=sum(state.evaluations.values()),
        )
    )
    state.generation = t + 1
    return state


def check_config(b: Bounds, cfg: VSConfig) -> None:
    """Raise `ConfigurationError` unless a run of `cfg` on `b` can draw its
    bursts' partners, walk without overflow and build a burst cube around
    any trigger in `b`.

    numpy's ziggurat never returns a normal deviate of magnitude 14, so the
    walk's values stay below 2M + (M + 14 * walk_step_fraction * span),
    M = max(|lb|, |ub|): the scout, its step and the fold's reflection. A
    cube has zero width where x - h and x + h both round to x, or one does
    at a wall; that happens first at the walls and the two floats inside
    each."""
    check_draw_range(cfg.n_viral_individuals, b.dim)
    reach = np.maximum(np.abs(b.lb), np.abs(b.ub))
    with np.errstate(over="ignore"):
        reach = (reach + reach) + (reach + 14.0 * (cfg.walk_step_fraction * b.span))
    if not np.isfinite(reach).all():
        raise ConfigurationError(
            f"walk_step_fraction={cfg.walk_step_fraction} lets a walk step overflow on axis "
            f"{int(np.argmin(np.isfinite(reach)))}: 3 * max(|lb|, |ub|) + 14 * "
            f"walk_step_fraction * span must be finite; use a smaller fraction or box"
        )
    inner = np.nextafter(b.lb, b.ub), np.nextafter(b.ub, b.lb)
    for x in (b.lb, b.ub, *inner, np.nextafter(inner[0], b.ub), np.nextafter(inner[1], b.lb)):
        lo, hi = _burst_cube(x, b, cfg)
        if not (lo < hi).all():
            axis = int(np.argmin(lo < hi))
            raise ConfigurationError(
                f"epidemic_radius_fraction={cfg.epidemic_radius_fraction} gives axis {axis} a "
                f"burst cube half-width of {cfg.epidemic_radius_fraction * b.span[axis]}, which "
                f"rounds away at {x[axis]}: the cube is a point; use a larger fraction"
            )


def run(objective: Objective, b: Bounds, cfg: VSConfig) -> RunResult:
    """Full optimization: initialize, iterate `step` for exactly
    `n_generations` generations, and package the result. A configuration
    `check_config` rejects fails before any evaluation."""
    if objective.arity != b.dim:
        raise ConfigurationError(
            f"objective arity {objective.arity} does not match bounds "
            f"dimension {b.dim}"
        )
    check_config(b, cfg)

    t0 = time.perf_counter()
    rng = make_rng(cfg.seed)
    state = init_state(b, cfg, rng)
    for _ in range(cfg.n_generations):
        step(state, objective, b, cfg, rng)

    return RunResult(
        best_point=state.best_individual_global,
        best_value=state.fobj_global,
        trace=state.trace,
        epidemic_count=state.epidemic_count,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        evaluations=dict(state.evaluations),
    )
