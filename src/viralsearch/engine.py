"""The viral-search state machine.

A population of scouts random-walks the search box. Whenever a scout
evaluates finite and at least as well as the incumbent (minus a
tolerance), it triggers a localized differential-evolution burst inside
a small cube around its position; the burst's best result updates the
incumbent. An optional fixed grid of centers tracks how evenly the box
is being visited and periodically teleports scouts from over-visited to
under-visited regions.

The walk's normal draw depends only on where the run's random stream
stands, not on the scouts' values. So `step` can hand the draw to a helper
thread before it evaluates the scouts, and `move_random` takes the filled
buffer: numpy releases the interpreter lock both in the draw's fill and in
the evaluation's array loops, so on two cores the two overlap. The
hand-off costs two thread wake-ups, and a draw on the helper runs slower
than in line, so it pays only when the draw is long and the evaluation
hides it: `step` hands off only with at least `_PREFETCH_MIN` coordinates,
a finite incumbent, and a previous scout evaluation that took at least
`_PREFETCH_EVAL_S` seconds per coordinate. At generation 0 the incumbent
is infinite and a burst always fires, so no draw is handed off. A run that
needs the draw before the helper has started it takes the draw back and
makes it in line, so it never waits for the helper to wake.

`step` snapshots the generator's state before the hand-off. A scout that
triggers a burst, or an exception, first settles the draw and restores
that state, so every draw keeps its serial order (bursts, then the walk,
then the rebalance) and a run is bit-identical to one that draws in line.
One helper thread, started on first use, serves every run of the process
in turn; each request carries its run's generator and a buffer the run
owns. A forked child forgets the helper and starts its own on first use.
"""

from __future__ import annotations

import os
import queue
import threading
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
    random_init,
    reflect_into_bounds,
    stratified_init,
)
from .local_search import DEConfig, check_draw_range, de_optimize

_MAX_CENTERS = 1_000_000
# The walk's draw goes to the helper thread only from this many coordinates
# on, and only when the previous scout evaluation took at least this many
# seconds per coordinate, about half the draw's own cost. Per generation on
# 2 cores, handing off Shekel's draw gained nothing at 2560 and 3072
# coordinates and 23 and 51 us at 3584 and 4000; a sphere, whose evaluation
# costs about 2 ns per coordinate, lost 35 us at 4096 and 123 us at 16384.
_PREFETCH_MIN = 3072
_PREFETCH_EVAL_S = 6e-9


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
    seed: int = 0
    init: str = "stratified"

    def __post_init__(self):
        check_counts(0, n_generations=self.n_generations,
                     centers_per_axis=self.centers_per_axis, seed=self.seed)
        check_counts(1, n_viral_generations=self.n_viral_generations,
                     n_individuals=self.n_individuals, rebalance_every=self.rebalance_every)
        # a burst member needs three distinct partners
        check_counts(4, n_viral_individuals=self.n_viral_individuals)
        for name in ("epidemic_radius_fraction", "walk_step_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {v}")
        if not 0.0 <= self.rebalance_fraction <= 1.0:
            raise ConfigurationError("rebalance_fraction must be in [0, 1]")
        # the incumbent starts at inf, and inf minus an infinite or NaN
        # tolerance is NaN, which no scout's value ever reaches
        if not 0.0 <= self.trigger_tolerance < np.inf:
            raise ConfigurationError(
                f"trigger_tolerance must be finite and >= 0, got {self.trigger_tolerance}"
            )
        if self.init not in ("stratified", "random"):
            raise ConfigurationError(
                f"init must be 'stratified' or 'random', got {self.init!r}"
            )


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
    `walk_box` caches `_walk_box`'s per-element box with the box and scout
    count it was built for. `walk_draw` is the run's `_WalkDraw`, pending
    from `step`'s hand-off until `move_random` takes it, and
    `scout_eval_s` the seconds the last scout evaluation took. `evaluations`
    counts the objective rows each phase evaluated (scouts, bursts,
    refreshes)."""

    population: Population
    generation: int = 0
    fobj_global: float = float("inf")
    best_individual_global: Optional[Point] = None
    visit_counts: Optional[np.ndarray] = None
    epidemic_count: int = 0
    trace: list = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    walk_box: Optional[tuple] = None
    walk_draw: Optional[_WalkDraw] = None
    scout_eval_s: float = 0.0
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
    """Fresh engine state: initialized population, zero visit counts per
    center (none when centers are off), empty trace."""
    n_centers = _center_count(b, cfg.centers_per_axis) if cfg.centers_per_axis else 0
    init = stratified_init if cfg.init == "stratified" else random_init
    pop = np.asfortranarray(init(b, cfg.n_individuals, rng))
    return EngineState(population=pop, visit_counts=np.zeros(n_centers, dtype=np.int64))


def _walk_box(state: EngineState, b: Bounds) -> Bounds:
    """`b`'s limits repeated per scout in the axis-major order of the
    flattened population, so each fold call is one pass along n * dim
    coordinates with no broadcasting. Built on a state's first move and
    again only when the box or the scout count changes, in O(n * dim)
    memory."""
    n = len(state.population)
    cached = state.walk_box
    if cached is None or cached[0] is not b or cached[1] != n:
        state.walk_box = cached = (b, n, Bounds(np.repeat(b.lb, n), np.repeat(b.ub, n)))
    return cached[2]


class _WalkDraw:
    """One run's walk draw: the buffer the run owns; the generator it is
    drawn from; that generator's state from before the draw, or None when
    no draw is pending; `claim`, a fresh lock per hand-off that whichever
    of the helper and the run takes first owns the draw with, so the
    helper never starts a draw the run took back; and `done`, held from
    the hand-off until the draw is settled."""

    __slots__ = ("out", "rng", "before", "claim", "done", "error")

    def __init__(self, shape: tuple):
        self.out = np.empty(shape)
        self.rng = None
        self.before = None
        self.claim = None
        self.done = threading.Lock()
        self.error = None

    def fill(self, claim) -> None:
        """Runs on the helper thread: draw, unless the run took the draw
        back first. A failure is raised in the run."""
        if not claim.acquire(blocking=False):
            return
        try:
            self.rng.standard_normal(out=self.out)
        except BaseException as exc:
            self.error = exc
        finally:
            self.done.release()

    def take_back(self) -> bool:
        """True when the helper had not started the draw, which it now
        never will, so the generator is where the hand-off left it;
        otherwise wait until the helper has filled the buffer."""
        if self.claim.acquire(blocking=False):
            self.done.release()
            return True
        self.done.acquire()
        self.done.release()
        error, self.error = self.error, None
        if error is not None:
            raise error
        return False


class _DrawHelper:
    """The process's one helper thread, started on first use, which fills
    the runs' walk draws in the order they arrive."""

    def __init__(self):
        self._lock = threading.Lock()
        self._requests = None

    def submit(self, draw: _WalkDraw, claim) -> None:
        requests = self._requests
        if requests is None:
            with self._lock:
                if self._requests is None:
                    self._requests = queue.SimpleQueue()
                    threading.Thread(target=_serve, args=(self._requests,),
                                     name="viralsearch-walk-draw", daemon=True).start()
                requests = self._requests
        requests.put((draw, claim))

    def forget(self) -> None:
        """In a forked child: the thread did not come along, and the lock
        may have been held by another parent thread."""
        self.__init__()


def _serve(requests: queue.SimpleQueue) -> None:
    while True:
        draw, claim = requests.get()
        draw.fill(claim)


_HELPER = _DrawHelper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPER.forget)


def _hand_off_walk_draw(state: EngineState, rng: RngStream) -> None:
    """Snapshot `rng`'s state and have the helper draw the next walk's
    normal steps from it into the run's buffer. Until the draw is taken or
    cancelled, nothing else may draw from `rng`."""
    shape = state.population.shape
    draw = state.walk_draw
    if draw is None or draw.out.shape != shape:
        state.walk_draw = draw = _WalkDraw(shape)
    draw.rng = rng
    draw.before = rng.bit_generator.state
    draw.claim = claim = threading.Lock()
    draw.done.acquire()
    _HELPER.submit(draw, claim)


def _take_walk_draw(state: EngineState) -> Optional[np.ndarray]:
    """The pending walk draw's filled buffer; None when no draw is pending
    or the helper had not started it, and the caller draws in line."""
    draw = state.walk_draw
    if draw is None or draw.before is None:
        return None
    taken_back = draw.take_back()
    draw.before = None
    return None if taken_back else draw.out


def _cancel_walk_draw(state: EngineState) -> None:
    """Settle a pending walk draw and put its generator back where the
    hand-off found it, so the next draw from it is the one a serial run
    makes."""
    draw = state.walk_draw
    if draw is None or draw.before is None:
        return
    before, draw.before = draw.before, None
    try:
        draw.take_back()
    finally:
        draw.rng.bit_generator.state = before


def move_random(
    state: EngineState, b: Bounds, cfg: VSConfig, rng: RngStream
) -> EngineState:
    """Perturb every scout with an independent Gaussian step per axis,
    reflecting it back across the walls it crossed, and tally center
    visits when centers are on.

    The normal steps are the draw `step` handed to the helper thread, when
    one is pending, and are drawn from `rng` here otherwise. The walk and
    the fold are flat passes over the n * dim coordinates against
    `_walk_box`'s per-element limits. The tally finds each scout's center
    by grid arithmetic, so it costs O(n * dim + C) per call for C
    centers."""
    shape = state.population.shape
    draw = _take_walk_draw(state)
    if draw is None:
        draw = rng.standard_normal(shape)
    # one transposing copy makes the C-ordered draw axis-major, so the scale
    # (one scalar per column) and the step run along contiguous columns
    steps = np.asfortranarray(draw)
    steps *= cfg.walk_step_fraction * b.span
    steps += state.population
    folded = reflect_into_bounds(steps.ravel(order="F"), _walk_box(state, b))
    state.population = folded.reshape(shape, order="F")
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
    the same grid arithmetic as `move_random`'s tally (ties to the lowest
    center index), and a destination center at grid cell c sits at the
    midpoint lb + (c + 0.5) * span / centers_per_axis; ranking the C
    centers costs O(C log C) time and O(C) memory.
    """
    n = len(state.population)
    k = int(cfg.rebalance_fraction * n)
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
    half = cfg.epidemic_radius_fraction * b.span
    lo = np.maximum(b.lb, trigger - half)
    hi = np.minimum(b.ub, trigger + half)
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
    move everyone, rebalance on cadence, append a trace row. The rows
    each phase evaluated (scouts, bursts, the incumbent's refresh) are
    added to `state.evaluations` here.

    When the module docstring's conditions hold, the walk's draw is
    handed to the helper thread before the scouts are evaluated; a burst
    or an exception cancels it first, so `rng` is drawn from in the
    serial order and a step that raises leaves it where a serial step
    would."""
    t = state.generation
    if objective.time_varying and state.best_individual_global is not None:
        # the landscape moved under the incumbent; refresh its value so
        # trigger comparisons stay meaningful
        state.fobj_global = objective(t, state.best_individual_global)
        state.evaluations["refresh"] += 1

    size = state.population.size
    if (size >= _PREFETCH_MIN and state.fobj_global < np.inf
            and state.scout_eval_s >= size * _PREFETCH_EVAL_S):
        _hand_off_walk_draw(state, rng)
    try:
        started = time.perf_counter()
        values = objective.evaluate_many(t, state.population)
        state.scout_eval_s = time.perf_counter() - started
        state.evaluations["scout"] += len(values)

        # the incumbent only decreases during the sweep, so scouts that fail
        # against the sweep-start value can be skipped outright; +inf is a
        # legal penalty but never triggers, since inf <= inf - tolerance
        # holds while the incumbent is still +inf
        for i in _trigger_candidates(values, state.fobj_global - cfg.trigger_tolerance):
            if values[i] > state.fobj_global - cfg.trigger_tolerance:
                continue
            # the burst draws before the walk does
            _cancel_walk_draw(state)
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

        move_random(state, b, cfg, rng)
    except BaseException:
        _cancel_walk_draw(state)
        raise
    if (
        state.has_centers()
        and cfg.rebalance_fraction > 0
        and t > 0
        and t % cfg.rebalance_every == 0
    ):
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


def run(objective: Objective, b: Bounds, cfg: VSConfig) -> RunResult:
    """Full optimization: initialize, iterate `step` for exactly
    `n_generations` generations, and package the result. A burst
    population too large to draw its partners in `b.dim` axes fails
    before any evaluation."""
    if objective.arity != b.dim:
        raise ConfigurationError(
            f"objective arity {objective.arity} does not match bounds "
            f"dimension {b.dim}"
        )
    check_draw_range(cfg.n_viral_individuals, b.dim)

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
