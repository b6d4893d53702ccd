"""Classic binary GA with schema instrumentation.

A schema is a template over {0, 1, *} matching every bit-string that
agrees with it on the fixed (non-*) positions. The lab runs a plain
generational GA (roulette selection, single-point crossover on
consecutive pairs, per-bit mutation) and compares the observed growth of
a schema's instance count against the expected-count lower bound

    count * (schema_fitness / mean_fitness)
          * (1 - p_c * defining_length / (m - 1))
          * (1 - p_m) ** order
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    ConfigurationError, RngStream, ViralSearchError, check_counts, child_seed, make_rng,
)

WILDCARD = "*"

_TRIALS = 64  # trials of a schema experiment that evolve in lockstep


class NoInstancesError(ViralSearchError):
    """The schema has no instances in the population."""


@dataclass(frozen=True)
class CompiledSchema:
    """A schema parsed once: its pattern, the fixed positions `idx` in
    ascending order with their bits `vals`, its order, and its defining
    length (None for an all-wildcard schema, where it is undefined).

    Two compiled schemata are equal when their patterns are."""

    pattern: str
    idx: np.ndarray = field(compare=False, repr=False)
    vals: np.ndarray = field(compare=False, repr=False)
    order: int = field(compare=False)
    defining_length: Optional[int] = field(compare=False)


SchemaLike = Union[str, CompiledSchema]


def compile_schema(schema: SchemaLike) -> CompiledSchema:
    """Parse a schema given as a string; a compiled schema is returned as
    it is, and anything else raises `ValueError`."""
    if isinstance(schema, CompiledSchema):
        return schema
    if not isinstance(schema, str):
        raise ValueError(
            f"schema must be a string or a CompiledSchema, got {type(schema).__name__}"
        )
    if len(schema) < 1:
        raise ValueError("schema must have at least one position")
    bad = set(schema) - {"0", "1", WILDCARD}
    if bad:
        raise ValueError(f"schema may only contain 0, 1, {WILDCARD}; got {sorted(bad)}")
    idx = np.array([i for i, ch in enumerate(schema) if ch != WILDCARD], dtype=np.intp)
    vals = np.array([int(schema[i]) for i in idx], dtype=np.uint8)
    idx.flags.writeable = vals.flags.writeable = False
    return CompiledSchema(
        pattern=schema,
        idx=idx,
        vals=vals,
        order=int(idx.size),
        defining_length=int(idx[-1] - idx[0]) if idx.size else None,
    )


def defining_length(schema: SchemaLike) -> int:
    """Index distance between the first and last fixed position."""
    delta = compile_schema(schema).defining_length
    if delta is None:
        raise ValueError("defining length is undefined for an all-wildcard schema")
    return delta


def _checked_fitness(fitness_fn: Callable, members: np.ndarray) -> np.ndarray:
    """`fitness_fn(members)` as a new float vector, one finite, strictly
    positive value per member."""
    values = np.array(fitness_fn(members), dtype=float)
    if values.shape != (members.shape[0],):
        raise ValueError(
            f"fitness_fn returned shape {values.shape} for {members.shape[0]} members"
        )
    if not ((values > 0) & (values < np.inf)).all():
        raise ValueError("all fitness values must be finite and strictly positive")
    return values


@dataclass(frozen=True, eq=False)
class BinaryPopulation:
    """Fixed-length bit-string population with a strictly positive fitness.

    `fitness_fn` is vectorized: it receives an (N, m) matrix of bit-strings
    and returns N values. The matrix may hold several populations stacked
    into one, so each value must be a function of its own row alone.
    `members` is a read-only uint8 copy, so the fitness is computed on the
    first `fitness()` call and cached.
    """

    members: np.ndarray
    fitness_fn: Callable[[np.ndarray], np.ndarray]
    _fitness: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # checked before the cast, which would wrap 256 to 0 and 0.5 to 0
        members = np.asarray(self.members)
        if not ((members == 0) | (members == 1)).all():
            raise ValueError("members must contain only 0/1 bits")
        members = members.astype(np.uint8)
        if members.ndim != 2:
            raise ValueError("members must be a 2-D bit matrix")
        members.flags.writeable = False
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def length(self) -> int:
        return self.members.shape[1]

    def fitness(self) -> np.ndarray:
        """The members' fitness values (read-only); `ValueError` unless
        every value is finite and strictly positive."""
        if self._fitness is None:
            fitness = _checked_fitness(self.fitness_fn, self.members)
            fitness.flags.writeable = False
            object.__setattr__(self, "_fitness", fitness)
        return self._fitness


@dataclass(frozen=True)
class GAParams:
    p_c: float = 0.7
    p_m: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_counts(0, seed=self.seed)
        if not 0.0 <= self.p_c <= 1.0:
            raise ConfigurationError(f"p_c must be in [0, 1], got {self.p_c}")
        if not 0.0 <= self.p_m <= 1.0:
            raise ConfigurationError(f"p_m must be in [0, 1], got {self.p_m}")


def onemax_fitness(members: np.ndarray) -> np.ndarray:
    """1 + number of ones: strictly positive, favors all-ones strings. The
    bits are summed as integers, so no float copy of `members` is made."""
    return 1.0 + np.asarray(members).sum(axis=1)


def random_population(
    n: int, length: int, fitness_fn: Callable, rng: RngStream
) -> BinaryPopulation:
    """`n` uniformly random strings of `length` bits; `ConfigurationError`
    unless both are integers of at least 1, before any draw."""
    check_counts(1, n=n, length=length)
    members = rng.integers(0, 2, size=(n, length), dtype=np.uint8)
    return BinaryPopulation(members, fitness_fn)


def _match_mask(s: CompiledSchema, members: np.ndarray) -> np.ndarray:
    """Which rows of the (..., m) bit array `members` match `s`; every row
    matches an all-wildcard schema, as `all` over no positions is True."""
    return (members[..., s.idx] == s.vals).all(axis=-1)


def match_mask(schema: SchemaLike, pop: BinaryPopulation) -> np.ndarray:
    s = compile_schema(schema)
    if len(s.pattern) != pop.length:
        raise ValueError(
            f"schema has {len(s.pattern)} positions, members have {pop.length} bits"
        )
    return _match_mask(s, pop.members)


def count_matches(schema: SchemaLike, pop: BinaryPopulation) -> int:
    return int(match_mask(schema, pop).sum())


def schema_fitness(schema: SchemaLike, pop: BinaryPopulation) -> float:
    """Mean fitness of the members matching the schema."""
    s = compile_schema(schema)
    mask = match_mask(s, pop)
    if not mask.any():
        raise NoInstancesError(f"schema {s.pattern!r} has no instances in the population")
    return float(pop.fitness()[mask].mean())


def _survival(s: CompiledSchema, m: int, params: GAParams) -> tuple[float, float]:
    """The bound's crossover and mutation survival factors on strings of
    `m` bits; `ValueError` where they are undefined."""
    if m < 2:
        raise ValueError("the crossover survival factor needs strings of length >= 2")
    delta = defining_length(s)
    return 1.0 - params.p_c * delta / (m - 1), (1.0 - params.p_m) ** s.order


def _bound(xi, schema_mean, mean, survival: tuple[float, float]):
    """The expected-count bound of `xi` instances whose mean fitness is
    `schema_mean` in a population whose mean fitness is `mean`; scalars or
    arrays of one bound per population."""
    crossover_survival, mutation_survival = survival
    return xi * schema_mean / mean * crossover_survival * mutation_survival


def expected_count_bound(
    schema: SchemaLike, pop: BinaryPopulation, params: GAParams
) -> float:
    """Lower bound on the expected next-generation instance count of the
    schema under selection, crossover, and mutation."""
    s = compile_schema(schema)
    survival = _survival(s, pop.length, params)
    return _bound(count_matches(s, pop), schema_fitness(s, pop), float(pop.fitness().mean()),
                  survival)


def _single_point_crossover(
    members: np.ndarray, cross: np.ndarray, cuts: np.ndarray
) -> None:
    """Cross rows 2k and 2k+1 of each (n, m) population in the (..., n, m)
    `members` in place: where `cross[..., k]`, they swap their bits from
    position `cuts[..., k]` on. An odd last row is left alone."""
    half = cross.shape[-1]
    first, second = members[..., 0 : 2 * half : 2, :], members[..., 1 : 2 * half : 2, :]
    swap = np.arange(members.shape[-1]) >= cuts[..., None]
    swap &= cross[..., None]
    diff = first ^ second
    diff &= swap
    first ^= diff
    second ^= diff


def _stacked_fitness(fitness_fn: Callable, members: np.ndarray) -> np.ndarray:
    """`_checked_fitness` of the (B, n, m) populations in one call, as (B, n)."""
    size, n, m = members.shape
    return _checked_fitness(fitness_fn, members.reshape(size * n, m)).reshape(size, n)


def _masked_sums(values: np.ndarray, mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`values[k, mask[k]].sum()` for each k in `rows`. Each sum runs over
    the selected entries alone, in order, as `expected_count_bound`'s
    `fitness[mask].mean()` does, so it rounds the same."""
    return np.array([values[k].compress(mask[k]).sum() for k in rows])


def _ga_block_step(
    members: np.ndarray, fitness: np.ndarray, params: GAParams, rngs: list
) -> np.ndarray:
    """`classic_ga_step` on B populations at once: the (B, n, m) `members`
    with their (B, n) `fitness`. One pass per population k makes all of
    its draws from `rngs[k]`, in this order: `random(n)` for the roulette
    and `random(n // 2) < p_c` for which pairs cross, as one
    `random(n + n // 2)`; `integers(1, m, size=n // 2)` for the cuts; and
    `random((n, m)) < p_m` for the bits that flip. Strings of one bit draw
    no crossover uniforms and no cuts. The gather, the crossover and the
    mutation then run once for the block. Returns the (B, n, m) children."""
    size, n, m = members.shape
    half = n // 2 if m > 1 else 0
    rows = np.arange(size)
    # roulette: the indices and draws of `rng.choice(n, size=n, p=row / row.sum())`
    cdf = np.cumsum(fitness / fitness.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[:, -1:]
    uniforms = np.empty((size, n + half))
    picks = np.empty((size, n), dtype=np.intp)
    cuts = np.empty((size, half), dtype=np.int64)
    draws = np.empty((n, m))
    flips = np.empty(members.shape, dtype=bool)
    for k, rng in enumerate(rngs):
        rng.random(out=uniforms[k])
        picks[k] = cdf[k].searchsorted(uniforms[k, :n], side="right")
        if half:
            cuts[k] = rng.integers(1, m, size=half)
        np.less(rng.random(out=draws), params.p_m, out=flips[k])
    # members[rows[:, None], picks] as one flat gather over the B*n rows
    picks += rows[:, None] * n
    children = members.reshape(size * n, m).take(picks, 0)
    _single_point_crossover(children, uniforms[:, n:] < params.p_c, cuts)
    children ^= flips
    return children


def classic_ga_step(
    pop: BinaryPopulation, params: GAParams, rng: RngStream
) -> BinaryPopulation:
    """One generational cycle: roulette selection, single-point crossover on
    consecutive pairs, independent per-bit mutation.

    Costs O(n · m) for n members of m bits. The children's fitness is left
    to their first `fitness()` call."""
    children = _ga_block_step(pop.members[None], pop.fitness()[None], params, [rng])
    return BinaryPopulation(children[0], pop.fitness_fn)


@dataclass
class GrowthReport:
    """Aggregated observed-vs-bound statistics from repeated GA runs.

    Arrays are indexed by generation; a generation is "valid" in a trial
    when the schema still has instances there (the bound is undefined
    otherwise and that cell is skipped).

    `phase_s` holds the seconds spent in the GA step ("ga_step", with the
    evaluation of the children's fitness), the bound ("bound") and the
    instance count ("count"); `fitness_rows` counts the rows the
    experiment passed to the fitness function.
    """

    schema: str
    generations: int
    trials: int
    mean_counts: np.ndarray
    mean_observed_next: np.ndarray
    mean_bounds: np.ndarray
    generation_pass: np.ndarray
    frac_generations_pass: float
    frac_cells_pass: float
    phase_s: dict
    fitness_rows: int


def schema_growth_experiment(
    pop0: BinaryPopulation,
    schema: SchemaLike,
    params: GAParams,
    generations: int,
    trials: int,
) -> GrowthReport:
    """Evolve `trials` independent populations from `pop0` and compare the
    schema's observed next-generation counts to the expected-count bound.

    Trial t draws from its own stream `make_rng(child_seed(params.seed, t))`
    exactly what `classic_ga_step` would, in one pass per generation: the
    roulette and crossover uniforms, the cuts, then the mutation uniforms.
    The trials evolve in lockstep blocks of 64, one numpy call serving a
    whole block for everything else: the fitness function gets the block's
    populations stacked into one matrix, once per generation. The schema
    is parsed once, each population's fitness is evaluated once and its
    match mask built once, and memory is bounded by one block, not by
    `trials`, beyond the (trials, generations) result arrays. A `trials`
    or `generations` that is not an integer, `trials < 1` or
    `generations < 0` raises `ConfigurationError`, and with
    `generations >= 1` a schema or string length the bound is undefined
    for raises `ValueError`, both before any trial starts."""
    check_counts(1, trials=trials)
    check_counts(0, generations=generations)
    schema = compile_schema(schema)
    mask0 = match_mask(schema, pop0)
    if not mask0.any():
        raise NoInstancesError(
            f"schema {schema.pattern!r} must be instantiated in the starting population"
        )
    n, m = pop0.members.shape
    counts = np.zeros((trials, generations + 1))
    counts[:, 0] = mask0.sum()
    bounds_ = np.full((trials, generations), np.nan)
    phase_s = dict.fromkeys(("ga_step", "bound", "count"), 0.0)
    fitness_rows = 0
    if generations:
        survival = _survival(schema, m, params)
        if pop0._fitness is None:
            fitness_rows += n
        fitness0 = pop0.fitness()
    for start in range(0, trials if generations else 0, _TRIALS):
        stop = min(start + _TRIALS, trials)
        rngs = [make_rng(child_seed(params.seed, t)) for t in range(start, stop)]
        members = np.repeat(pop0.members[None], stop - start, axis=0)
        fitness = np.repeat(fitness0[None], stop - start, axis=0)
        mask = np.repeat(mask0[None], stop - start, axis=0)
        for g in range(generations):
            t0 = time.perf_counter()
            xi = counts[start:stop, g]
            live = np.flatnonzero(xi >= 1)
            schema_sums = _masked_sums(fitness, mask, live)
            bounds_[start + live, g] = _bound(
                xi[live], schema_sums / xi[live], fitness[live].sum(axis=-1) / n, survival
            )
            t1 = time.perf_counter()
            members = _ga_block_step(members, fitness, params, rngs)
            if g + 1 < generations:
                fitness = _stacked_fitness(pop0.fitness_fn, members)
                fitness_rows += fitness.size
            t2 = time.perf_counter()
            mask = _match_mask(schema, members)
            counts[start:stop, g + 1] = mask.sum(axis=-1)
            t3 = time.perf_counter()
            phase_s["bound"] += t1 - t0
            phase_s["ga_step"] += t2 - t1
            phase_s["count"] += t3 - t2

    valid = ~np.isnan(bounds_)
    observed_next = counts[:, 1:]
    mean_observed = np.full(generations, np.nan)
    mean_bound = np.full(generations, np.nan)
    gen_pass = np.zeros(generations, dtype=bool)
    for g in range(generations):
        v = valid[:, g]
        if v.any():
            mean_observed[g] = observed_next[v, g].mean()
            mean_bound[g] = bounds_[v, g].mean()
            gen_pass[g] = mean_observed[g] >= mean_bound[g] - 1e-9
    has_any = ~np.isnan(mean_bound)
    frac_generations = float(gen_pass[has_any].mean()) if has_any.any() else 1.0
    frac_cells = (
        float((observed_next[valid] >= bounds_[valid] - 1e-9).mean())
        if valid.any()
        else 1.0
    )
    return GrowthReport(
        schema=schema.pattern,
        generations=generations,
        trials=trials,
        mean_counts=counts.mean(axis=0),
        mean_observed_next=mean_observed,
        mean_bounds=mean_bound,
        generation_pass=gen_pass,
        frac_generations_pass=frac_generations,
        frac_cells_pass=frac_cells,
        phase_s=phase_s,
        fitness_rows=fitness_rows,
    )
