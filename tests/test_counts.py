"""Every count and seed an entry point takes goes through `check_counts`.

Each entry point gets a float and a value one below its minimum. Both must
raise `ConfigurationError` naming the parameter, before the entry point
draws from its generator or evaluates anything.

Likewise an `ExperimentSpec` field that must be a tuple or a mapping
raises `ConfigurationError` naming the field when it is not one.
"""

import copy

import numpy as np
import pytest

from viralsearch.benchmarks import make_benchmark
from viralsearch.core import (
    Bounds,
    ConfigurationError,
    Objective,
    check_counts,
    child_seed,
    make_rng,
    random_init,
    stratified_init,
)
from viralsearch.engine import VSConfig
from viralsearch.harness import ExperimentSpec, parallel_run, split_bounds
from viralsearch.local_search import DEConfig, check_draw_range
from viralsearch.schema_lab import (
    GAParams,
    onemax_fitness,
    random_population,
    schema_growth_experiment,
)

BOX = Bounds([-3.0, -3.0], [3.0, 3.0])
VS_COUNTS = dict(n_generations=3, n_viral_generations=2, n_individuals=6,
                 n_viral_individuals=5)


def _vs(**counts):
    return VSConfig(**{**VS_COUNTS, **counts})


def _schema_pop(fitness):
    return random_population(12, 6, fitness, make_rng(17))


# (id, parameter name, minimum, call(value, rng, objective, fitness))
ENTRY_POINTS = [
    ("make_rng", "seed", 0, lambda v, rng, obj, fit: make_rng(v)),
    ("child_seed-parent", "parent_seed", 0, lambda v, rng, obj, fit: child_seed(v, 0)),
    ("child_seed-index", "index", 0, lambda v, rng, obj, fit: child_seed(1, v)),
    ("Objective", "arity", 1,
     lambda v, rng, obj, fit: Objective(lambda t, p: p.sum(axis=1), arity=v)),
    ("make_benchmark-sphere", "arity", 1,
     lambda v, rng, obj, fit: make_benchmark("sphere", dim=v)),
    ("random_init", "n", 1, lambda v, rng, obj, fit: random_init(BOX, v, rng)),
    ("stratified_init", "n", 1, lambda v, rng, obj, fit: stratified_init(BOX, v, rng)),
    ("VSConfig-n_generations", "n_generations", 0,
     lambda v, rng, obj, fit: _vs(n_generations=v)),
    ("VSConfig-n_viral_generations", "n_viral_generations", 1,
     lambda v, rng, obj, fit: _vs(n_viral_generations=v)),
    ("VSConfig-n_individuals", "n_individuals", 1,
     lambda v, rng, obj, fit: _vs(n_individuals=v)),
    ("VSConfig-n_viral_individuals", "n_viral_individuals", 4,
     lambda v, rng, obj, fit: _vs(n_viral_individuals=v)),
    ("VSConfig-centers_per_axis", "centers_per_axis", 0,
     lambda v, rng, obj, fit: _vs(centers_per_axis=v)),
    ("VSConfig-rebalance_every", "rebalance_every", 1,
     lambda v, rng, obj, fit: _vs(rebalance_every=v)),
    ("VSConfig-seed", "seed", 0, lambda v, rng, obj, fit: _vs(seed=v)),
    ("DEConfig-pop_size", "pop_size", 4, lambda v, rng, obj, fit: DEConfig(pop_size=v)),
    ("DEConfig-generations", "generations", 1,
     lambda v, rng, obj, fit: DEConfig(generations=v)),
    ("check_draw_range", "n", 4, lambda v, rng, obj, fit: check_draw_range(v, 2)),
    ("GAParams-seed", "seed", 0, lambda v, rng, obj, fit: GAParams(seed=v)),
    ("ExperimentSpec-repeat", "repeat", 1,
     lambda v, rng, obj, fit: ExperimentSpec("sphere", repeat=v)),
    ("ExperimentSpec-seed_base", "seed_base", 0,
     lambda v, rng, obj, fit: ExperimentSpec("sphere", seed_base=v)),
    ("ExperimentSpec-checkpoints", "checkpoints", 0,
     lambda v, rng, obj, fit: ExperimentSpec("sphere", checkpoints=(v,))),
    ("split_bounds", "m", 1, lambda v, rng, obj, fit: split_bounds(BOX, v)),
    ("parallel_run", "m", 1, lambda v, rng, obj, fit: parallel_run(obj, BOX, _vs(), m=v)),
    ("random_population-n", "n", 1,
     lambda v, rng, obj, fit: random_population(v, 6, fit, rng)),
    ("random_population-length", "length", 1,
     lambda v, rng, obj, fit: random_population(12, v, fit, rng)),
    ("schema_growth_experiment-trials", "trials", 1,
     lambda v, rng, obj, fit: schema_growth_experiment(_schema_pop(fit), "1*****",
                                                       GAParams(), 2, v)),
    ("schema_growth_experiment-generations", "generations", 0,
     lambda v, rng, obj, fit: schema_growth_experiment(_schema_pop(fit), "1*****",
                                                       GAParams(), v, 3)),
]


@pytest.mark.parametrize("kind", ["float", "below_minimum"])
@pytest.mark.parametrize("name, minimum, call", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_bad_count_fails_before_any_draw_or_evaluation(name, minimum, call, kind):
    if kind == "float":
        value, message = 2.5, f"{name} must be an integer, got 2.5"
    else:
        value = minimum - 1
        least = "non-negative" if minimum == 0 else f">= {minimum}"
        message = f"{name} must be {least}, got {value}"
    rng = make_rng(20)
    untouched = copy.deepcopy(rng)
    rows = []

    def counting(t, p):
        rows.append(len(p))
        return (p**2).sum(axis=1)

    def fitness(members):
        rows.append(len(members))
        return onemax_fitness(members)

    with pytest.raises(ConfigurationError, match=message):
        call(value, rng, Objective(counting, arity=2), fitness)
    # the same next raw words, whatever the bit generator
    assert np.array_equal(
        rng.bit_generator.random_raw(4), untouched.bit_generator.random_raw(4)
    )
    assert rows == []


@pytest.mark.parametrize("value", [0, np.int64(3), np.uint8(7)])
def test_python_and_numpy_integers_at_the_minimum_pass(value):
    check_counts(int(value), count=value)


@pytest.mark.parametrize(
    "field, spec_fields",
    [("sweep_fields", dict(sweep_fields=["n_individuals"], cells=((4,),))),
     ("cells", dict(cells=5)),
     ("cells", dict(cells=(5,))),
     ("cells", dict(cells=[()])),
     ("checkpoints", dict(checkpoints=5)),
     ("checkpoints", dict(checkpoints=[3]))],
    ids=["sweep_fields-list", "cells-int", "cell-int", "cells-list", "checkpoints-int",
         "checkpoints-list"],
)
def test_spec_fields_that_are_not_tuples_fail_naming_the_field(field, spec_fields):
    with pytest.raises(ConfigurationError, match=f"^{field} must"):
        ExperimentSpec("sphere", **spec_fields)


@pytest.mark.parametrize(
    "field, spec_fields",
    [("base", dict(base=5)),
     ("benchmark_params", dict(benchmark_params=5)),
     ("base", dict(base=["n_individuals"]))],
    ids=["base-int", "benchmark_params-int", "base-list"],
)
def test_spec_fields_that_are_not_mappings_fail_naming_the_field(field, spec_fields):
    with pytest.raises(ConfigurationError, match=f"^{field} must be a mapping"):
        ExperimentSpec("sphere", **spec_fields)
