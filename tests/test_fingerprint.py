"""Pinned results of short seeded runs.

Speedups are meant to leave seeded runs bit-identical. These cases pin
the best value, the best point, the burst count and a digest of every
trace row, so a change that moves any bit of them fails here. The
objectives use only + - * and /, and the walk, the fold and DE only
those and comparisons, so the pins hold on any IEEE-754 numpy build.
The schema lab's cases pin a digest of seeded growth reports on one-max,
whose fitness values are exact integers plus one. The report cases pin
every field but the wall time of each built-in spec's rows. A change that alters
the random stream or the arithmetic on purpose updates the pins and says
so in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from viralsearch.benchmarks import make_benchmark
from viralsearch.core import make_rng
from viralsearch.engine import VSConfig
from viralsearch.harness import builtin_specs, parallel_run, run_experiment
from viralsearch.schema_lab import (
    GAParams,
    classic_ga_step,
    onemax_fitness,
    random_population,
    schema_growth_experiment,
)

# name: (benchmark, benchmark params, VSConfig fields, m workers,
#        best value, best point, bursts, trace digest), floats as float.hex;
# bursts are 20 x 20 unless a case sets its own
PINNED = {
    "rosenbrock": (
        "rosenbrock", {}, dict(n_generations=40, n_individuals=20, seed=3), 1,
        "0x1.bcffeb7bb6efdp-6", ["0x1.aba05ea873f80p-1", "0x1.650d5c9498d76p-1"], 4,
        "47ea0b54dc1ed8f3516e89291b64a5a1f578bb4e2f9fca7e3d8b453c7a6c9f5c",
    ),
    "rosenbrock-split": (
        "rosenbrock", {}, dict(n_generations=30, n_individuals=30, seed=7), 2,
        "0x1.9ed896409f786p-8", ["0x1.d767ccdc883fdp-1", "0x1.b25e409fb6792p-1"], 7,
        "8f55c928a899405b0b601adb24f72dac99f88ad916391dfaeb61e25f36036ce3",
    ),
    "shekel-centers": (
        "shekel", {}, dict(n_generations=30, n_individuals=60, centers_per_axis=3, seed=1), 1,
        "-0x1.b20a8874ff0e4p+0",
        ["0x1.fe96ab8ea3fc4p+2", "0x1.08dbbbf3d9a94p+0", "0x1.ff366973198f6p+2",
         "0x1.09b6ace6e5b8fp+0"],
        3,
        "d1d243d3a9836df12a3b9280cae19cf5d5349e25b4c21cca90008b2786ea41f9",
    ),
    # criterion 5's scout and burst sizes: C-ordered (300, 4) burst batches
    "shekel-wide": (
        "shekel", {},
        dict(n_generations=40, n_individuals=1000, n_viral_generations=5,
             n_viral_individuals=300, seed=0), 1,
        "-0x1.45dbbacd14095p+3",
        ["0x1.fcb0ca02928bep+1", "0x1.0076465e31eddp+2", "0x1.f944183786f26p+1",
         "0x1.0058a856f6c32p+2"],
        4,
        "740a46d4653d793ca722653e5a9083b3917f262d4605e6fa997506c25affbaf7",
    ),
    # a step of 0.9 spans sends the fold through np.mod
    "sphere-far-walk": (
        "sphere", {"dim": 3},
        dict(n_generations=30, n_individuals=25, walk_step_fraction=0.9, seed=2), 1,
        "0x1.e88298774c6a3p-6",
        ["0x1.740e4a0c51500p-10", "-0x1.1f4232e4cbb30p-9", "-0x1.6198876084e58p-3"],
        2,
        "51064f6265a6484139f5cec40a2555dd3ae98775038fdf76ac5244a2d0a08356",
    ),
}


def trace_digest(trace) -> str:
    """SHA-256 over every trace row's worker, generation, incumbent value,
    incumbent point and burst count, floats written as float.hex."""
    h = hashlib.sha256()
    for row in trace:
        point = () if row.best_point is None else tuple(float(v).hex() for v in row.best_point)
        h.update(repr((row.worker, row.generation, float(row.fobj_global).hex(), point,
                       row.epidemics_so_far)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_run_matches_its_pinned_fingerprint(name):
    bench_name, params, fields, m, value, point, bursts, digest = PINNED[name]
    bench = make_benchmark(bench_name, **params)
    cfg = VSConfig(**{"n_viral_generations": 20, "n_viral_individuals": 20, **fields})
    result = parallel_run(bench.objective, bench.bounds, cfg, m=m)
    assert float(result.best_value).hex() == value
    assert [float(v).hex() for v in result.best_point] == point
    assert result.epidemic_count == bursts
    assert trace_digest(result.trace) == digest


# name: (n, schema, GAParams fields, generations, trials, report digest);
# one-max populations drawn from make_rng(n)
PINNED_SCHEMA = {
    # more trials than one lockstep block holds, and not a multiple of it
    "trials-70": (
        30, "11" + "*" * 8, dict(p_c=0.7, p_m=0.02, seed=5), 5, 70,
        "30b27f9d22559ce55226eb51f21208032ee4b9b5bdcdd6fcc7cf8382189717f4",
    ),
    # an odd population leaves its last member out of crossover
    "odd-n": (
        21, "1*1" + "*" * 5, dict(p_c=0.9, p_m=0.05, seed=8), 8, 12,
        "7506261e56ac26d75992f0411b97ee0e04dd1da593a9803f63d241c696f78f1e",
    ),
}


def report_digest(report) -> str:
    """SHA-256 over a growth report's mean counts, mean bounds, per-generation
    pass flags, fraction of passing cells and fitness rows, floats written
    as float.hex."""
    h = hashlib.sha256()
    h.update(repr((
        [float(v).hex() for v in report.mean_counts],
        [float(v).hex() for v in report.mean_bounds],
        report.generation_pass.tolist(),
        float(report.frac_cells_pass).hex(),
        report.fitness_rows,
    )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SCHEMA))
def test_seeded_schema_experiment_matches_its_pinned_fingerprint(name):
    n, schema, fields, generations, trials, digest = PINNED_SCHEMA[name]
    pop0 = random_population(n, len(schema), onemax_fitness, make_rng(n))
    report = schema_growth_experiment(pop0, schema, GAParams(**fields), generations, trials)
    assert report_digest(report) == digest


def test_seeded_one_bit_ga_matches_its_pinned_fingerprint():
    # one-bit strings have no crossover point, so a step draws no crossover
    # uniforms and no cuts; the bound is undefined there, so the steps run
    # without the experiment
    pop = random_population(15, 1, onemax_fitness, make_rng(4))
    rng = make_rng(6)
    h = hashlib.sha256()
    for _ in range(10):
        pop = classic_ga_step(pop, GAParams(p_c=1.0, p_m=0.1), rng)
        h.update(pop.members.tobytes())
    assert h.hexdigest() == (
        "d805b6d6f501f19a3238c9a7ebee44924d37a6f04edc4d7dd907ac956be8e116"
    )


# spec name: (rows, report digest) at repeat=2; a grid spec runs its first
# three cells, a checkpoint spec all of its checkpoints
PINNED_REPORTS = {
    "rosenbrock-table2": (
        9, "6f64dfec248d51cfb412dc71b99f3ea1bcba8e7c5b785a54ab04ac9b55c07a41",
    ),
    "rosenbrock-table3": (
        9, "8bf6796c0c3e992ec09a1cb936e9f24d2c6c9a3da6b4d9249b0e3f8043469189",
    ),
    "schaffer-table3": (
        9, "0f5875def85735b89fb12ddb85933e3c21f7a543e5364c7cd49f3beedad36d9d",
    ),
    "shekel-table5": (
        9, "81af8153383c84da79ca9882380bbf7e858e465881fb3caaf7ee43b6a289f673",
    ),
    "twowell-table4": (
        20, "d7caef78fc3480309ea046c8f2e5230368063ceeccaf08b026896ce6d5a0636a",
    ),
}


def rows_digest(rows) -> str:
    """SHA-256 over every report row's sweep (in column order), point,
    value, seed, kind and status, floats written as float.hex; the wall
    time is left out."""
    h = hashlib.sha256()
    for r in rows:
        point = None if r.point is None else tuple(float(v).hex() for v in r.point)
        h.update(repr((list(r.sweep.items()), point, float(r.value).hex(), r.seed, r.kind,
                       r.status)).encode())
    return h.hexdigest()


def test_every_builtin_spec_is_pinned():
    assert set(PINNED_REPORTS) == set(builtin_specs())


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_builtin_spec_rows_match_their_pinned_fingerprint(name):
    n_rows, digest = PINNED_REPORTS[name]
    spec = builtin_specs()[name]
    rows = run_experiment(replace(spec, repeat=2, cells=spec.cells[:3]))
    assert len(rows) == n_rows
    assert rows_digest(rows) == digest
