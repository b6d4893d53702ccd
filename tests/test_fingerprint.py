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
        "0x1.df68a5019d92dp-17", ["0x1.00db76efd9f4ap+0", "0x1.01ac2cd824029p+0"], 5,
        "300f44de130f977f9bd21ebe5432ae79d7c528f5247643679ccddb601a737f20",
    ),
    "rosenbrock-split": (
        "rosenbrock", {}, dict(n_generations=30, n_individuals=30, seed=7), 2,
        "0x1.6c73da8c1fa63p-3", ["0x1.6bfa2f0c4e501p+0", "0x1.02d74af8fd4ccp+1"], 7,
        "02671c8d6a63a0ce8be5d6f41fbcc2380a8c5ffd4746b7d3e3cefff068d5bc24",
    ),
    "shekel-centers": (
        "shekel", {}, dict(n_generations=30, n_individuals=60, centers_per_axis=3, seed=1), 1,
        "-0x1.2225a7fa2f347p+1",
        ["0x1.3f7e144c39bd8p+2", "0x1.361a2e9111aebp+2", "0x1.61b4d8bca2415p+2",
         "0x1.8006d98ea8f6ep+1"],
        3,
        "acdfb2cd66e43cf82985569ce4f6ac755212d209ac3490cdbff3f88026d8a195",
    ),
    # criterion 5's scout and burst sizes: C-ordered (300, 4) burst batches
    "shekel-wide": (
        "shekel", {},
        dict(n_generations=40, n_individuals=1000, n_viral_generations=5,
             n_viral_individuals=300, seed=0), 1,
        "-0x1.8cd7741833a3ep+2",
        ["0x1.11cbfbad42523p+2", "0x1.013aab3b86cddp+2", "0x1.007b52d1e5cf9p+2",
         "0x1.008dcbfee8901p+2"],
        3,
        "16176c7b3e7d80b2a87610886f330cae5c246851e6d0a1785e2e9fc268c60c75",
    ),
    # a step of 0.9 spans sends the fold through np.mod
    "sphere-far-walk": (
        "sphere", {"dim": 3},
        dict(n_generations=30, n_individuals=25, walk_step_fraction=0.9, seed=2), 1,
        "0x1.0e74e26be483ep-13",
        ["0x1.0e5653c9832e3p-7", "-0x1.8f03cc970a660p-8", "0x1.3fed5ab9be654p-8"],
        3,
        "99c8d71240504f407695c42fb5d273deaadb6d4dfebbc436fd4d1aee6e870c35",
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
        9, "18b761c70307523e3a880b54ca40e37f3839539a1189298b6f5105c700a4f30d",
    ),
    "rosenbrock-table3": (
        9, "2100c8651d8e4e3f002ecbfefc06bf8baab85b1ec029388ee8a8f9bf4a8163a9",
    ),
    "schaffer-table3": (
        9, "f10537db58ff1e3b7ebc220743ec7afd701a8a74f4c52657a10b4b6c0f4dfda8",
    ),
    "shekel-table5": (
        9, "46e17fb5860ce6edf27e70621a130f6211db5db5eb2e659a5312192b28ede8be",
    ),
    "twowell-table4": (
        20, "0f9824dd89883b6052d3ab38a868b6f97562fb812637faf0469ed45fb992ad04",
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
