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
        "0x1.6c238e5dd0791p-4", ["0x1.67c1854e136e8p-1", "0x1.f7502bc0b3ab7p-2"], 5,
        "94f20091647beb39129e1bf08dde20ef951a475c237cb0ee0dbc33aadbb62b0b",
    ),
    "rosenbrock-split": (
        "rosenbrock", {}, dict(n_generations=30, n_individuals=30, seed=7), 2,
        "0x1.330bae67d7986p-13", ["0x1.f9d00954860eap-1", "0x1.f3bb334b11693p-1"], 6,
        "5619b996bb381b957e60bc52b890f1c936d95b4e5c5d16854ca23d4a9bb0f3df",
    ),
    "shekel-centers": (
        "shekel", {}, dict(n_generations=30, n_individuals=60, centers_per_axis=3, seed=1), 1,
        "-0x1.49afc5f30d2ebp+3",
        ["0x1.fe3a27e359379p+1", "0x1.fb6c5c01960fdp+1", "0x1.0100c2eea4606p+2",
         "0x1.018c45de53158p+2"],
        4,
        "7553735984686b99465743cfa93a257deaf6f47a206869ab13e1aabf4fbb7109",
    ),
    # criterion 5's scout and burst sizes: C-ordered (300, 4) burst batches
    "shekel-wide": (
        "shekel", {},
        dict(n_generations=40, n_individuals=1000, n_viral_generations=5,
             n_viral_individuals=300, seed=0), 1,
        "-0x1.349eca0bd3a0dp+3",
        ["0x1.0113925d8b12dp+2", "0x1.02b3d123ac7edp+2", "0x1.f5008f8f19c50p+1",
         "0x1.00f8d816f7e67p+2"],
        5,
        "29396dcdd5ef0b168e7e808a9faf76b2c8b06975c9db596045a8f79a195bb310",
    ),
    # a step of 0.9 spans sends the fold through np.mod
    "sphere-far-walk": (
        "sphere", {"dim": 3},
        dict(n_generations=30, n_individuals=25, walk_step_fraction=0.9, seed=2), 1,
        "0x1.3470454189ee2p-6",
        ["-0x1.65389f6a1aa30p-4", "-0x1.2ecc6f42fea60p-5", "0x1.96961360a02ccp-4"],
        2,
        "ab62376bcf6685ccc375e44d669a35a2a85836922eb3b099618a46708b97ff7d",
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
        9, "112ecae26ef94afe727db7d7c59d505798027032554459f6219d2c586a2f4840",
    ),
    "rosenbrock-table3": (
        9, "25e5ef63a94f8d403da6bae47ee15733c7f428578d465c6b112706ee430775e6",
    ),
    "schaffer-table3": (
        9, "265b109a1e29305b952de8bd1ef0df8f12345bcdc90b9319b67fab0b1158174c",
    ),
    "shekel-table5": (
        9, "b4d4dbde5fbaa4570df8d9ddc50284d6bf14ba674519a1d70556c395b13b35f9",
    ),
    "twowell-table4": (
        20, "3d56cd1fcd357344364f3e828e81b54f24a29891b62a3210f2853cd4ad2a9f53",
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
