"""The benchmark's four workloads: their operations and the checks on each
operation's output.

An operation is one seeded optimizer run, or one schema experiment. Every
operation has a fixed budget in generations. The program is driven only
through `run`, `parallel_run`, `make_benchmark` and
`schema_growth_experiment`; the objective and fitness functions it receives
are wrapped by the benchmark's `Recorder`, which counts their rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

import oracles

TARGET_GAP = 1e-3  # "reached the target": within this of the optimum


@dataclass
class OpResult:
    """What one operation did and whether its output passed the checks."""

    op: object
    started_at: float  # perf_counter when the program was called
    wall_s: float
    rows: int
    fingerprint: tuple
    errors: list = field(default_factory=list)
    raised: bool = False  # the operation raised instead of returning
    hit_s: Optional[float] = None  # time to target; None when missed
    hit_rows: Optional[int] = None  # rows to target, lockstep over workers
    other_s: float = 0.0  # traced rounds only: time no layer covers
    scale: float = 1.0  # reference speed over the speed around the op
    tallies: list = field(default_factory=list)


class OptimizerWorkload:
    """Seeded runs of one objective through `run` or `parallel_run`.

    `workers=None` calls `run`; an integer calls `parallel_run` with that m.
    `optimum` is the reference minimum (engine sign) and `target` the value
    at or below which a run has reached the target, or None for no target.
    """

    def __init__(self, vs, recorder, *, benchmark, box, value_of,
                 optimum, target, config, seeds, workers=None):
        self.vs = vs
        self.recorder = recorder
        self.value_of = value_of
        self.optimum = optimum
        self.target = target
        self.config = config
        self.seeds = seeds
        self.workers = workers
        spec = vs.make_benchmark(benchmark)
        self.lo, self.hi = box
        if not (np.all(spec.bounds.lb == self.lo) and np.all(spec.bounds.ub == self.hi)):
            raise ValueError(f"{benchmark} box is no longer [{self.lo}, {self.hi}]")
        self.bounds = spec.bounds
        self.objective = vs.Objective(
            recorder.objective(spec.objective.fn), spec.arity, name=spec.name
        )

    def ops(self) -> list:
        return list(self.seeds)

    def run_op(self, seed) -> OpResult:
        cfg = replace(self.config, seed=seed)
        self.recorder.reset()
        start = time.perf_counter()
        if self.workers is None:
            result = self.recorder.root(
                lambda: self.vs.run(self.objective, self.bounds, cfg)
            )
        else:
            result = self.vs.parallel_run(self.objective, self.bounds, cfg, m=self.workers)
        wall_s = time.perf_counter() - start
        by_generation = self.recorder.rows_by_generation()
        rows = sum(by_generation.values())
        errors = self._check(result, cfg, rows)
        hit_generation, hit_s, hit_rows = self._target(result, cfg, by_generation)
        return OpResult(
            op=seed,
            started_at=start,
            wall_s=wall_s,
            rows=rows,
            fingerprint=(
                result.best_value,
                tuple(result.best_point),
                result.epidemic_count,
                rows,
                hit_generation,
            ),
            errors=errors,
            hit_s=hit_s,
            hit_rows=hit_rows,
            other_s=self.recorder.unattributed_s(wall_s) if self.recorder.traced else 0.0,
            tallies=list(self.recorder.tallies),
        )

    def _check(self, result, cfg, rows) -> list:
        errors = []
        point = result.best_point
        if point is None or not np.all(np.isfinite(point)):
            return [f"no finite incumbent: {point!r}"]
        if np.any(point < self.lo) or np.any(point > self.hi):
            errors.append(f"incumbent {point.tolist()} is outside the box")
        recomputed = self.value_of(point)
        if not math.isclose(recomputed, result.best_value,
                            rel_tol=oracles.VALUE_RTOL, abs_tol=1e-18):
            errors.append(
                f"reported value {result.best_value!r} but the formula gives "
                f"{recomputed!r} at {point.tolist()}"
            )
        if result.best_value < self.optimum - 1e-9:
            errors.append(
                f"reported value {result.best_value!r} beats the reference "
                f"optimum {self.optimum!r}"
            )
        finals = []
        for worker in sorted({row.worker for row in result.trace}):
            trace = [row for row in result.trace if row.worker == worker]
            if [row.generation for row in trace] != list(range(cfg.n_generations)):
                errors.append(f"worker {worker}: trace is not one row per generation")
            values = [row.fobj_global for row in trace]
            if any(b > a for a, b in zip(values, values[1:])):
                errors.append(f"worker {worker}: trace is not monotone")
            finals.append(values[-1])
        if not finals or min(finals) != result.best_value:
            errors.append("best value differs from the best final trace value")
        burst_rows = cfg.n_viral_individuals * (cfg.n_viral_generations + 1)
        expected = cfg.n_individuals * cfg.n_generations + result.epidemic_count * burst_rows
        if rows != expected:
            errors.append(f"{rows} objective rows counted, the budget gives {expected}")
        if self.recorder.traced:
            errors.extend(self._check_attribution(result, cfg))
        return errors

    def _check_attribution(self, result, cfg) -> list:
        """Traced rounds: scout and burst rows must add up per engine run."""
        errors = []
        runs = [t for t in self.recorder.tallies if t.interval is not None]
        bursts = sum(t.counts["engine.bursts"] for t in runs)
        if bursts != result.epidemic_count:
            errors.append(f"traced {bursts} bursts, the run reports {result.epidemic_count}")
        for t in runs:
            n = (t.config or cfg).n_individuals
            if t.counts["engine.scout_evals"] != n * cfg.n_generations:
                errors.append(f"traced {t.counts['engine.scout_evals']} scout rows in a "
                              f"run of {n} scouts")
            expected = t.counts["engine.bursts"] * cfg.n_viral_individuals * (
                cfg.n_viral_generations + 1)
            if t.counts["local_search.burst_evals"] != expected:
                errors.append(f"traced {t.counts['local_search.burst_evals']} burst rows, "
                              f"expected {expected}")
        return errors

    def _target(self, result, cfg, by_generation):
        """First generation at which the best worker's incumbent reached the
        target; the rows all workers spent up to its end; and the engine's
        own clock at the first trace row that reached it."""
        if self.target is None:
            return None, None, None
        best = np.full(cfg.n_generations, np.inf)
        hit_s = None
        for row in result.trace:
            best[row.generation] = min(best[row.generation], row.fobj_global)
            if row.fobj_global <= self.target:
                seconds = row.elapsed_ms / 1e3
                hit_s = seconds if hit_s is None else min(hit_s, seconds)
        hits = np.flatnonzero(best <= self.target)
        if hits.size == 0:
            return None, None, None
        generation = int(hits[0])
        rows = sum(n for t, n in by_generation.items() if t <= generation)
        return generation, hit_s, rows


class SchemaWorkload:
    """`schema_growth_experiment` on one-max bit strings, one op per schema."""

    def __init__(self, vs, recorder, *, schemata, pop_size, length,
                 generations, trials, p_c, p_m, seed):
        self.vs = vs
        self.recorder = recorder
        self.target = None
        self.schemata = schemata
        self.generations = generations
        self.trials = trials
        self.params = vs.GAParams(p_c=p_c, p_m=p_m, seed=seed)
        # criterion 6's starting population
        self.pop0 = vs.random_population(
            pop_size, length, recorder.fitness(vs.onemax_fitness), vs.make_rng(2024)
        )

    def ops(self) -> list:
        return list(self.schemata)

    def run_op(self, schema) -> OpResult:
        self.recorder.reset()
        start = time.perf_counter()
        report = self.recorder.root(
            lambda: self.vs.schema_growth_experiment(
                self.pop0, schema, self.params, self.generations, self.trials
            )
        )
        wall_s = time.perf_counter() - start
        return OpResult(
            op=schema,
            started_at=start,
            wall_s=wall_s,
            rows=self.recorder.rows(),
            fingerprint=(
                report.frac_generations_pass,
                report.frac_cells_pass,
                tuple(report.mean_counts),
            ),
            errors=self._check(schema, report),
            other_s=self.recorder.unattributed_s(wall_s) if self.recorder.traced else 0.0,
            tallies=list(self.recorder.tallies),
        )

    def _check(self, schema, report) -> list:
        errors = []
        if (report.generations, report.trials) != (self.generations, self.trials):
            errors.append("report has the wrong shape")
        if len(report.mean_counts) != self.generations + 1:
            errors.append("mean_counts needs one entry per generation plus one")
            return errors
        members = self.pop0.members
        count0 = oracles.schema_count(members, schema)
        if report.mean_counts[0] != count0:
            errors.append(f"generation-0 count {report.mean_counts[0]}, numpy gives {count0}")
        bound0 = oracles.schema_bound(members, schema, self.params.p_c, self.params.p_m)
        if not math.isclose(report.mean_bounds[0], bound0, rel_tol=oracles.VALUE_RTOL):
            errors.append(f"first bound {report.mean_bounds[0]!r}, numpy gives {bound0!r}")
        if report.frac_generations_pass < 0.95:
            errors.append(
                f"only {report.frac_generations_pass:.1%} of generations meet the "
                f"schema-theorem bound (need 95%)"
            )
        return errors


def build(name: str, vs, recorder, seed: int, *, smoke: bool = False,
          shekel_max: Optional[float] = None, workers: int = 2):
    """The workload `name` for benchmark seed `seed`.

    `shekel_max` is the reference maximum of the Shekel formula (needed by
    the Shekel workloads); `workers` is m for `rosenbrock-split`.
    """
    a_matrix, c = vs.benchmarks.SHEKEL_A, vs.benchmarks.SHEKEL_C
    if name in ("shekel", "shekel-grid"):
        if shekel_max is None:
            raise ValueError(f"{name} needs the Shekel reference maximum")
        shekel = dict(
            benchmark="shekel",
            box=oracles.SHEKEL_BOX,
            value_of=lambda p: -float(oracles.shekel_values(p, a_matrix, c)[0]),
            optimum=-shekel_max,
        )
    if name == "shekel":
        # criterion 5's configuration
        n_seeds = 2 if smoke else 6
        config = vs.VSConfig(
            n_generations=20 if smoke else 2000,
            n_viral_generations=5 if smoke else 75,
            n_individuals=50 if smoke else 1000,
            n_viral_individuals=20 if smoke else 300,
        )
        return OptimizerWorkload(
            vs, recorder, **shekel, target=-shekel_max + TARGET_GAP,
            config=config, seeds=range(seed * n_seeds, (seed + 1) * n_seeds),
        )
    if name == "rosenbrock-split":
        # criterion 1's configuration, split over `workers` sub-boxes
        n_seeds = 3 if smoke else 40
        config = vs.VSConfig(
            n_generations=20 if smoke else 200,
            n_viral_generations=5 if smoke else 75,
            n_individuals=20 if smoke else 60,
            n_viral_individuals=20 if smoke else 150,
        )
        return OptimizerWorkload(
            vs, recorder, benchmark="rosenbrock", box=oracles.ROSENBROCK_BOX,
            value_of=lambda p: oracles.rosenbrock_value(p[0], p[1]),
            optimum=0.0, target=TARGET_GAP, config=config,
            seeds=range(seed * n_seeds, (seed + 1) * n_seeds), workers=workers,
        )
    if name == "shekel-grid":
        # Rebalance fires at generations 10 and 20 (smoke: 10). Bursts are
        # the smallest DE allows, so the work per run does not depend on how
        # many bursts a seed fires, and the center grid does most of it.
        config = vs.VSConfig(
            n_generations=12 if smoke else 30,
            n_viral_generations=1,
            n_individuals=40 if smoke else 1000,
            n_viral_individuals=4,
            centers_per_axis=3 if smoke else 7,
        )
        return OptimizerWorkload(
            vs, recorder, **shekel, target=None, config=config,
            seeds=[seed],
        )
    if name == "schema":
        # criterion 6's set-up, for two of its five schemata
        return SchemaWorkload(
            vs, recorder,
            schemata=["11" + "*" * 18, "1" + "*" * 18 + "1"],
            pop_size=100, length=20,
            # the 95% check is statistical: the smoke size keeps 100 trials
            generations=3 if smoke else 30,
            trials=100 if smoke else 200,
            p_c=0.7, p_m=0.01, seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("shekel", "rosenbrock-split", "shekel-grid", "schema")
