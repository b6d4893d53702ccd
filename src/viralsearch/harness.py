"""Experiment runner, parallel domain decomposition, and result files.

Report CSVs mirror the sweep-table layout (six fractional digits, LF
endings); JSON keeps full float precision. Wall times are recorded in
every report but never asserted anywhere: they are machine-bound.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .benchmarks import BenchmarkSpec, make_benchmark
from .core import (
    Bounds, ConfigurationError, Objective, ViralSearchError, check_counts, child_seed,
)
from .engine import RunResult, VSConfig, check_config, run

_TAIL_COLUMNS = ("time_s", "seed", "kind", "status")


def _check_keys(keys, where: str) -> None:
    valid = [f.name for f in fields(VSConfig)]
    keys = tuple(keys)
    for key in keys:
        if key not in valid:
            raise ConfigurationError(
                f"unknown VSConfig key {key!r} in {where}; "
                f"valid keys: {', '.join(valid)}"
            )
        # each run's seed is a child of seed_base, which overrides a seed set here
        if key == "seed":
            raise ConfigurationError(f"{where} sets 'seed'; set the spec's seed_base instead")
        if keys.count(key) > 1:
            raise ConfigurationError(f"{where} names {key!r} twice")


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark sweep: which config fields vary, over which cells.

    When `checkpoints` is set each run is sampled at those trace
    generations instead of reported by its end result. `sweep_fields`,
    `cells`, each cell and `checkpoints` are tuples; `base` and
    `benchmark_params` are mappings. A key of `base` or `sweep_fields`
    that is no `VSConfig` field, is `seed` (runs take their seeds from
    `seed_base`) or is named twice fails when the spec is built.
    """

    benchmark: str
    sweep_fields: tuple = ()
    cells: tuple = ((),)
    base: dict = field(default_factory=dict)
    benchmark_params: dict = field(default_factory=dict)
    repeat: int = 1
    seed_base: int = 0
    checkpoints: Optional[tuple] = None

    def __post_init__(self):
        check_counts(1, repeat=self.repeat)
        check_counts(0, seed_base=self.seed_base)
        checkpoints = () if self.checkpoints is None else self.checkpoints
        for name, value in (("sweep_fields", self.sweep_fields), ("cells", self.cells),
                            ("checkpoints", checkpoints)):
            if not isinstance(value, tuple):
                raise ConfigurationError(f"{name} must be a tuple, got {value!r}")
        for name, value in (("base", self.base), ("benchmark_params", self.benchmark_params)):
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"{name} must be a mapping, got {value!r}")
        _check_keys(self.base, "base")
        _check_keys(self.sweep_fields, "sweep_fields")
        if self.checkpoints is not None:
            if not self.checkpoints:
                raise ConfigurationError("checkpoints must name at least one generation")
            for t in self.checkpoints:
                check_counts(0, checkpoints=t)
        for cell in self.cells:
            if not isinstance(cell, tuple) or len(cell) != len(self.sweep_fields):
                raise ConfigurationError(
                    f"cells must hold tuples matching sweep fields {self.sweep_fields!r}, "
                    f"got {cell!r}"
                )


@dataclass
class ReportRow:
    """One result line: swept values, best coordinates, value, timing, seed."""

    sweep: dict
    point: Optional[tuple]
    value: float
    time_s: float
    seed: int
    kind: str = "run"
    status: str = "ok"


def builtin_specs() -> dict:
    """The shipped sweep definitions, keyed by CLI name."""
    return {
        "rosenbrock-table2": ExperimentSpec(
            benchmark="rosenbrock",
            sweep_fields=("n_individuals", "n_generations"),
            cells=((5, 50), (10, 75), (30, 100), (60, 200), (100, 300), (400, 1200)),
            base={"n_viral_individuals": 150, "n_viral_generations": 75},
        ),
        "rosenbrock-table3": ExperimentSpec(
            benchmark="rosenbrock",
            sweep_fields=("n_viral_individuals", "n_viral_generations"),
            cells=(
                (5, 50),
                (10, 75),
                (30, 100),
                (60, 200),
                (100, 300),
                (400, 500),
                (400, 1200),
            ),
            base={"n_individuals": 40, "n_generations": 100},
        ),
        "schaffer-table3": ExperimentSpec(
            benchmark="schaffer",
            sweep_fields=("n_individuals", "n_generations"),
            cells=(
                (10, 50),
                (50, 75),
                (100, 100),
                (400, 150),
                (1000, 200),
                (1500, 300),
            ),
            base={"n_viral_individuals": 150, "n_viral_generations": 75},
        ),
        "twowell-table4": ExperimentSpec(
            benchmark="two_well",
            benchmark_params={"tau": 500.0},
            base={
                "n_individuals": 100,
                "n_generations": 3000,
                "n_viral_individuals": 150,
                "n_viral_generations": 100,
            },
            checkpoints=tuple(range(300, 3000, 300)) + (2999,),
        ),
        "shekel-table5": ExperimentSpec(
            benchmark="shekel",
            sweep_fields=("n_individuals", "n_generations"),
            cells=(
                (5, 50),
                (10, 75),
                (30, 100),
                (60, 200),
                (100, 300),
                (400, 1200),
                (800, 1500),
                (1000, 2000),
                (2000, 3000),
                (5000, 5000),
            ),
            base={"n_viral_individuals": 300, "n_viral_generations": 75},
        ),
    }


def _coord_names(arity: int) -> list:
    return ["x", "y"] if arity == 2 else [f"x{j + 1}" for j in range(arity)]


def _maximizes(bench: BenchmarkSpec) -> bool:
    return bench.known_optimum is not None and bench.known_optimum.kind == "max"


def value_name(bench: BenchmarkSpec) -> str:
    """Report column of the objective value: "val" when maximizing, else "z"."""
    return "val" if _maximizes(bench) else "z"


def display_value(bench: BenchmarkSpec, value: float) -> float:
    """The engine minimizes; flip the sign back for maximization problems."""
    return -value if _maximizes(bench) else value


def _result_row(bench: BenchmarkSpec, sweep: dict, point, value: float, elapsed_ms: float,
                seed: int) -> ReportRow:
    """The report row of a finished run (or of one checkpoint of it): the
    point as a tuple of floats, the value as the benchmark states it, the
    time in seconds."""
    return ReportRow(
        sweep=sweep,
        point=None if point is None else tuple(float(v) for v in point),
        value=display_value(bench, value),
        time_s=elapsed_ms / 1e3,
        seed=seed,
    )


def _median_row(rows: list) -> ReportRow:
    ok = [r for r in rows if r.status == "ok"]
    pool = ok if ok else rows
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i].value, i))
    chosen = pool[ranked[(len(ranked) - 1) // 2]]
    return replace(chosen, kind="median", sweep=dict(chosen.sweep))


def run_experiment(spec: ExperimentSpec) -> list:
    """Execute every (cell, repeat) run; one row per run plus a median row
    per cell, or one row per checkpoint of each run. A benchmark that
    `make_benchmark` rejects fails before any run; the spec's keys were
    checked when it was built."""
    bench = make_benchmark(spec.benchmark, **spec.benchmark_params)
    rows = []
    for c, cell in enumerate(spec.cells):
        cell_rows = []
        for r in range(spec.repeat):
            seed = child_seed(spec.seed_base, c * spec.repeat + r)
            cell_rows.extend(_run_rows(spec, bench, dict(zip(spec.sweep_fields, cell)), seed))
        rows.extend(cell_rows)
        if spec.checkpoints is None:
            rows.append(_median_row(cell_rows))
    return rows


def _run_rows(spec: ExperimentSpec, bench: BenchmarkSpec, sweep: dict, seed: int) -> list:
    """The rows of one run of the cell `sweep`: its result, or its trace
    row at each checkpoint with `t` added to the sweep. A run that raises
    a `ViralSearchError` (a bad cell value, a checkpoint at or past its
    `n_generations`, a NaN from the objective) gives as many error rows;
    any other exception is a bug and propagates."""
    ts = spec.checkpoints
    sweeps = [sweep] if ts is None else [{**sweep, "t": t} for t in ts]
    try:
        cfg = VSConfig(**{**spec.base, **sweep, "seed": seed})
        late = [t for t in ts or () if t >= cfg.n_generations]
        if late:
            raise ConfigurationError(
                f"checkpoints must be below n_generations={cfg.n_generations}, got {late}"
            )
        result = run(bench.objective, bench.bounds, cfg)
    except ViralSearchError as exc:
        status = f"error: {type(exc).__name__}: {exc}"
        return [ReportRow(sweep=s, point=None, value=float("nan"), time_s=0.0, seed=seed,
                          status=status) for s in sweeps]
    if ts is None:
        return [_result_row(bench, sweep, result.best_point, result.best_value,
                            result.wall_time_ms, seed)]
    trace_rows = [result.trace[t] for t in ts]
    return [_result_row(bench, s, row.best_point, row.fobj_global, row.elapsed_ms, seed)
            for s, row in zip(sweeps, trace_rows)]


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.6f}"


def write_rows(rows: list, path: str, bench: BenchmarkSpec) -> None:
    """Write a report: JSON when `path` ends in ".json", CSV otherwise. The
    CSV names its coordinate and value columns after `bench`."""
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"rows": [asdict(r) for r in rows]}, fh, indent=2)
            fh.write("\n")
        return
    coords = _coord_names(bench.arity)
    sweep_names = list(rows[0].sweep) if rows else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sweep_names + coords + [value_name(bench), *_TAIL_COLUMNS])
        for r in rows:
            point = r.point if r.point is not None else (float("nan"),) * bench.arity
            writer.writerow(
                [_fmt(v) for v in r.sweep.values()]
                + [_fmt(c) for c in point[: len(coords)]]
                + [_fmt(r.value), _fmt(r.time_s), str(r.seed), r.kind, r.status]
            )


def split_bounds(b: Bounds, m: int) -> list:
    """Partition the box into `m` boxes by repeatedly halving the widest
    box along its longest axis (ties to the lowest index)."""
    check_counts(1, m=m)
    boxes = [b]
    while len(boxes) < m:
        widths = [box.span.max() for box in boxes]
        i = int(np.argmax(widths))
        box = boxes[i]
        axis = int(np.argmax(box.span))
        mid = 0.5 * (box.lb[axis] + box.ub[axis])
        left_ub = box.ub.copy()
        left_ub[axis] = mid
        right_lb = box.lb.copy()
        right_lb[axis] = mid
        boxes[i : i + 1] = [Bounds(box.lb, left_ub), Bounds(right_lb, box.ub)]
    return boxes


def parallel_run(objective: Objective, b: Bounds, cfg: VSConfig, m: int = 1) -> RunResult:
    """Split the box into `m` sub-boxes, run an independent engine per box
    (population split evenly, child seeds per worker, bursts as `cfg`
    sets them), and keep the best worker's result. Traces are merged,
    tagged with the worker index, and the evaluation counts summed.

    The workers run one after another in the calling thread. The split is
    a diversity option, not a speedup: each worker keeps its own incumbent
    and fires its own bursts, and the call costs the sum of its workers'
    runs. With m=1 this is exactly `run` with the same seed.
    """
    check_counts(1, m=m)
    if m > cfg.n_individuals:
        raise ConfigurationError(
            f"m={m} workers need at least one scout each, but "
            f"n_individuals={cfg.n_individuals}"
        )
    if m == 1:
        return run(objective, b, cfg)

    t0 = time.perf_counter()
    boxes = split_bounds(b, m)
    share, extra = divmod(cfg.n_individuals, m)
    worker_cfgs = [
        replace(
            cfg,
            n_individuals=share + (1 if w < extra else 0),
            seed=child_seed(cfg.seed, w),
        )
        for w in range(m)
    ]
    for box, wcfg in zip(boxes, worker_cfgs):
        check_config(box, wcfg)
    results = [run(objective, box, wcfg) for box, wcfg in zip(boxes, worker_cfgs)]

    best_w = min(range(m), key=lambda w: (results[w].best_value, w))
    trace = []
    for w, res in enumerate(results):
        for row in res.trace:
            row.worker = w
        trace.extend(res.trace)
    return RunResult(
        best_point=results[best_w].best_point,
        best_value=results[best_w].best_value,
        trace=trace,
        epidemic_count=sum(res.epidemic_count for res in results),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        evaluations={
            phase: sum(res.evaluations[phase] for res in results)
            for phase in results[0].evaluations
        },
    )


def trace_export(result: RunResult, path: str) -> None:
    """Write the per-generation incumbent trace as a plottable CSV. The
    `worker` column tells apart the rows of a `parallel_run`'s workers,
    which share generation numbers; a single run's rows are worker 0.
    `evaluations` counts that run's or worker's objective rows so far."""
    if not result.trace:
        raise ValueError("cannot export an empty trace")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "fobj_global", "epidemics", "elapsed_ms", "worker",
                         "evaluations"])
        for row in result.trace:
            writer.writerow(
                [
                    row.generation,
                    f"{row.fobj_global:.12g}",
                    row.epidemics_so_far,
                    f"{row.elapsed_ms:.3f}",
                    row.worker,
                    row.evaluations,
                ]
            )
