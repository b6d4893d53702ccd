"""Experiment runner, parallel domain decomposition, and result files.

Report CSVs mirror the sweep-table layout (six fractional digits, LF
endings); JSON keeps full float precision. Wall times are recorded in
every report but never asserted anywhere: they are machine-bound.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .benchmarks import BenchmarkSpec, make_benchmark
from .core import Bounds, ConfigurationError, Objective, ViralSearchError, child_seed
from .engine import RunResult, VSConfig, run
from .local_search import DEConfig

_TAIL_COLUMNS = ("time_s", "seed", "kind", "status")


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark sweep: which config fields vary, over which cells.

    When `checkpoints` is set the spec is a single long run sampled at
    those trace generations instead of a grid sweep. A set `out_path`
    gets a JSON report when it ends in ".json", else a CSV one.
    """

    name: str
    benchmark: str
    sweep_fields: tuple = ()
    cells: tuple = ((),)
    base: dict = field(default_factory=dict)
    de: dict = field(default_factory=dict)
    benchmark_params: dict = field(default_factory=dict)
    repeat: int = 1
    seed_base: int = 0
    out_path: Optional[str] = None
    checkpoints: Optional[tuple] = None

    def __post_init__(self):
        if self.repeat < 1:
            raise ConfigurationError("repeat must be >= 1")
        for cell in self.cells:
            if len(cell) != len(self.sweep_fields):
                raise ConfigurationError(
                    f"cell {cell!r} does not match sweep fields {self.sweep_fields!r}"
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
            name="rosenbrock-table2",
            benchmark="rosenbrock",
            sweep_fields=("n_individuals", "n_generations"),
            cells=((5, 50), (10, 75), (30, 100), (60, 200), (100, 300), (400, 1200)),
            base={"n_viral_individuals": 150, "n_viral_generations": 75},
        ),
        "rosenbrock-table3": ExperimentSpec(
            name="rosenbrock-table3",
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
            name="schaffer-table3",
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
            name="twowell-table4",
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
            name="shekel-table5",
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


def _check_keys(keys, config_type, where: str) -> None:
    valid = [f.name for f in fields(config_type)]
    for key in keys:
        if key not in valid:
            raise ConfigurationError(
                f"unknown {config_type.__name__} key {key!r} in {where}; "
                f"valid keys: {', '.join(valid)}"
            )


def _median_row(rows: list) -> ReportRow:
    ok = [r for r in rows if r.status == "ok"]
    pool = ok if ok else rows
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i].value, i))
    chosen = pool[ranked[(len(ranked) - 1) // 2]]
    return replace(chosen, kind="median", sweep=dict(chosen.sweep))


def run_experiment(spec: ExperimentSpec) -> list:
    """Execute every (cell, repeat) run; one row per run plus a median row
    per cell. A run that raises a `ViralSearchError` (a bad cell value, a
    NaN from the objective) becomes an error row instead of aborting the
    sweep; any other exception is a bug and propagates. Writes
    `spec.out_path` when set.

    An unknown config key in `base`, `sweep_fields` or `de` raises
    `ConfigurationError` before any run."""
    _check_keys(spec.base, VSConfig, "base")
    _check_keys(spec.sweep_fields, VSConfig, "sweep_fields")
    _check_keys(spec.de, DEConfig, "de")
    bench = make_benchmark(spec.benchmark, **spec.benchmark_params)
    rows = []
    flat = 0
    for cell in spec.cells:
        cell_rows = []
        for _ in range(spec.repeat):
            seed = child_seed(spec.seed_base, flat)
            flat += 1
            overrides = dict(spec.base)
            overrides.update(zip(spec.sweep_fields, cell))
            overrides["seed"] = seed
            sweep = dict(zip(spec.sweep_fields, cell))
            try:
                cfg = VSConfig(**overrides)
                result = run(bench.objective, bench.bounds, cfg, DEConfig(**spec.de))
                if spec.checkpoints is not None:
                    cell_rows.extend(
                        _checkpoint_rows(bench, result, spec.checkpoints, seed)
                    )
                else:
                    cell_rows.append(
                        _result_row(bench, sweep, result.best_point, result.best_value,
                                    result.wall_time_ms, seed)
                    )
            except ViralSearchError as exc:
                cell_rows.append(
                    ReportRow(
                        sweep=sweep,
                        point=None,
                        value=float("nan"),
                        time_s=0.0,
                        seed=seed,
                        status=f"error: {type(exc).__name__}: {exc}",
                    )
                )
        rows.extend(cell_rows)
        if spec.checkpoints is None:
            rows.append(_median_row(cell_rows))
    if spec.out_path is not None:
        write_rows(rows, spec.out_path, bench)
    return rows


def _checkpoint_rows(bench, result: RunResult, checkpoints, seed: int) -> list:
    rows = []
    by_generation = {row.generation: row for row in result.trace}
    for t in checkpoints:
        trace_row = by_generation.get(t)
        if trace_row is None:
            rows.append(
                ReportRow(
                    sweep={"t": t},
                    point=None,
                    value=float("nan"),
                    time_s=result.wall_time_ms / 1e3,
                    seed=seed,
                    status=f"error: no trace row for generation {t}",
                )
            )
            continue
        rows.append(
            _result_row(bench, {"t": t}, trace_row.best_point, trace_row.fobj_global,
                        trace_row.elapsed_ms, seed)
        )
    return rows


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


def read_rows_json(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = [ReportRow(**entry) for entry in payload["rows"]]
    for row in rows:
        if row.point is not None:
            row.point = tuple(row.point)
    return rows


def read_rows_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        time_at = header.index("time_s")
        value_at = time_at - 1
        coord_start = value_at
        for j, name in enumerate(header[:value_at]):
            if name == "x" or name == "x1":
                coord_start = j
                break
        rows = []
        for record in reader:
            sweep = {
                name: _parse_number(record[j]) for j, name in enumerate(header[:coord_start])
            }
            point = tuple(float(record[j]) for j in range(coord_start, value_at))
            rows.append(
                ReportRow(
                    sweep=sweep,
                    point=point,
                    value=float(record[value_at]),
                    time_s=float(record[time_at]),
                    seed=int(record[time_at + 1]),
                    kind=record[time_at + 2],
                    status=record[time_at + 3],
                )
            )
    return rows


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def split_bounds(b: Bounds, m: int) -> list:
    """Partition the box into `m` boxes by repeatedly halving the widest
    box along its longest axis (ties to the lowest index)."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
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


def parallel_run(
    objective: Objective,
    b: Bounds,
    cfg: VSConfig,
    de_cfg: Optional[DEConfig] = None,
    m: int = 1,
) -> RunResult:
    """Split the box into `m` sub-boxes, run an independent engine per box
    (population split evenly, child seeds per worker), and keep the best
    worker's result. Traces are merged, tagged with the worker index.

    The workers run one after another in the calling thread. The split is
    a diversity option, not a speedup: each worker keeps its own incumbent
    and fires its own bursts, and the call costs the sum of its workers'
    runs. With m=1 this is exactly `run` with the same seed.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    if m > cfg.n_individuals:
        raise ConfigurationError(
            f"m={m} workers need at least one scout each, but "
            f"n_individuals={cfg.n_individuals}"
        )
    if m == 1:
        return run(objective, b, cfg, de_cfg)

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
    results = [run(objective, box, wcfg, de_cfg) for box, wcfg in zip(boxes, worker_cfgs)]

    best_w = min(range(m), key=lambda w: (results[w].best_value, w))
    trace = []
    for w, res in enumerate(results):
        for row in res.trace:
            row.worker = w
        trace.extend(res.trace)
    return RunResult(
        best_point=None
        if results[best_w].best_point is None
        else results[best_w].best_point.copy(),
        best_value=results[best_w].best_value,
        trace=trace,
        epidemic_count=sum(res.epidemic_count for res in results),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        config_echo=cfg,
    )


def trace_export(result: RunResult, path: str) -> None:
    """Write the per-generation incumbent trace as a plottable CSV. The
    `worker` column tells apart the rows of a `parallel_run`'s workers,
    which share generation numbers; a single run's rows are worker 0."""
    if not result.trace:
        raise ValueError("cannot export an empty trace")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "fobj_global", "epidemics", "elapsed_ms", "worker"])
        for row in result.trace:
            writer.writerow(
                [
                    row.generation,
                    f"{row.fobj_global:.12g}",
                    row.epidemics_so_far,
                    f"{row.elapsed_ms:.3f}",
                    row.worker,
                ]
            )
