"""Reference implementations the tests check the package against.

Each is the plain, brute-force form of something the package does a
faster way: a stored center grid with a nearest-center scan, per-string
schema matching, an engine generation that makes every draw in line, and
readers that parse `harness.write_rows` reports back into `ReportRow`s.
"""

import csv
import json

import numpy as np

from viralsearch import engine
from viralsearch.core import make_rng
from viralsearch.harness import ReportRow


def make_centers(b, centers_per_axis: int) -> np.ndarray:
    """Full Cartesian grid of reference centers, one row per center.

    Each axis is cut into `centers_per_axis` equal slices and centers sit
    at slice midpoints, so the grid has centers_per_axis ** dim points in C
    order (the last axis varies fastest)."""
    marks = [
        b.lb[j] + (np.arange(centers_per_axis) + 0.5) * (b.span[j] / centers_per_axis)
        for j in range(b.dim)
    ]
    grid = np.meshgrid(*marks, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def nearest_center(p, centers: np.ndarray) -> int:
    """Index of the Euclidean-nearest center; ties go to the lowest index."""
    if len(centers) == 0:
        raise ValueError("centers list is empty")
    d2 = ((centers - np.asarray(p, dtype=float)) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def serial_step(state, objective, b, cfg, rng):
    """One engine generation with every draw from `rng` made in line, in
    the serial order: the generation's bursts, then the walk, then the
    rebalance. Appends the incumbent's value to `state.trace`."""
    t = state.generation
    if objective.time_varying and state.best_individual_global is not None:
        state.fobj_global = objective(t, state.best_individual_global)
    values = objective.evaluate_many(t, state.population)
    for i, value in enumerate(values):
        if value < np.inf and value <= state.fobj_global - cfg.trigger_tolerance:
            point, best = engine.trigger_epidemic(
                state.population[i].copy(), b, cfg, objective, t, rng
            )
            state.epidemic_count += 1
            if best <= state.fobj_global:
                state.fobj_global, state.best_individual_global = best, point
    assert state.walk_draw is None, "a serial state never hands a draw off"
    engine.move_random(state, b, cfg, rng)
    if (state.has_centers() and cfg.rebalance_fraction > 0 and t > 0
            and t % cfg.rebalance_every == 0):
        engine.rebalance(state, b, cfg, rng)
    state.trace.append(state.fobj_global)
    state.generation = t + 1
    return state


def serial_run(objective, b, cfg):
    """The final state of `engine.run`'s generations made by `serial_step`;
    its `trace` holds the incumbent's value after each generation."""
    rng = make_rng(cfg.seed)
    state = engine.init_state(b, cfg, rng)
    for _ in range(cfg.n_generations):
        serial_step(state, objective, b, cfg, rng)
    return state


def matches(pattern: str, candidate) -> bool:
    """True when the bit-string `candidate` (a string of 0/1 characters or
    a sequence of 0/1 numbers) agrees with every fixed position of the
    schema `pattern`."""
    if isinstance(candidate, str):
        candidate = [int(ch) for ch in candidate]
    bits = np.asarray(candidate).tolist()
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("candidate must contain only 0/1 bits")
    if len(bits) != len(pattern):
        raise ValueError(
            f"candidate has {len(bits)} bits, schema has {len(pattern)} positions"
        )
    return all(ch == "*" or int(ch) == bit for ch, bit in zip(pattern, bits))


def read_rows_json(path: str) -> list:
    """The rows of a JSON report, each point as a tuple."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = [ReportRow(**entry) for entry in payload["rows"]]
    for row in rows:
        if row.point is not None:
            row.point = tuple(row.point)
    return rows


def read_rows_csv(path: str) -> list:
    """The rows of a CSV report: sweep columns up to the first coordinate
    column ("x" or "x1"), then the coordinates, the value, and the tail
    columns time_s, seed, kind and status."""
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
