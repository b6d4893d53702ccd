"""Reference implementations the tests check the package against.

Each is the plain, brute-force form of something the package does a
faster way: a stored center grid with a nearest-center scan, per-string
schema matching, the reflecting fold with masked passes, the DE burst
with an int64 partner decode and a fresh array per step, the Rosenbrock
formula as one expression, and readers that parse `harness.write_rows`
reports back into `ReportRow`s.
"""

import csv
import json

import numpy as np

from viralsearch.core import random_init
from viralsearch.harness import ReportRow
from viralsearch.local_search import _BLOCK, check_draw_range


def rosenbrock(x, y):
    """(1 - x)^2 + 100 (y - x^2)^2 as one numpy expression."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (1.0 - x) ** 2 + 100.0 * (y - x**2) ** 2


def draw_block(rng, n, d, cr, g):
    """`local_search._draw_block` decoded in int64 whatever the range:
    partners of shape (g, n, 3), a view of a (3, g, n) array, and the
    crossover masks of shape (g, n, d)."""
    i = np.arange(n)
    partners = np.empty((3, g, n), dtype=np.int64)
    r1, r2, r3 = partners
    draws = rng.integers(0, (n - 1) * (n - 2) * (n - 3) * d, size=(g, n))
    cross = rng.random((g, n, d)) < cr
    q = draws // d
    axis = np.subtract(draws, np.multiply(q, d, out=r1), out=draws)
    axis += np.arange(0, g * n * d, d).reshape(g, n)
    cross.reshape(-1)[axis] = True
    np.floor_divide(q, n - 3, out=draws)
    np.subtract(q, np.multiply(draws, n - 3, out=r3), out=r3)
    np.floor_divide(draws, n - 2, out=r1)
    np.subtract(draws, np.multiply(r1, n - 2, out=r2), out=r2)
    r1 += r1 >= i
    lo, hi = np.minimum(i, r1, out=draws), np.maximum(i, r1, out=q)
    r2 += r2 >= lo
    r2 += r2 >= hi
    r3 += r3 >= np.minimum(lo, r2)
    r3 += r3 >= np.minimum(np.maximum(lo, r2), hi)
    r3 += r3 >= np.maximum(hi, r2)
    return partners.transpose(1, 2, 0), cross


def de_optimize(objective, region, cfg, seed_point=None, t=0, *, rng, history=None):
    """`local_search.de_optimize` with `draw_block`'s int64 decode, a
    fresh gather, mutant and trial per generation, `np.where` for the
    crossover and flat clamping passes against limits tiled per
    coordinate."""
    n, d = cfg.pop_size, region.dim
    check_draw_range(n, d)
    pop = random_init(region, n, rng)
    if seed_point is not None:
        pop[0] = np.asarray(seed_point, dtype=float)
    values = objective.evaluate_many(t, pop)
    lb, ub = np.tile(region.lb, n), np.tile(region.ub, n)
    for start in range(0, cfg.generations, _BLOCK):
        block = draw_block(rng, n, d, 0.9, min(_BLOCK, cfg.generations - start))
        for partners, cross in zip(*block):
            r1, r2, r3 = pop.take(partners.T, 0)
            mutant = np.subtract(r2, r3, out=r2)
            mutant *= 0.8
            mutant += r1
            trial = np.where(cross, mutant, pop)
            flat = trial.reshape(-1)
            np.maximum(flat, lb, out=flat)
            np.minimum(flat, ub, out=flat)
            trial_values = objective.evaluate_many(t, trial)
            accept = trial_values <= values
            np.copyto(pop, trial, where=accept[:, None])
            np.copyto(values, trial_values, where=accept)
            if history is not None:
                history.append(float(values.min()))
    best = int(np.argmin(values))
    return pop[best].copy(), float(values[best])


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


def masked_fold(p, b):
    """`core.reflect_into_bounds` as masked passes: a copy of `p`, the
    reflection `(lb + lb) - p` written only where p < lb and `(ub + ub) - p`
    only where p > ub, then the same `np.mod` triangle wave for the
    coordinates still outside. Every coordinate is computed one way, so
    the result's bits, signed zeros included, do not depend on numpy's
    choice between equal operands."""
    p = np.asarray(p, dtype=float)
    out = p.copy(order="K")
    np.subtract(b.lb + b.lb, p, out=out, where=p < b.lb)
    np.subtract(b.ub + b.ub, p, out=out, where=p > b.ub)
    far = (out < b.lb) | (out > b.ub)
    if far.any():
        lb, ub, span, period = (
            np.broadcast_to(a, p.shape)[far] for a in (b.lb, b.ub, b.span, b.period)
        )
        y = np.mod(p[far] - lb, period)
        np.subtract(period, y, out=y, where=y > span)
        y += lb
        out[far] = np.minimum(y, ub, out=y)
    return out


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
