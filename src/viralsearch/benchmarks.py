"""Test objectives behind a name-indexed registry.

All raw functions are vectorized over numpy arrays. Registry objectives
always *minimize*: maximization problems are negated at the registry
boundary and their specs carry kind="max" so reports can flip the sign
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Bounds, ConfigurationError, Objective

# Peak locations (one column per peak; rows are coordinates) and peak
# sharpness constants for the four-dimensional multi-peak landscape.
SHEKEL_A = np.array(
    [
        [4, 1, 8, 6, 3, 2, 5, 8, 6, 7],
        [4, 1, 8, 6, 7, 9, 5, 1, 2, 3.6],
        [4, 1, 8, 6, 3, 2, 5, 8, 6, 7],
        [4, 1, 8, 6, 7, 9, 3, 1, 2, 3],
    ],
    dtype=float,
)
SHEKEL_C = np.array([1, 2, 2, 4, 4, 6, 3, 7, 5, 5], dtype=float) / 10.0


def sphere(x) -> np.ndarray:
    """Sum of squared coordinates; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return (x**2).sum(axis=-1)


def rosenbrock(x, y, a: float = 1.0, b: float = 100.0) -> np.ndarray:
    """(a - x)^2 + b (y - x^2)^2: a curved valley of near-minima with the
    single global minimum 0 at (a, a^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (a - x) ** 2 + b * (y - x**2) ** 2


def schaffer(x, y) -> np.ndarray:
    """0.5 + (sin^2(x^2 - y^2) - 0.5) / (1 + 0.001 (x^2 + y^2)).

    Oscillatory with many local minima; the single global minimum is 0
    at the origin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 + (np.sin(x**2 - y**2) ** 2 - 0.5) / (1.0 + 0.001 * (x**2 + y**2))


def two_well(t, x, y, tau: float = 1000.0) -> np.ndarray:
    """Two Gaussian wells, one fixed and one deepening with time.

    f(t, x, y) = -2 exp(-((x+2.5)^2 + (y+2.5)^2))
                 - (t/tau) exp(-((x-2)^2 + (y-2)^2))

    The well at (-2.5, -2.5) has constant depth 2; the well at (2, 2)
    has depth t/tau and overtakes it for t > 2*tau.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    first = -2.0 * np.exp(-((x + 2.5) ** 2 + (y + 2.5) ** 2))
    second = -(t / tau) * np.exp(-((x - 2.0) ** 2 + (y - 2.0) ** 2))
    return first + second


def shekel(x, a_matrix: np.ndarray = SHEKEL_A, c: np.ndarray = SHEKEL_C) -> np.ndarray:
    """Multi-peak landscape S(x) = sum_i 1 / (c_i + sum_j (x_j - a_ji)^2).

    This is the quantity to MAXIMIZE: each column of `a_matrix` is a peak
    of height 1/c_i, finite everywhere because c_i > 0.
    """
    x = np.asarray(x, dtype=float)
    a_matrix = np.asarray(a_matrix, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape[-1] != a_matrix.shape[0]:
        raise ValueError(
            f"point has {x.shape[-1]} coordinates, peak matrix has "
            f"{a_matrix.shape[0]} rows"
        )
    if a_matrix.shape[1] != c.size:
        raise ValueError("peak matrix columns and c lengths differ")
    lead = x.shape[:-1]
    x = x.reshape(-1, x.shape[-1])
    # peak-major: row i of the (m, n) block holds every point's squared
    # distance to peak i, accumulated one axis at a time, so each operation
    # runs along n points whatever the layout of x; for d < 8 this adds the
    # same terms in the same order as numpy's sum over the (..., m, d)
    # tensor's last axis, bit for bit (from 8 terms on, numpy sums
    # pairwise), and `_pairwise_rows` adds the m peak terms as numpy would
    sq = np.empty((c.size, len(x)))
    d = np.empty_like(sq)
    np.subtract(x[:, 0], a_matrix[0, :, None], out=sq)
    sq *= sq
    for j in range(1, a_matrix.shape[0]):
        np.subtract(x[:, j], a_matrix[j, :, None], out=d)
        d *= d
        sq += d
    sq += c[:, None]
    np.reciprocal(sq, out=sq)
    return _pairwise_rows(sq).reshape(lead)[()]


def _pairwise_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of an (m, n) array, adding in the order numpy's
    pairwise summation adds m contiguous terms: sequential below 8 terms,
    8 running lanes up to 128, and halves split at a multiple of 8 beyond.
    So it equals `rows.T.sum(-1)` bit for bit, up to the sign of a zero
    sum. Overwrites `rows`."""
    m = len(rows)
    if m < 8:
        res = np.zeros(rows.shape[1])
        for row in rows:
            res += row
        return res
    if m <= 128:
        r = rows[:8]
        full = m - m % 8
        for i in range(8, full, 8):
            r += rows[i : i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place
        r[::2] += r[1::2]
        r[::4] += r[2::4]
        res = r[0]
        res += r[4]
        for row in rows[full:]:
            res += row
        return res
    half = m // 2
    half -= half % 8
    return _pairwise_rows(rows[:half]) + _pairwise_rows(rows[half:])


@dataclass(frozen=True)
class Optimum:
    point: tuple
    value: float
    kind: str  # "min" or "max"


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named objective with its default search box and known optimum."""

    name: str
    arity: int
    bounds: Bounds
    objective: Objective
    known_optimum: Optional[Optimum] = None
    parameters: dict = field(default_factory=dict)


def _sphere_spec(dim: int = 2) -> BenchmarkSpec:
    obj = Objective(lambda t, p: sphere(p), arity=dim, name="sphere")
    return BenchmarkSpec(
        name="sphere",
        arity=dim,
        bounds=Bounds(np.full(dim, -3.0), np.full(dim, 3.0)),
        objective=obj,
        known_optimum=Optimum(tuple([0.0] * dim), 0.0, "min"),
        parameters={"dim": dim},
    )


def _rosenbrock_spec(a: float = 1.0, b: float = 100.0) -> BenchmarkSpec:
    obj = Objective(
        lambda t, p: rosenbrock(p[:, 0], p[:, 1], a=a, b=b),
        arity=2,
        name="rosenbrock",
    )
    return BenchmarkSpec(
        name="rosenbrock",
        arity=2,
        bounds=Bounds([-3.0, -3.0], [3.0, 3.0]),
        objective=obj,
        known_optimum=Optimum((a, a * a), 0.0, "min"),
        parameters={"a": a, "b": b},
    )


def _schaffer_spec() -> BenchmarkSpec:
    obj = Objective(lambda t, p: schaffer(p[:, 0], p[:, 1]), arity=2, name="schaffer")
    return BenchmarkSpec(
        name="schaffer",
        arity=2,
        bounds=Bounds([-3.0, -3.0], [3.0, 3.0]),
        objective=obj,
        known_optimum=Optimum((0.0, 0.0), 0.0, "min"),
    )


def _two_well_spec(tau: float = 1000.0) -> BenchmarkSpec:
    obj = Objective(
        lambda t, p: two_well(t, p[:, 0], p[:, 1], tau=tau),
        arity=2,
        time_varying=True,
        name="two_well",
    )
    # the recorded optimum is the t=0 landscape; the (2, 2) well is
    # deeper once t > 2*tau
    return BenchmarkSpec(
        name="two_well",
        arity=2,
        bounds=Bounds([-6.0, -6.0], [6.0, 6.0]),
        objective=obj,
        known_optimum=Optimum((-2.5, -2.5), -2.0, "min"),
        parameters={"tau": tau},
    )


def _shekel_spec() -> BenchmarkSpec:
    obj = Objective(lambda t, p: -shekel(p), arity=4, name="shekel")
    # the tallest peak sits near column 0 of SHEKEL_A, (4, 4, 4, 4), but the
    # other peaks pull the maximum off it; this is a local refinement from
    # there, rounded to 6 decimals (within 1e-11 of the refined value)
    peak = (4.00074, 4.000594, 4.00074, 3.999495)
    return BenchmarkSpec(
        name="shekel",
        arity=4,
        bounds=Bounds(np.zeros(4), np.full(4, 10.0)),
        objective=obj,
        known_optimum=Optimum(peak, float(shekel(np.array(peak))), "max"),
        parameters={"m": SHEKEL_A.shape[1]},
    )


_BUILDERS = {
    "sphere": _sphere_spec,
    "rosenbrock": _rosenbrock_spec,
    "schaffer": _schaffer_spec,
    "two_well": _two_well_spec,
    "shekel": _shekel_spec,
}

BENCHMARK_NAMES = tuple(sorted(_BUILDERS))


def make_benchmark(name: str, **params) -> BenchmarkSpec:
    """Build a benchmark spec, optionally overriding its constants
    (e.g. ``make_benchmark("two_well", tau=500.0)``)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; valid names: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return builder(**params)
