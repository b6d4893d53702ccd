"""Test objectives behind a name-indexed registry.

All raw functions are vectorized over numpy arrays. Registry objectives
always *minimize*: maximization problems are negated at the registry
boundary and their specs carry kind="max" so reports can flip the sign
back.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import Bounds, ConfigurationError, Objective

# Peak locations (one column per peak; rows are coordinates) and peak
# sharpness constants for the four-dimensional multi-peak landscape,
# read-only so that `_peak_planes`' cached copies stay equal to them.
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
SHEKEL_A.flags.writeable = SHEKEL_C.flags.writeable = False


def sphere(x) -> np.ndarray:
    """Sum of squared coordinates; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return (x**2).sum(axis=-1)


def rosenbrock(x, y) -> np.ndarray:
    """(1 - x)^2 + 100 (y - x^2)^2: a curved valley of near-minima with the
    single global minimum 0 at (1, 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (1.0 - x) ** 2 + 100.0 * (y - x**2) ** 2


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


def shekel(x) -> np.ndarray:
    """Multi-peak landscape S(x) = sum_i 1 / (c_i + sum_j (x_j - a_ji)^2).

    This is the quantity to MAXIMIZE: each column of `SHEKEL_A` is a peak
    of height 1/c_i, with c = `SHEKEL_C`, finite everywhere because c_i > 0.
    The m positive peak terms are added with `sum` over the peak axis, in
    another order than a sum over the last axis of an (..., m, d) tensor
    takes, so the two agree to (d + m)·eps relative, not bit for bit.
    """
    x = np.asarray(x, dtype=float)
    # a 0-d input is one coordinate, as `np.atleast_1d` reads it
    coords = x.shape[-1] if x.ndim else 1
    if coords != SHEKEL_A.shape[0]:
        raise ValueError(
            f"point has {coords} coordinates, peak matrix has "
            f"{SHEKEL_A.shape[0]} rows"
        )
    lead = x.shape[:-1]
    x = x.reshape(-1, x.shape[-1])
    # peak-major: one subtract against the (d, m, n) peak plane gives each
    # axis's differences, and row i of the (m, n) block adds up every
    # point's squared distance to peak i one axis at a time, so each
    # operation runs along n points whatever the layout of x
    a_plane, c_plane = _peak_planes(len(x))
    terms = np.subtract(x.T[:, None, :], a_plane)
    terms *= terms
    sq = terms[0]
    for term in terms[1:]:
        sq += term
    sq += c_plane
    np.reciprocal(sq, out=sq)
    return sq.sum(axis=0).reshape(lead)[()]


@lru_cache(maxsize=4)
def _peak_planes(n: int) -> tuple:
    """Read-only planes of the peak coordinates, (d, m, n), and of c, (m, n), for
    n points, in one block: a contiguous plane subtracts faster than a stride-0
    column."""
    d, m = SHEKEL_A.shape
    planes = np.empty((d + 1, m, n))
    planes[:d] = SHEKEL_A[:, :, None]
    planes[d] = SHEKEL_C[:, None]
    planes.flags.writeable = False
    return planes[:d], planes[d]


@dataclass(frozen=True)
class Optimum:
    point: tuple
    value: float
    kind: str  # "min" or "max"


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named objective with its default search box and known optimum;
    its `name` is the objective's and its `arity` the box's dimension."""

    bounds: Bounds
    objective: Objective
    known_optimum: Optional[Optimum] = None

    @property
    def name(self) -> str:
        return self.objective.name

    @property
    def arity(self) -> int:
        return self.bounds.dim


def _sphere_spec(dim: int = 2) -> BenchmarkSpec:
    obj = Objective(lambda t, p: sphere(p), arity=dim, name="sphere")
    return BenchmarkSpec(
        bounds=Bounds(np.full(dim, -3.0), np.full(dim, 3.0)),
        objective=obj,
        known_optimum=Optimum(tuple([0.0] * dim), 0.0, "min"),
    )


def _rosenbrock_spec() -> BenchmarkSpec:
    obj = Objective(lambda t, p: rosenbrock(p[:, 0], p[:, 1]), arity=2, name="rosenbrock")
    return BenchmarkSpec(
        bounds=Bounds([-3.0, -3.0], [3.0, 3.0]),
        objective=obj,
        known_optimum=Optimum((1.0, 1.0), 0.0, "min"),
    )


def _schaffer_spec() -> BenchmarkSpec:
    obj = Objective(lambda t, p: schaffer(p[:, 0], p[:, 1]), arity=2, name="schaffer")
    return BenchmarkSpec(
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
        bounds=Bounds([-6.0, -6.0], [6.0, 6.0]),
        objective=obj,
        known_optimum=Optimum((-2.5, -2.5), -2.0, "min"),
    )


def _shekel_spec() -> BenchmarkSpec:
    obj = Objective(lambda t, p: -shekel(p), arity=4, name="shekel")
    # the tallest peak sits near column 0 of SHEKEL_A, (4, 4, 4, 4), but the
    # other peaks pull the maximum off it; this is a local refinement from
    # there, rounded to 6 decimals (within 1e-11 of the refined value)
    peak = (4.00074, 4.000594, 4.00074, 3.999495)
    return BenchmarkSpec(
        bounds=Bounds(np.zeros(4), np.full(4, 10.0)),
        objective=obj,
        known_optimum=Optimum(peak, float(shekel(np.array(peak))), "max"),
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
    (e.g. ``make_benchmark("two_well", tau=500.0)``). An unknown name or
    parameter raises `ConfigurationError` before anything is built."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; valid names: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    valid = inspect.signature(builder).parameters
    unknown = [key for key in params if key not in valid]
    if unknown:
        raise ConfigurationError(
            f"unknown parameters for benchmark {name!r}: {', '.join(unknown)}; "
            f"valid parameters: {', '.join(valid) or 'none'}"
        )
    return builder(**params)
