"""Geometry, population initializers, and randomness primitives.

Everything in this module is deterministic given an explicit random
generator; no function touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# A point is a 1-D float vector with one coordinate per parameter; a
# population is a 2-D float array with one point per row.
Point = np.ndarray
Population = np.ndarray
RngStream = np.random.Generator


class ViralSearchError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(ViralSearchError):
    """Invalid parameter values or malformed experiment definitions."""


class EvaluationError(ViralSearchError):
    """The objective returned NaN or -inf for some point, or not one value
    per point.

    +inf stays legal: it is how an objective marks an infeasible point.
    """


def make_rng(seed: int) -> RngStream:
    """Create a seeded generator; equal seeds yield identical streams."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def child_seed(parent_seed: int, index: int) -> int:
    """Derive a worker seed from a parent seed.

    Spawn keys keep sibling streams statistically independent, so the
    workers of one decomposition never share a generator.
    """
    seq = np.random.SeedSequence(parent_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box: per-axis lower and upper limits of the search space.

    `lb`, `ub` and `span` are read-only arrays the box owns: it copies the
    limits it is given, so a caller changing its own arrays later leaves
    the box as it was checked."""

    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        lb = np.atleast_1d(np.array(self.lb, dtype=float))
        ub = np.atleast_1d(np.array(self.ub, dtype=float))
        if lb.ndim != 1 or ub.ndim != 1 or lb.shape != ub.shape:
            raise ConfigurationError("lb and ub must be 1-D vectors of equal length")
        if lb.size < 1:
            raise ConfigurationError("bounds need at least one axis")
        if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
            raise ConfigurationError("bounds must be finite")
        if not (lb < ub).all():
            bad = int(np.argmin(ub - lb))
            raise ConfigurationError(
                f"lb must be strictly below ub on every axis; axis {bad} "
                f"has lb={lb[bad]}, ub={ub[bad]}"
            )
        span = ub - lb
        for name, value in (("lb", lb), ("ub", ub), ("_span", span)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.lb.size

    @property
    def span(self) -> np.ndarray:
        return self._span

    def __eq__(self, other):
        # the dataclass default compares (lb, ub) as tuples, which asks numpy
        # for the truth value of a whole array once a box has two axes
        if not isinstance(other, Bounds):
            return NotImplemented
        return bool(np.array_equal(self.lb, other.lb) and np.array_equal(self.ub, other.ub))

    def __reduce__(self):
        # rebuilt through __post_init__, so a copied or unpickled box owns
        # read-only arrays too
        return (Bounds, (self.lb, self.ub))

    def contains(self, points: np.ndarray, atol: float = 0.0) -> bool:
        """True when every row of `points` lies inside the box."""
        p = np.asarray(points, dtype=float)
        return bool(((p >= self.lb - atol) & (p <= self.ub + atol)).all())


def _checked(p: np.ndarray, b: Bounds) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != b.dim:
        raise ValueError(f"point has {p.shape[-1]} coordinates, bounds have {b.dim}")
    return p


def clamp_to_bounds(p: np.ndarray, b: Bounds) -> np.ndarray:
    """Project onto the box: each coordinate saturates at the nearer wall.

    Accepts a single point or a stack of points; idempotent. For a zero
    coordinate on a zero wall of the other sign, `np.clip` may return
    either zero, depending on the array's shape and memory layout.
    """
    return np.clip(_checked(p, b), b.lb, b.ub)


def reflect_into_bounds(p: np.ndarray, b: Bounds) -> np.ndarray:
    """Fold coordinates back across violated walls.

    The closed-form triangle-wave fold is exact for any overshoot, which
    is equivalent to reflecting repeatedly until inside. An interior
    coordinate comes back as `lb + (p - lb)`: `p` itself on a zero wall,
    but off one the round trip can move it by an ulp (0.1 on [-3, 3]
    returns 0.10000000000000009). `np.mod` runs only when some coordinate
    lies 2·span or more from `lb`. The result keeps the memory layout of
    `p`, so a Fortran-ordered stack folds along whole axes.
    """
    p = _checked(p, b)
    span = b.span
    period = 2.0 * span
    y = p - b.lb
    if (np.abs(y) < period).all():
        # what np.mod returns for |y| < period: y, or y + period below zero;
        # it returns +0.0 for y = -0.0, which arises only from p = -0.0 on
        # lb = +0.0, and adding lb below makes that +0.0 too
        np.add(y, period, out=y, where=y < 0)
    else:
        y = np.mod(y, period)
    np.subtract(period, y, out=y, where=y > span)
    # y >= 0, so lb + y >= lb; but lb + span can round past ub, as
    # (0.2 - (-0.1)) + (-0.1) == 0.20000000000000004 on [-0.1, 0.2]
    y += b.lb
    return np.minimum(y, b.ub, out=y)


def uniform_sample(b: Bounds, rng: RngStream) -> Point:
    """One point with each coordinate uniform on its axis interval."""
    return rng.uniform(b.lb, b.ub)


def random_init(b: Bounds, n: int, rng: RngStream) -> Population:
    """A cloud of `n` independent uniform points."""
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    return rng.uniform(b.lb, b.ub, size=(n, b.dim))


def stratified_init(b: Bounds, n: int, rng: RngStream) -> Population:
    """Latin-hypercube placement: `n` equal strata per axis, one member per
    stratum on each axis, jittered uniformly within its stratum."""
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    cells = np.empty((n, b.dim))
    for j in range(b.dim):
        cells[:, j] = rng.permutation(n)
    jitter = rng.random((n, b.dim))
    return b.lb + (cells + jitter) * (b.span / n)


class Objective:
    """A deterministic scalar field over parameter space.

    `fn(t, points)` receives the generation counter and a (n, arity)
    array and must return n values. The array may be Fortran-ordered (the
    engine keeps its scouts axis-major), so index it by axis and do not
    rely on its raw buffer order. Time-invariant objectives simply ignore
    `t`.
    """

    def __init__(
        self,
        fn: Callable[[int, np.ndarray], np.ndarray],
        arity: int,
        time_varying: bool = False,
        name: str = "",
    ):
        if arity < 1:
            raise ConfigurationError(f"arity must be >= 1, got {arity}")
        self.fn = fn
        self.arity = arity
        self.time_varying = time_varying
        self.name = name

    def evaluate_many(self, t: int, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.arity:
            raise ValueError(
                f"expected points of shape (n, {self.arity}), got {points.shape}"
            )
        n = points.shape[0]
        values = np.asarray(self.fn(t, points), dtype=float)
        if values.size != n:
            raise EvaluationError(
                f"objective returned {values.size} values for {n} points at "
                f"generation {t}; it must return one value per point"
            )
        values = values.reshape(n)
        # one reduction screens the batch: the minimum is NaN when any value
        # is NaN, and -inf when any is -inf; the per-row mask is built only
        # to name the first bad point
        if not values.min(initial=np.inf) > -np.inf:
            usable = values > -np.inf  # false for NaN and -inf alike
            i = int(np.argmin(usable))
            kind = "NaN" if np.isnan(values[i]) else "-inf"
            raise EvaluationError(
                f"objective returned {kind} at generation {t} for point "
                f"{points[i].tolist()}"
            )
        return values

    def __call__(self, t: int, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=float)
        return float(self.evaluate_many(t, point[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover
        tag = "time-varying" if self.time_varying else "static"
        return f"Objective({self.name or self.fn!r}, arity={self.arity}, {tag})"
