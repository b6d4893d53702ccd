"""Geometry, population initializers, and randomness primitives.

Everything in this module is deterministic given an explicit random
generator; no function touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# A point is a 1-D float vector with one coordinate per parameter; a
# population is a 2-D float array with one point per row.
Point = np.ndarray
Population = np.ndarray
RngStream = np.random.Generator
_FLOAT64 = np.dtype(np.float64)


class ViralSearchError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(ViralSearchError):
    """Invalid parameter values or malformed experiment definitions."""


class EvaluationError(ViralSearchError):
    """The objective returned NaN or -inf for some point, or not one value
    per point.

    +inf stays legal: it is how an objective marks an infeasible point.
    """


def check_counts(minimum: int, **counts) -> None:
    """Reject, by name, any of the `counts` that is not a Python or numpy
    integer of at least `minimum`: numpy's draws and `range` take no float
    counts, and a `bool` is a flag, not a count."""
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ConfigurationError(f"{name} must be an integer, got {v!r}")
        if v < minimum:
            least = "non-negative" if minimum == 0 else f">= {minimum}"
            raise ConfigurationError(f"{name} must be {least}, got {v}")


def make_rng(seed: int) -> RngStream:
    """Create a seeded generator; equal seeds yield identical streams."""
    check_counts(0, seed=seed)
    return np.random.default_rng(seed)


def child_seed(parent_seed: int, index: int) -> int:
    """Derive a worker seed from a parent seed.

    Spawn keys keep sibling streams statistically independent, so the
    workers of one decomposition never share a generator.
    """
    check_counts(0, parent_seed=parent_seed, index=index)
    seq = np.random.SeedSequence(parent_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box: per-axis lower and upper limits of the search space.

    `lb`, `ub`, `span` and `period` (2·span, the reflecting fold's period)
    are read-only arrays the box owns, as are the doubled walls `lb + lb`
    and `ub + ub` the fold reflects across: it copies the limits it is
    given, so a caller changing its own arrays later leaves the box as it
    was checked. Limits whose span, period or doubled walls overflow are
    rejected: the fold would return NaN past them."""

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
        with np.errstate(over="ignore"):
            span = ub - lb
            period, lb2, ub2 = 2.0 * span, lb + lb, ub + ub
        if not all(np.isfinite(a).all() for a in (span, period, lb2, ub2)):
            raise ConfigurationError(
                "bounds too wide: the span, twice the span, lb + lb and ub + ub "
                "must all be finite"
            )
        for name, value in (("lb", lb), ("ub", ub), ("_span", span), ("_period", period),
                            ("_lb2", lb2), ("_ub2", ub2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        # only a wall at zero makes the fold's signed zeros ambiguous
        object.__setattr__(self, "_zero_wall", not (lb.all() and ub.all()))

    @property
    def dim(self) -> int:
        return self.lb.size

    @property
    def span(self) -> np.ndarray:
        return self._span

    @property
    def period(self) -> np.ndarray:
        return self._period

    def __eq__(self, other):
        # the dataclass default compares (lb, ub) as tuples, which asks numpy
        # for the truth value of a whole array once a box has two axes
        if not isinstance(other, Bounds):
            return NotImplemented
        return bool(np.array_equal(self.lb, other.lb) and np.array_equal(self.ub, other.ub))

    def __hash__(self):
        # agrees with __eq__: -0.0 and 0.0 compare and hash alike
        return hash((tuple(self.lb.tolist()), tuple(self.ub.tolist())))

    def __reduce__(self):
        # rebuilt through __post_init__, so a copied or unpickled box owns
        # read-only arrays too
        return (Bounds, (self.lb, self.ub))

    def contains(self, points: np.ndarray) -> bool:
        """True when every row of `points` lies inside the box."""
        p = np.asarray(points, dtype=float)
        return bool(((p >= self.lb) & (p <= self.ub)).all())


def _checked(p: np.ndarray, b: Bounds) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != b.dim:
        raise ValueError(f"point has {p.shape[-1]} coordinates, bounds have {b.dim}")
    return p


def reflect_into_bounds(p: np.ndarray, b: Bounds) -> np.ndarray:
    """Fold coordinates back across violated walls, as if reflecting
    repeatedly until inside.

    A coordinate with lb <= p <= ub comes back as `p` itself, signed zeros
    included. One below `lb` comes back as `(lb + lb) - p`, one above `ub`
    as `(ub + ub) - p`: the exact reflection, rounded once, so within an
    ulp of it and inside the box. Only where that is still outside, more
    than a span past the wall, does the closed-form triangle wave run, on
    those inputs alone: `lb + np.mod(p - lb, period)` folded at `span`,
    whose roundings of `p - lb` and of the period can leave it up to
    8·eps times the largest of |p|, |lb| and |ub| from the exact
    reflection. The result keeps the memory layout of `p` and never
    writes to `p`.

    The first reflection is two unmasked passes, `max((lb + lb) - p, p)`
    and then its `min` with `(ub + ub) - p`: rounding is monotone, so each
    picks the reflection past its own wall and `p` elsewhere. On a wall
    the two operands are equal, and numpy's vector loop and scalar tail
    pick opposite ones, which differ in sign on a zero wall. So when the
    box has a zero wall and some result is zero, `p` is copied back
    wherever the result equals it, which is exactly the coordinates
    inside the box; elsewhere equal operands have equal bits.
    """
    p = _checked(p, b)
    out = np.subtract(b._lb2, p)
    np.maximum(out, p, out=out)
    np.minimum(out, np.subtract(b._ub2, p), out=out)
    if b._zero_wall and not np.logical_and.reduce(out, axis=None):
        np.copyto(out, p, where=out == p)
    far = out < b.lb
    far |= out > b.ub
    if np.logical_or.reduce(far, axis=None):
        lb, ub, span, period = (
            np.broadcast_to(a, p.shape)[far] for a in (b.lb, b.ub, b.span, b.period)
        )
        y = np.mod(p[far] - lb, period)
        np.subtract(period, y, out=y, where=y > span)
        # y >= 0, so lb + y >= lb; but lb + span can round past ub, as
        # (0.2 - (-0.1)) + (-0.1) == 0.20000000000000004 on [-0.1, 0.2]
        y += lb
        out[far] = np.minimum(y, ub, out=y)
    return out


def random_init(b: Bounds, n: int, rng: RngStream) -> Population:
    """A cloud of `n` independent uniform points."""
    check_counts(1, n=n)
    return rng.uniform(b.lb, b.ub, size=(n, b.dim))


def stratified_init(b: Bounds, n: int, rng: RngStream) -> Population:
    """Latin-hypercube placement: `n` equal strata per axis, one member per
    stratum on each axis, jittered uniformly within its stratum."""
    check_counts(1, n=n)
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
        check_counts(1, arity=arity)
        self.fn = fn
        self.arity = arity
        self.time_varying = time_varying
        self.name = name

    def evaluate_many(self, t: int, points: np.ndarray) -> np.ndarray:
        # a float64 ndarray, as the engine always passes, needs no conversion
        if type(points) is not np.ndarray or points.dtype is not _FLOAT64:
            points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.arity:
            raise ValueError(
                f"expected points of shape (n, {self.arity}), got {points.shape}"
            )
        n = points.shape[0]
        values = self.fn(t, points)
        if type(values) is not np.ndarray or values.dtype is not _FLOAT64:
            values = np.asarray(values, dtype=float)
        if values.size != n:
            raise EvaluationError(
                f"objective returned {values.size} values for {n} points at "
                f"generation {t}; it must return one value per point"
            )
        values = values.reshape(n)
        # one reduction screens the batch: the minimum is NaN when any value
        # is NaN, and -inf when any is -inf; the per-row mask is built only
        # to name the first bad point
        if n and not np.minimum.reduce(values) > -np.inf:
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
