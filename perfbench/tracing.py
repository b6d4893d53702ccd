"""Evaluation counting and per-layer tracing, both from outside the program.

The untraced benchmark only counts objective rows, by wrapping the
objective function it hands to the program. The traced mode also replaces
public functions on the module attributes the program looks up at call
time (for example `engine.move_random`) with timed wrappers. Tallies are
kept per thread, and a new tally starts at every engine run, so the two
workers of `parallel_run` are attributed separately.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The spans an engine run or a schema experiment spends its time in. Only
# count_matches also runs inside expected_count_bound; attributed_s takes
# that part out once.
TOP_SPANS = (
    "engine.scout_eval_s",
    "engine.burst_s",
    "engine.move_random_s",
    "engine.rebalance_s",
    "schema_lab.ga_step_s",
    "schema_lab.bound_s",
    "schema_lab.count_s",
)


class Tally:
    """What one thread did since its current engine run started."""

    def __init__(self):
        self.rows = 0
        self.rows_by_generation = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self.interval = None  # (start, end) of the run this tally belongs to
        self.config = None  # VSConfig of that run, when it is a worker run
        self.de_depth = 0
        self.bound_depth = 0
        self.capture_trigger = False
        self.trigger_value = None

    def attributed_s(self) -> float:
        spans = sum(self.seconds[name] for name in TOP_SPANS)
        return spans - self.seconds["schema_lab.count_in_bound_s"]


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Recorder:
    """Hands out counting wrappers and, when `traced`, timed ones."""

    def __init__(self):
        self.traced = False
        self.probe = None  # a calibrate.SpeedProbe to poll from the wrappers
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget all tallies; called before every operation."""
        self._local = threading.local()
        self.tallies = []

    def tally(self) -> Tally:
        current = getattr(self._local, "tally", None)
        return current if current is not None else self._new_tally()

    def _new_tally(self) -> Tally:
        tally = Tally()
        with self._lock:
            self.tallies.append(tally)
        self._local.tally = tally
        return tally

    # --- wrappers the untraced benchmark uses too -----------------------

    def objective(self, fn):
        """Wrap an objective `fn(t, points)`: count rows per generation, and
        when traced, time them as scout or burst evaluations."""

        def counted(t, points):
            tally = self.tally()
            tally.rows += len(points)
            tally.rows_by_generation[t] += len(points)
            if not self.traced:
                if self.probe is not None:
                    self.probe.poll_inside()
                return fn(t, points)
            start = time.perf_counter()
            values = fn(t, points)
            elapsed = time.perf_counter() - start
            if tally.de_depth:
                tally.seconds["local_search.burst_eval_s"] += elapsed
                tally.counts["local_search.burst_evals"] += len(points)
                if tally.capture_trigger:
                    # de_optimize puts the seed point (the trigger) in row 0
                    # of its first batch
                    tally.trigger_value = float(values[0])
                    tally.capture_trigger = False
            else:
                tally.seconds["engine.scout_eval_s"] += elapsed
                tally.counts["engine.scout_evals"] += len(points)
            return values

        return counted

    def fitness(self, fn):
        """Wrap a GA fitness function `fn(members)` to count its rows."""

        def counted(members):
            tally = self.tally()
            tally.rows += len(members)
            if self.traced:
                tally.counts["schema_lab.fitness_rows"] += len(members)
            elif self.probe is not None:
                self.probe.poll_inside()
            return fn(members)

        return counted

    def root(self, call):
        """Run `call()` as one engine run or experiment in this thread."""
        if not self.traced:
            return call()
        tally = self._new_tally()
        start = time.perf_counter()
        try:
            return call()
        finally:
            tally.interval = (start, time.perf_counter())

    # --- traced-only wrappers -------------------------------------------

    def _timed(self, fn, seconds_name, count_name=None):
        def wrapped(*args, **kwargs):
            tally = self.tally()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally.seconds[seconds_name] += time.perf_counter() - start
                if count_name:
                    tally.counts[count_name] += 1

        return wrapped

    def _de(self, fn):
        def wrapped(*args, **kwargs):
            tally = self.tally()
            tally.de_depth += 1
            tally.capture_trigger = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally.seconds["local_search.de_s"] += time.perf_counter() - start
                tally.de_depth -= 1
                tally.capture_trigger = False

        return wrapped

    def _burst(self, fn):
        def wrapped(*args, **kwargs):
            tally = self.tally()
            tally.trigger_value = None
            start = time.perf_counter()
            try:
                point, value = fn(*args, **kwargs)
            finally:
                tally.seconds["engine.burst_s"] += time.perf_counter() - start
                tally.counts["engine.bursts"] += 1
            if tally.trigger_value is not None and value < tally.trigger_value:
                tally.counts["engine.useful_bursts"] += 1
            return point, value

        return wrapped

    def _worker(self, fn):
        def wrapped(objective, b, cfg, *args, **kwargs):
            tally = self._new_tally()
            tally.config = cfg
            start = time.perf_counter()
            try:
                return fn(objective, b, cfg, *args, **kwargs)
            finally:
                end = time.perf_counter()
                tally.interval = (start, end)
                tally.seconds["harness.worker_run_s"] += end - start

        return wrapped

    def _bound(self, fn):
        def wrapped(*args, **kwargs):
            tally = self.tally()
            tally.bound_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally.seconds["schema_lab.bound_s"] += time.perf_counter() - start
                tally.bound_depth -= 1

        return wrapped

    def _count_matches(self, fn):
        def wrapped(*args, **kwargs):
            tally = self.tally()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tally.seconds["schema_lab.count_s"] += elapsed
                if tally.bound_depth:
                    tally.seconds["schema_lab.count_in_bound_s"] += elapsed

        return wrapped

    @contextmanager
    def installed(self):
        """Trace the program's layers while the block runs."""
        from viralsearch import engine, harness, schema_lab

        patches = [
            (engine, "move_random", self._timed(engine.move_random, "engine.move_random_s")),
            (engine, "reflect_into_bounds", self._timed(engine.reflect_into_bounds, "core.fold_s")),
            (engine, "rebalance", self._timed(engine.rebalance, "engine.rebalance_s", "engine.rebalance_calls")),
            (engine, "trigger_epidemic", self._burst(engine.trigger_epidemic)),
            (engine, "de_optimize", self._de(engine.de_optimize)),
            (harness, "run", self._worker(harness.run)),
            (schema_lab, "classic_ga_step", self._timed(schema_lab.classic_ga_step, "schema_lab.ga_step_s", "schema_lab.ga_steps")),
            (schema_lab, "expected_count_bound", self._bound(schema_lab.expected_count_bound)),
            (schema_lab, "count_matches", self._count_matches(schema_lab.count_matches)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        self.traced = True
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)
            self.traced = False

    # --- reading the tallies of one operation -----------------------------

    def rows_by_generation(self) -> Counter:
        merged = Counter()
        for tally in self.tallies:
            merged.update(tally.rows_by_generation)
        return merged

    def rows(self) -> int:
        return sum(tally.rows for tally in self.tallies)

    def unattributed_s(self, wall_s: float) -> float:
        """Thread time no layer span covers: each run's time outside its
        spans, plus the operation's wall time outside every run."""
        runs = [tally for tally in self.tallies if tally.interval is not None]
        inside = sum(t.interval[1] - t.interval[0] - t.attributed_s() for t in runs)
        return inside + wall_s - _union_length([t.interval for t in runs])
