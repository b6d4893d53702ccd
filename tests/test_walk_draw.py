"""The walk draw handed to the helper thread: bit-identical to drawing in
line, settled on every path out of `step`, and safe across threads and
forks.

`hand_offs()` sets the evaluation-time half of the hand-off gate to zero,
so whether a generation hands its draw off depends only on the scout
count and the incumbent, never on how fast this machine evaluates. No
test here reads a clock.
"""

import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralsearch import engine
from viralsearch.benchmarks import make_benchmark
from viralsearch.core import EvaluationError, Objective, child_seed, make_rng
from viralsearch.engine import VSConfig, init_state, run, step
from viralsearch.harness import parallel_run, split_bounds
from reference import serial_run, serial_step

# the configuration of the benchmark's `shekel-grid` workload
SHEKEL_GRID = VSConfig(n_generations=30, n_viral_generations=1, n_individuals=1000,
                       n_viral_individuals=4, centers_per_axis=7)


@contextmanager
def hand_offs():
    """Count the draws `step` hands off and the pending ones it cancels,
    with the evaluation-time half of the gate open."""
    counts = {"hand_offs": 0, "cancels": 0}
    hand_off, cancel = engine._hand_off_walk_draw, engine._cancel_walk_draw

    def counted_hand_off(state, rng):
        counts["hand_offs"] += 1
        hand_off(state, rng)

    def counted_cancel(state):
        if state.walk_draw is not None and state.walk_draw.before is not None:
            counts["cancels"] += 1
        cancel(state)

    with mock.patch.object(engine, "_PREFETCH_EVAL_S", 0.0), \
            mock.patch.object(engine, "_hand_off_walk_draw", counted_hand_off), \
            mock.patch.object(engine, "_cancel_walk_draw", counted_cancel):
        yield counts


def same_bits(a, b) -> bool:
    """Equal arrays down to the bit: signed zeros and NaN payloads too."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_run(result, reference):
    assert [row.fobj_global for row in result.trace] == reference.trace
    assert result.epidemic_count == reference.epidemic_count
    assert same_bits(result.best_point, reference.best_individual_global)
    assert same_bits(result.best_value, reference.fobj_global)


def assert_same_state(state, rng, reference, reference_rng):
    assert same_bits(state.population, reference.population)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert same_bits(state.fobj_global, reference.fobj_global)
    assert state.epidemic_count == reference.epidemic_count
    if reference.has_centers():
        assert np.array_equal(state.visit_counts, reference.visit_counts)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 4),
    coords=st.integers(engine._PREFETCH_MIN // 2, engine._PREFETCH_MIN * 3 // 2),
    n_viral=st.integers(4, 8),
    n_viral_generations=st.integers(1, 3),
    centers=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_step_equals_the_serial_reference(dim, coords, n_viral, n_viral_generations,
                                                 centers, seed):
    spec = make_benchmark("sphere", dim=dim)
    n = coords // dim
    cfg = VSConfig(n_generations=6, n_viral_generations=n_viral_generations,
                   n_individuals=n, n_viral_individuals=n_viral, centers_per_axis=centers,
                   rebalance_every=2, seed=seed)
    rng, reference_rng = make_rng(seed), make_rng(seed)
    state = init_state(spec.bounds, cfg, rng)
    reference = init_state(spec.bounds, cfg, reference_rng)
    with hand_offs() as counts:
        for _ in range(cfg.n_generations):
            step(state, spec.objective, spec.bounds, cfg, rng)
            serial_step(reference, spec.objective, spec.bounds, cfg, reference_rng)
            assert_same_state(state, rng, reference, reference_rng)
    # generation 0 fires a burst under an infinite incumbent and hands off
    # nothing; every later generation of a large enough walk hands off
    handing_off = n * dim >= engine._PREFETCH_MIN
    assert counts["hand_offs"] == (cfg.n_generations - 1 if handing_off else 0)


def test_bursts_after_generation_zero_cancel_pending_draws():
    spec = make_benchmark("sphere", dim=4)
    cfg = VSConfig(n_generations=25, n_viral_generations=2, n_individuals=1000,
                   n_viral_individuals=5, seed=3)
    with hand_offs() as counts:
        result = run(spec.objective, spec.bounds, cfg)
    assert counts["hand_offs"] == cfg.n_generations - 1
    assert counts["cancels"] >= 1
    assert result.epidemic_count > counts["cancels"]
    assert_same_run(result, serial_run(spec.objective, spec.bounds, cfg))


def test_centers_and_rebalance_match_the_serial_reference():
    spec = make_benchmark("shekel")
    with hand_offs() as counts:
        result = run(spec.objective, spec.bounds, SHEKEL_GRID)
    assert counts["hand_offs"] > 0
    assert_same_run(result, serial_run(spec.objective, spec.bounds, SHEKEL_GRID))


def test_time_varying_objective_matches_the_serial_reference():
    spec = make_benchmark("two_well", tau=20.0)
    cfg = VSConfig(n_generations=60, n_viral_generations=5, n_individuals=1600,
                   n_viral_individuals=10, seed=4)
    assert cfg.n_individuals * spec.arity >= engine._PREFETCH_MIN
    with hand_offs() as counts:
        result = run(spec.objective, spec.bounds, cfg)
    assert counts["hand_offs"] > 0
    assert result.evaluations["refresh"] == cfg.n_generations - 1
    assert_same_run(result, serial_run(spec.objective, spec.bounds, cfg))


def test_parallel_run_workers_match_the_serial_reference():
    spec = make_benchmark("shekel")
    cfg = VSConfig(n_generations=12, n_viral_generations=3, n_individuals=1600,
                   n_viral_individuals=8, seed=5)
    with hand_offs() as counts:
        result = parallel_run(spec.objective, spec.bounds, cfg, m=2)
    assert counts["hand_offs"] == 2 * (cfg.n_generations - 1)
    finals = []
    for w, box in enumerate(split_bounds(spec.bounds, 2)):
        wcfg = replace(cfg, n_individuals=800, seed=child_seed(cfg.seed, w))
        reference = serial_run(spec.objective, box, wcfg)
        assert [row.fobj_global for row in result.trace if row.worker == w] == reference.trace
        finals.append(reference)
    best = min(finals, key=lambda s: s.fobj_global)
    assert same_bits(result.best_point, best.best_individual_global)
    assert result.epidemic_count == sum(s.epidemic_count for s in finals)


def failing_sphere(dim, fail_at, rows=None):
    """A sphere objective that returns NaN from generation `fail_at` on,
    for every batch or only for batches of `rows` rows (a burst's)."""

    def fn(t, p):
        values = (p**2).sum(axis=1)
        if t >= fail_at and (rows is None or len(p) == rows):
            values[0] = np.nan
        return values

    return Objective(fn, arity=dim)


@pytest.mark.parametrize("burst_rows", [None, 5], ids=["scouts", "burst"])
def test_a_raising_step_settles_the_draw_and_leaves_the_serial_rng_state(burst_rows):
    spec = make_benchmark("sphere", dim=4)
    objective = failing_sphere(4, fail_at=3, rows=burst_rows)
    cfg = VSConfig(n_generations=40, n_viral_generations=2, n_individuals=1000,
                   n_viral_individuals=5, seed=6)
    rng, reference_rng = make_rng(cfg.seed), make_rng(cfg.seed)
    state = init_state(spec.bounds, cfg, rng)
    reference = init_state(spec.bounds, cfg, reference_rng)
    with hand_offs() as counts:
        with pytest.raises(EvaluationError):
            for _ in range(cfg.n_generations):
                step(state, objective, spec.bounds, cfg, rng)
        with pytest.raises(EvaluationError):
            for _ in range(cfg.n_generations):
                serial_step(reference, objective, spec.bounds, cfg, reference_rng)
    assert counts["hand_offs"] >= 3
    assert state.walk_draw.before is None
    assert not state.walk_draw.done.locked()
    assert state.generation == reference.generation >= 3
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_an_evaluation_error_in_run_leaves_no_draw_in_flight():
    spec = make_benchmark("sphere", dim=4)
    objective = failing_sphere(4, fail_at=5)
    cfg = VSConfig(n_generations=20, n_viral_generations=2, n_individuals=1000,
                   n_viral_individuals=5)
    seen = []
    original = engine._WalkDraw.__init__

    def recorded(draw, shape):
        original(draw, shape)
        seen.append(draw)

    with hand_offs() as counts, mock.patch.object(engine._WalkDraw, "__init__", recorded):
        with pytest.raises(EvaluationError):
            run(objective, spec.bounds, cfg)
    assert counts["hand_offs"] >= 4
    assert len(seen) == 1
    assert seen[0].before is None
    assert not seen[0].done.locked()


def test_runs_in_more_threads_than_cores_equal_their_serial_results():
    spec = make_benchmark("shekel")
    cfgs = [VSConfig(n_generations=15, n_viral_generations=2, n_individuals=1000,
                     n_viral_individuals=6, seed=seed) for seed in range(3)]
    results = [None] * len(cfgs)

    def work(k):
        results[k] = run(spec.objective, spec.bounds, cfgs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with hand_offs() as counts:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cfgs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert counts["hand_offs"] == sum(cfg.n_generations - 1 for cfg in cfgs)
    for result, cfg in zip(results, cfgs):
        assert_same_run(result, serial_run(spec.objective, spec.bounds, cfg))


SHEKEL_CFG = VSConfig(n_generations=10, n_viral_generations=2, n_individuals=1000,
                      n_viral_individuals=6, seed=8)


def _run_in_child(conn):
    spec = make_benchmark("shekel")
    with hand_offs() as counts:
        result = run(spec.objective, spec.bounds, SHEKEL_CFG)
    conn.send((result.best_value, result.best_point.tolist(), counts["hand_offs"]))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
def test_a_forked_child_starts_its_own_helper():
    spec = make_benchmark("shekel")
    with hand_offs() as counts:
        expected = run(spec.objective, spec.bounds, SHEKEL_CFG)
    assert counts["hand_offs"] > 0 and engine._HELPER._requests is not None
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(child_end,))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(120), "the forked child's run never finished"
        value, point, child_hand_offs = parent_end.recv()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert child_hand_offs == counts["hand_offs"]
    assert value == expected.best_value and point == expected.best_point.tolist()
