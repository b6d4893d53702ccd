"""The walk's own generator and the draw handed to the helper thread:
the scouts' path does not depend on the bursts, every run is
bit-identical to drawing in line, a draw left pending by a step that
raised is the next walk's, and the helper is safe across threads and
forks.

`hand_offs()` sets the evaluation-time half of the hand-off gate to zero,
so whether a generation hands its draw off depends only on the scout
count and on whether a draw is pending, never on how fast this machine
evaluates. No test here reads a clock.
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
    """Count the draws `step` hands off, with the evaluation-time half of
    the gate open."""
    counts = {"hand_offs": 0}
    hand_off = engine._hand_off_walk_draw

    def counted_hand_off(state):
        counts["hand_offs"] += 1
        hand_off(state)

    with mock.patch.object(engine, "_PREFETCH_EVAL_S", 0.0), \
            mock.patch.object(engine, "_hand_off_walk_draw", counted_hand_off):
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
    assert state.walk_rng.bit_generator.state == reference.walk_rng.bit_generator.state
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
    # every generation of a large enough walk hands off, generation 0 too
    handing_off = n * dim >= engine._PREFETCH_MIN
    assert counts["hand_offs"] == (cfg.n_generations if handing_off else 0)


def test_bursts_run_beside_the_pending_draw():
    spec = make_benchmark("sphere", dim=4)
    cfg = VSConfig(n_generations=25, n_viral_generations=2, n_individuals=1000,
                   n_viral_individuals=5, seed=3)
    rng = make_rng(cfg.seed)
    state = init_state(spec.bounds, cfg, rng)
    pending = []
    burst = engine.trigger_epidemic

    def recorded(*args):
        pending.append(engine._pending(state))
        return burst(*args)

    with hand_offs() as counts, mock.patch.object(engine, "trigger_epidemic", recorded):
        for _ in range(cfg.n_generations):
            step(state, spec.objective, spec.bounds, cfg, rng)
    assert counts["hand_offs"] == cfg.n_generations
    # bursts after generation 0 too, each with the walk's draw pending
    assert len(pending) == state.epidemic_count > state.trace[0].epidemics_so_far
    assert all(pending)
    reference_rng = make_rng(cfg.seed)
    reference = init_state(spec.bounds, cfg, reference_rng)
    for _ in range(cfg.n_generations):
        serial_step(reference, spec.objective, spec.bounds, cfg, reference_rng)
    assert [row.fobj_global for row in state.trace] == reference.trace
    assert_same_state(state, rng, reference, reference_rng)


def test_the_scouts_path_does_not_depend_on_the_bursts():
    # with centers off, only the initialization and the walk move scouts
    spec = make_benchmark("rosenbrock")
    base = VSConfig(n_generations=30, n_viral_generations=2, n_individuals=1600,
                    n_viral_individuals=5, seed=11)
    cfgs = [base, replace(base, n_viral_generations=9, n_viral_individuals=14)]
    populations, rng_states = [], []
    for cfg in cfgs:
        rng = make_rng(cfg.seed)
        state = init_state(spec.bounds, cfg, rng)
        steps = []
        with hand_offs() as counts:
            for _ in range(cfg.n_generations):
                step(state, spec.objective, spec.bounds, cfg, rng)
                steps.append(state.population.copy())
        assert counts["hand_offs"] == cfg.n_generations
        assert state.epidemic_count > 1
        populations.append(steps)
        rng_states.append(rng.bit_generator.state)
    # the bursts drew differently from the run's generator
    assert rng_states[0] != rng_states[1]
    assert all(same_bits(a, b) for a, b in zip(*populations))


def test_centers_and_rebalance_match_the_serial_reference():
    spec = make_benchmark("shekel")
    with hand_offs() as counts:
        result = run(spec.objective, spec.bounds, SHEKEL_GRID)
    assert counts["hand_offs"] > 0
    assert_same_run(result, serial_run(spec.objective, spec.bounds, SHEKEL_GRID))


def test_each_walk_and_rebalance_folds_once_through_the_module_attribute():
    # perfbench's traced mode times the fold by patching
    # engine.reflect_into_bounds, so both callers must look it up per call
    spec = make_benchmark("shekel")
    fold, move_random, rebalance = (engine.reflect_into_bounds, engine.move_random,
                                    engine.rebalance)
    folds, calls = [], []

    def counted(fn, name):
        def wrapper(state, *args):
            pending = engine._pending(state)
            before = len(folds)
            out = fn(state, *args)
            calls.append((name, pending, len(folds) - before))
            return out
        return wrapper

    hand_off = engine._hand_off_walk_draw
    with hand_offs(), \
            mock.patch.object(engine, "_hand_off_walk_draw",
                              lambda state: state.generation % 2 and hand_off(state)), \
            mock.patch.object(engine, "reflect_into_bounds",
                              lambda p, b: folds.append(1) or fold(p, b)), \
            mock.patch.object(engine, "move_random", counted(move_random, "walk")), \
            mock.patch.object(engine, "rebalance", counted(rebalance, "rebalance")):
        result = run(spec.objective, spec.bounds, SHEKEL_GRID)
    walks = [pending for name, pending, _ in calls if name == "walk"]
    assert len(walks) == SHEKEL_GRID.n_generations
    assert walks == [t % 2 == 1 for t in range(SHEKEL_GRID.n_generations)]
    assert [name for name, _, _ in calls].count("rebalance") == 2  # generations 10 and 20
    assert all(n == 1 for _, _, n in calls)
    assert len(folds) == len(calls)
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
    assert counts["hand_offs"] == 2 * cfg.n_generations
    finals = []
    for w, box in enumerate(split_bounds(spec.bounds, 2)):
        wcfg = replace(cfg, n_individuals=800, seed=child_seed(cfg.seed, w))
        reference = serial_run(spec.objective, box, wcfg)
        assert [row.fobj_global for row in result.trace if row.worker == w] == reference.trace
        finals.append(reference)
    best = min(finals, key=lambda s: s.fobj_global)
    assert same_bits(result.best_point, best.best_individual_global)
    assert result.epidemic_count == sum(s.epidemic_count for s in finals)


def failing_once(dim, fail_at, rows=None):
    """A sphere objective that returns NaN once: for the first batch at
    generation `fail_at` or later, of any size or of `rows` rows only (a
    burst's). Returns the objective and the list of generations it failed
    at."""
    failed = []

    def fn(t, p):
        values = (p**2).sum(axis=1)
        if not failed and t >= fail_at and (rows is None or len(p) == rows):
            failed.append(t)
            values[0] = np.nan
        return values

    return Objective(fn, arity=dim), failed


@pytest.mark.parametrize("burst_rows", [None, 5], ids=["scouts", "burst"])
def test_steps_after_one_that_raised_past_a_hand_off_equal_the_serial_reference(burst_rows):
    spec = make_benchmark("sphere", dim=4)
    cfg = VSConfig(n_generations=30, n_viral_generations=2, n_individuals=1000,
                   n_viral_individuals=5, seed=3)
    objective, failed = failing_once(4, fail_at=3, rows=burst_rows)
    reference_objective, reference_failed = failing_once(4, fail_at=3, rows=burst_rows)
    rng, reference_rng = make_rng(cfg.seed), make_rng(cfg.seed)
    state = init_state(spec.bounds, cfg, rng)
    reference = init_state(spec.bounds, cfg, reference_rng)
    with hand_offs() as counts:
        for _ in range(cfg.n_generations):
            try:
                step(state, objective, spec.bounds, cfg, rng)
            except EvaluationError:
                # the handed-off draw stays pending for the next walk
                assert engine._pending(state)
    for _ in range(cfg.n_generations):
        try:
            serial_step(reference, reference_objective, spec.bounds, cfg, reference_rng)
        except EvaluationError:
            pass
    assert len(failed) == 1 and failed == reference_failed
    # the step after the one that raised hands off no new draw
    assert counts["hand_offs"] == cfg.n_generations - 1
    assert state.generation == reference.generation == cfg.n_generations - 1
    assert not engine._pending(state)
    assert [row.fobj_global for row in state.trace] == reference.trace
    assert_same_state(state, rng, reference, reference_rng)


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
    assert counts["hand_offs"] == sum(cfg.n_generations for cfg in cfgs)
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
