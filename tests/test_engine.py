import copy
import itertools
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralsearch.benchmarks import make_benchmark
from viralsearch.core import (
    Bounds,
    ConfigurationError,
    EvaluationError,
    Objective,
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
)
from viralsearch import engine
from viralsearch.engine import (
    EngineState,
    VSConfig,
    _burst_cube,
    _center_indices,
    _trigger_candidates,
    _walk_box,
    init_state,
    move_random,
    rebalance,
    run,
    check_config,
    step,
    trigger_epidemic,
)
from viralsearch.harness import ExperimentSpec, parallel_run, run_experiment
from viralsearch.local_search import de_optimize
from reference import make_centers, nearest_center

BOX = Bounds([-3.0, -3.0], [3.0, 3.0])
SPHERE = Objective(lambda t, p: (p**2).sum(axis=1), arity=2, name="sphere")


def walk_rng(seed):
    """A generator of the kind `init_state` gives the walk."""
    return np.random.Generator(np.random.SFC64(seed))


def small_cfg(**overrides):
    base = dict(
        n_generations=10,
        n_viral_generations=10,
        n_individuals=12,
        n_viral_individuals=10,
        seed=0,
    )
    base.update(overrides)
    return VSConfig(**base)


class TestVSConfig:
    def test_zero_generations_allowed(self):
        small_cfg(n_generations=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_individuals", 0),
            ("n_viral_generations", 0),
            ("epidemic_radius_fraction", 0.0),
            ("epidemic_radius_fraction", 1.5),
            ("walk_step_fraction", 0.0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("rebalance_every", 10), ("rebalance_fraction", 0.25),
         ("trigger_tolerance", 1e-12), ("init", "stratified")],
    )
    def test_fixed_settings_are_not_fields(self, field, value):
        with pytest.raises(TypeError, match=field):
            small_cfg(**{field: value})

    def test_burst_population_below_four_names_its_field(self):
        with pytest.raises(ConfigurationError, match="n_viral_individuals must be >= 4"):
            small_cfg(n_viral_individuals=3)

    @pytest.mark.parametrize(
        "field",
        ["n_generations", "n_viral_generations", "n_individuals", "n_viral_individuals",
         "centers_per_axis", "seed"],
    )
    @pytest.mark.parametrize("value", [3.5, 10.0])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            small_cfg(**{field: value})

    def test_numpy_integer_counts_run_like_python_ints(self):
        # past generation 10, so the run rebalances
        counts = dict(n_generations=12, n_viral_generations=5, n_individuals=20,
                      n_viral_individuals=10, centers_per_axis=2, seed=9)
        plain = run(SPHERE, BOX, small_cfg(**counts))
        np_ints = run(SPHERE, BOX, small_cfg(**{k: np.int64(v) for k, v in counts.items()}))
        assert np_ints.best_value == plain.best_value
        assert np.array_equal(np_ints.best_point, plain.best_point)
        assert len(np_ints.trace) == len(plain.trace)


class TestMakeCenters:
    def test_single_center_is_the_midpoint(self):
        centers = make_centers(Bounds([0.0, 0.0], [1.0, 1.0]), 1)
        assert centers.shape == (1, 2)
        assert np.allclose(centers[0], [0.5, 0.5])

    def test_seven_per_axis_grid(self):
        centers = make_centers(BOX, 7)
        assert centers.shape == (49, 2)
        expected_axis = -3.0 + (np.arange(7) + 0.5) * (6.0 / 7.0)
        assert np.allclose(sorted(set(np.round(centers[:, 0], 12))), expected_axis)
        assert np.allclose(sorted(set(np.round(centers[:, 1], 12))), expected_axis)


class TestNearestCenter:
    def test_exact_center(self):
        centers = make_centers(BOX, 3)
        for k in range(len(centers)):
            assert nearest_center(centers[k], centers) == k

    def test_tie_breaks_to_lowest_index(self):
        centers = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert nearest_center(np.array([0.0, 0.0]), centers) == 0
        midpoint = np.array([1.0, 0.0])  # equidistant from 0/1 and 2
        assert nearest_center(midpoint, centers) == 0

    def test_against_brute_force_scan(self):
        centers = make_centers(BOX, 5)
        rng = make_rng(0)
        for _ in range(200):
            p = rng.uniform(-3, 3, 2)
            distances = [np.linalg.norm(p - c) for c in centers]
            assert nearest_center(p, centers) == int(np.argmin(distances))

    def test_empty_centers_rejected(self):
        with pytest.raises(ValueError):
            nearest_center(np.zeros(2), np.empty((0, 2)))


class TestCenterIndices:
    """The grid arithmetic against `nearest_center`'s brute-force scan."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, data, dim, k, seed):
        axis = st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)
        width = st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim)
        lb = np.array(data.draw(axis))
        b = Bounds(lb, lb + np.array(data.draw(width)))
        centers = make_centers(b, k)
        points = np.vstack([b.lb, b.ub, make_rng(seed).uniform(b.lb, b.ub, (40, dim))])
        expected = [nearest_center(p, centers) for p in points]
        assert _center_indices(points, b, k).tolist() == expected
        # the engine's scouts are Fortran-ordered
        assert _center_indices(np.asfortranarray(points), b, k).tolist() == expected

    # the ids name the fold, reflection, that brings the walk back in
    @pytest.mark.parametrize("k", [1, 2, 7], ids=lambda k: f"{k}-reflect")
    def test_walls_map_to_the_end_cells(self, k):
        b = Bounds([-3.0, 0.0, 1.0], [3.0, 10.0, 1.5])
        corners = np.array(list(itertools.product(*zip(b.lb, b.ub))))
        cells = np.where(corners == b.ub, k - 1, 0)
        expected = np.ravel_multi_index(tuple(cells.T), (k,) * 3)
        assert _center_indices(corners, b, k).tolist() == expected.tolist()
        # scouts on the walls stay within a 1e-12-span step of them, folded
        # back in by the reflection
        cfg = small_cfg(centers_per_axis=k, walk_step_fraction=1e-12)
        state = init_state(b, cfg, make_rng(0))
        state.population = np.repeat(corners, 20, axis=0)
        move_random(state, b, cfg)
        assert np.array_equal(
            state.visit_counts, np.bincount(np.repeat(expected, 20), minlength=k**3)
        )

    def test_halfway_between_midpoints_goes_to_lower_index(self):
        # midpoints 0.5, 1.5, 2.5, 3.5 per axis, so halfway points are exact
        b = Bounds([0.0, 0.0], [4.0, 4.0])
        centers = make_centers(b, 4)
        points = np.array([[1.0, 0.5], [0.5, 2.0], [3.0, 3.0]])
        assert _center_indices(points, b, 4).tolist() == [0, 1, 10]
        assert [nearest_center(p, centers) for p in points] == [0, 1, 10]

    def test_tally_memory_grows_with_scouts_plus_centers(self):
        # 200 scouts over 10**4 centers in 4-D: an (n, C, d) distance tensor
        # would take 200 * 10**4 * 4 * 8 bytes = 64 MB
        b = Bounds([0.0] * 4, [1.0] * 4)
        cfg = small_cfg(n_individuals=200, centers_per_axis=10)
        rng = make_rng(0)
        state = init_state(b, cfg, rng)
        tracemalloc.start()
        try:
            move_random(state, b, cfg)
            rebalance(state, b, cfg, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_init_state_stores_counts_not_the_grid(self):
        # 20 centers per axis in 4-D: 160 000 centers, whose (C, d) float
        # grid alone would take 5.1 MB; the counts take 1.3 MB
        b = Bounds([0.0] * 4, [1.0] * 4)
        cfg = small_cfg(centers_per_axis=20)
        tracemalloc.start()
        try:
            state = init_state(b, cfg, make_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.visit_counts) == 20**4
        assert peak < 2 * 2**20


class TestMoveRandom:
    def test_vanishing_step_scale(self):
        cfg = small_cfg(walk_step_fraction=1e-12)
        state = EngineState(population=np.zeros((10_000, 2)), walk_rng=make_rng(0))
        before = state.population.copy()
        move_random(state, BOX, cfg)
        assert np.abs(state.population - before).max() < 1e-9 * 6.0

    def test_contained_over_many_moves(self):
        cfg = small_cfg(walk_step_fraction=0.3)
        rng = make_rng(1)
        state = EngineState(population=rng.uniform(-3, 3, size=(1000, 2)), walk_rng=rng)
        for _ in range(100):
            move_random(state, BOX, cfg)
            assert BOX.contains(state.population)

    def test_step_scale_matches_gaussian_law(self):
        cfg = small_cfg(walk_step_fraction=0.1)
        state = EngineState(population=np.zeros((100_000, 2)), walk_rng=make_rng(2))
        move_random(state, BOX, cfg)
        stdev = state.population.std(axis=0)
        # expected 0.1 * range = 0.6 per axis; reflection is negligible 5
        # sigmas from the walls
        assert np.abs(stdev - 0.6).max() < 0.02

    def test_visit_counts_accumulate(self):
        cfg = small_cfg(centers_per_axis=2)
        rng = make_rng(3)
        state = init_state(BOX, cfg, rng)
        assert state.visit_counts.sum() == 0
        move_random(state, BOX, cfg)
        assert state.visit_counts.sum() == cfg.n_individuals
        nearest = [nearest_center(p, make_centers(BOX, 2)) for p in state.population]
        assert np.array_equal(state.visit_counts, np.bincount(nearest, minlength=4))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2, 30, 1000]),
        dim=st.sampled_from([1, 2, 4, 8]),
        fraction=st.sampled_from([1e-3, 0.1, 1.0]),
        centers=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_scaled_draw_folded(self, n, dim, fraction, centers, seed):
        """One walk is fold(pop + z * (walk_step_fraction * span)) for z the
        transposed (d, n) draw of the same stream, bit for bit and sign of
        zero."""
        gen = make_rng(seed)
        lb = gen.choice([0.0, -1.5, 2.0, -100.0], dim)
        b = Bounds(lb, lb + gen.uniform(1e-3, 100.0, dim))
        population = gen.uniform(b.lb, b.ub, (n, dim))
        # scouts at -0.0 and on either wall
        population[gen.random((n, dim)) < 0.2] = -0.0
        population = np.where(gen.random((n, dim)) < 0.2, b.lb, population)
        population = np.where(gen.random((n, dim)) < 0.2, b.ub, population)
        k = 3 if centers else 0
        cfg = small_cfg(n_individuals=n, centers_per_axis=k, walk_step_fraction=fraction)
        z = walk_rng(seed).standard_normal((dim, n)).T
        expected = reflect_into_bounds(population + z * (fraction * b.span), b)
        state = EngineState(population=population.copy(), walk_rng=walk_rng(seed),
                            visit_counts=np.zeros(k**dim, dtype=np.int64))
        move_random(state, b, cfg)
        assert np.array_equal(state.population, expected)
        assert np.array_equal(np.signbit(state.population), np.signbit(expected))
        assert state.population.flags.f_contiguous
        if centers:
            tally = np.bincount(_center_indices(expected, b, k), minlength=k**dim)
            assert np.array_equal(state.visit_counts, tally)


class TestPopulationLayout:
    """Scouts stay Fortran-ordered (axis-major), so the walk, the fold and
    the center tally run along all n scouts of one axis at a time."""

    @pytest.mark.parametrize("init", ["stratified", "random"], ids=lambda i: f"{i}-reflect")
    def test_population_stays_fortran_ordered(self, init):
        b = Bounds([0.0] * 3, [1.0] * 3)
        cfg = small_cfg(n_individuals=50, centers_per_axis=3)
        rng = make_rng(0)
        state = init_state(b, cfg, rng)
        if init == "random":
            # a random start is a state built by hand
            state.population = np.asfortranarray(random_init(b, cfg.n_individuals, rng))
        assert state.population.flags.f_contiguous
        assert not state.population.flags.c_contiguous
        for _ in range(3):
            move_random(state, b, cfg)
            assert state.population.flags.f_contiguous
            rebalance(state, b, cfg, rng)
            assert state.population.flags.f_contiguous

    @pytest.mark.parametrize("walk_step_fraction", [0.05, 1.0], ids=lambda f: f"reflect-{f}")
    def test_walk_does_not_depend_on_memory_order(self, walk_step_fraction):
        b = Bounds([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
        cfg = small_cfg(n_individuals=50, centers_per_axis=3,
                        walk_step_fraction=walk_step_fraction)
        population = make_rng(0).uniform(b.lb, b.ub, (50, 3))
        # the small step folds without np.mod, the full-span one with it
        steps = walk_step_fraction * b.span * walk_rng(1).standard_normal((3, 50)).T
        far = (np.abs(population + steps - b.lb) >= 2.0 * b.span).any()
        assert far == (walk_step_fraction == 1.0)
        states = [
            EngineState(population=population.copy(order=order), walk_rng=walk_rng(1),
                        visit_counts=np.zeros(27, dtype=np.int64))
            for order in "CF"
        ]
        for state in states:
            move_random(state, b, cfg)
        assert np.array_equal(states[0].population, states[1].population)
        assert np.array_equal(states[0].visit_counts, states[1].visit_counts)


class TestFlatWalk:
    """The walk folds the flattened scouts against a per-element box built
    once per run; it must give the bits of a walk that broadcasts the (d,)
    box instead."""

    @staticmethod
    def broadcast_walk(population, b, cfg, rng):
        """The walk with (d,) limits broadcast over the (n, d) scouts: the
        (d, n) draw transposed, scaled and shifted in place, then
        reflected once across the doubled wall it crossed, with the
        triangle wave wherever that still lands outside."""
        steps = rng.standard_normal(population.shape[::-1]).T
        steps *= cfg.walk_step_fraction * b.span
        steps += population
        once = np.where(steps < b.lb, (b.lb + b.lb) - steps,
                        np.where(steps > b.ub, (b.ub + b.ub) - steps, steps))
        span, period = b.span, 2.0 * b.span
        y = np.mod(steps - b.lb, period)
        wave = np.minimum(b.lb + np.where(y > span, period - y, y), b.ub)
        return np.where((once < b.lb) | (once > b.ub), wave, once)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        dim=st.integers(1, 5),
        fraction=st.sampled_from([1e-3, 0.1, 1.0]),
        far=st.booleans(),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_broadcast_walk(self, data, n, dim, fraction, far, order, seed):
        lb = np.array(data.draw(st.lists(st.sampled_from([0.0, -1.5, 2.0, -100.0]),
                                         min_size=dim, max_size=dim)))
        width = data.draw(st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim))
        b = Bounds(lb, lb + np.array(width))
        gen = make_rng(seed)
        population = gen.uniform(b.lb, b.ub, (n, dim))
        # scouts at -0.0 and on either wall
        population[gen.random((n, dim)) < 0.2] = -0.0
        population = np.where(gen.random((n, dim)) < 0.2, b.lb, population)
        population = np.where(gen.random((n, dim)) < 0.2, b.ub, population)
        if far:
            # a scout three or more spans out sends the reflecting fold
            # through np.mod whatever the step
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))
            k = data.draw(st.one_of(st.floats(-8.0, -4.0), st.floats(5.0, 9.0)))
            population[i, j] = b.lb[j] + k * b.span[j]
        population = population.copy(order=order)
        cfg = small_cfg(n_individuals=n, walk_step_fraction=fraction)
        expected = self.broadcast_walk(population, b, cfg, walk_rng(seed))
        state = EngineState(population=population.copy(order=order), walk_rng=walk_rng(seed))
        move_random(state, b, cfg)
        assert np.array_equal(state.population, expected)
        assert np.array_equal(np.signbit(state.population), np.signbit(expected))
        assert state.population.flags.f_contiguous

    def test_walk_box_repeats_each_axis_per_scout(self):
        b = Bounds([-1.0, 0.0, 2.0], [1.0, 5.0, 2.5])
        state = EngineState(population=np.zeros((4, 3), order="F"), walk_rng=make_rng(0))
        box, scale = _walk_box(state, b, 0.5)
        # axis-major, as population.ravel(order="F")
        assert box.lb.tolist() == [-1.0] * 4 + [0.0] * 4 + [2.0] * 4
        assert box.ub.tolist() == [1.0] * 4 + [5.0] * 4 + [2.5] * 4
        assert scale.tolist() == [1.0] * 4 + [2.5] * 4 + [0.25] * 4

    def test_walk_box_is_built_once_per_run(self, monkeypatch):
        cfg = small_cfg(n_individuals=30, centers_per_axis=3, n_generations=25)
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        step(state, SPHERE, BOX, cfg, rng)
        fraction = cfg.walk_step_fraction
        box, scale = _walk_box(state, BOX, fraction)
        for _ in range(20):
            step(state, SPHERE, BOX, cfg, rng)
            assert _walk_box(state, BOX, fraction)[0] is box
        assert _walk_box(state, BOX, fraction)[1] is scale
        # rebuilt for another step fraction, scout count or box
        assert _walk_box(state, BOX, 0.5)[1].tolist() == [3.0] * 60
        state.population = state.population[:10]
        assert _walk_box(state, BOX, fraction)[0].dim == 20
        other = Bounds(BOX.lb, BOX.ub)
        assert _walk_box(state, other, fraction)[0] is not _walk_box(state, BOX, fraction)[0]

        built = []

        class CountingBounds(Bounds):
            def __post_init__(self):
                super().__post_init__()
                built.append(self.dim)

        monkeypatch.setattr(engine, "Bounds", CountingBounds)
        result = run(SPHERE, BOX, cfg)
        # one walk box of n * d axes; every other box is a burst region
        assert built.count(cfg.n_individuals * BOX.dim) == 1
        assert built.count(BOX.dim) == result.epidemic_count

    @pytest.mark.parametrize(
        "n, dim", [(2000, 2), (8000, 2), (2000, 8)], ids=["2000-2-reflect", "8000-2-reflect",
                                                          "2000-8-reflect"],
    )
    def test_walk_memory_is_linear_in_coordinates(self, n, dim):
        b = Bounds(np.zeros(dim), np.ones(dim))
        cfg = small_cfg(n_individuals=n, walk_step_fraction=1.0)
        rng = make_rng(0)
        state = init_state(b, cfg, rng)
        tracemalloc.start()
        try:
            # the first move builds the walk box, the second reuses it
            move_random(state, b, cfg)
            move_random(state, b, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 9 float arrays of n * dim: the box's four, the draw, the
        # step buffer, the fold's temporaries and both populations
        assert peak < 12 * 8 * n * dim + 2**16


class TestWalkStream:
    """The walk draws from the state's own generator, in line; the
    initialization, the bursts and the rebalance draw from the run's."""

    def test_init_state_gives_the_walk_sfc64_on_the_first_child_seed(self):
        state = init_state(BOX, small_cfg(), make_rng(7))
        assert isinstance(state.walk_rng.bit_generator, np.random.SFC64)
        child = np.random.SFC64(np.random.SeedSequence(7, spawn_key=(0,)))
        assert np.array_equal(state.walk_rng.bit_generator.state["state"]["state"],
                              child.state["state"]["state"])
        assert np.array_equal(state.walk_rng.bit_generator.random_raw(4), child.random_raw(4))

    def test_init_state_leaves_the_run_generator_where_the_init_left_it(self):
        cfg = small_cfg(n_individuals=50)
        rng, reference = make_rng(5), make_rng(5)
        state = init_state(BOX, cfg, rng)
        population = stratified_init(BOX, cfg.n_individuals, reference)
        assert np.array_equal(state.population, population)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_large_run_starts_no_thread(self):
        # 1000 scouts on 4 axes: past the size at which the walk's draw
        # once went to a helper thread
        b = Bounds(np.zeros(4), np.full(4, 10.0))
        before = threading.active_count()
        seen = set()

        def sphere(t, p):
            seen.add(threading.active_count())
            return ((p - 4.0) ** 2).sum(axis=1)

        cfg = VSConfig(n_generations=5, n_viral_generations=2, n_individuals=1000,
                       n_viral_individuals=5)
        result = run(Objective(sphere, arity=4), b, cfg)
        assert result.evaluations["scout"] == 5000
        assert seen == {before}
        assert threading.active_count() == before

    def test_the_scouts_path_does_not_depend_on_the_bursts(self):
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
            for _ in range(cfg.n_generations):
                step(state, spec.objective, spec.bounds, cfg, rng)
                steps.append(state.population.copy())
            assert state.epidemic_count > 1
            populations.append(steps)
            rng_states.append(rng.bit_generator.state)
        # the bursts drew differently from the run's generator
        assert rng_states[0] != rng_states[1]
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(*populations))

    def test_each_walk_and_rebalance_folds_once_through_the_module_attribute(
            self, monkeypatch):
        # perfbench's traced mode times the fold by patching
        # engine.reflect_into_bounds, so both callers must look it up per call
        spec = make_benchmark("shekel")
        cfg = VSConfig(n_generations=30, n_viral_generations=1, n_individuals=1000,
                       n_viral_individuals=4, centers_per_axis=7)
        expected = run(spec.objective, spec.bounds, cfg)
        fold, move_random, rebalance = (engine.reflect_into_bounds, engine.move_random,
                                        engine.rebalance)
        folds, calls = [], []

        def counted(fn, name):
            def wrapper(state, *args):
                before = len(folds)
                out = fn(state, *args)
                calls.append((name, len(folds) - before))
                return out
            return wrapper

        monkeypatch.setattr(engine, "reflect_into_bounds",
                            lambda p, b: folds.append(1) or fold(p, b))
        monkeypatch.setattr(engine, "move_random", counted(move_random, "walk"))
        monkeypatch.setattr(engine, "rebalance", counted(rebalance, "rebalance"))
        result = run(spec.objective, spec.bounds, cfg)
        names = [name for name, _ in calls]
        assert names.count("walk") == cfg.n_generations
        assert names.count("rebalance") == 2  # generations 10 and 20
        assert all(n == 1 for _, n in calls)
        assert len(folds) == len(calls)
        assert [row.fobj_global for row in result.trace] == \
            [row.fobj_global for row in expected.trace]


class TestRebalance:
    def two_center_state(self, positions):
        b = Bounds([0.0], [1.0])  # centers at 0.25 and 0.75
        return b, EngineState(
            population=np.asarray(positions, dtype=float).reshape(-1, 1),
            walk_rng=make_rng(0),
            visit_counts=np.zeros(2, dtype=np.int64),
        )

    def test_fewer_than_four_scouts_move_none(self):
        # a quarter of 3 scouts rounds down to no mover
        b, state = self.two_center_state([0.2] * 3)
        state.visit_counts[:] = (10, 0)
        before = state.population.copy()
        rng = make_rng(0)
        rng_state = rng.bit_generator.state
        rebalance(state, b, small_cfg(centers_per_axis=2), rng)
        assert np.array_equal(state.population, before)
        assert rng.bit_generator.state == rng_state

    def test_moves_toward_least_visited_center(self):
        # scouts 0, 2, 4 and 6 sit at the busy center 0.25, the other 12 at
        # the quiet center 0.75; a quarter of the 16 move
        b, state = self.two_center_state([0.2, 0.8, 0.3, 0.9, 0.1, 0.6, 0.4, 0.7] + [0.8] * 8)
        state.visit_counts[:] = (10, 0)
        before = state.population.copy()
        cfg = small_cfg(centers_per_axis=2)
        rng = make_rng(4)
        replay = copy.deepcopy(rng)
        rebalance(state, b, cfg, rng)
        movers, stayers = [0, 2, 4, 6], [1, 3, 5, 7, *range(8, 16)]
        # the four movers land around the quiet center's midpoint
        # lb + (1 + 0.5) * spacing = 0.75, scattered with stdev spacing / 2
        expected = reflect_into_bounds(0.75 + replay.normal(0.0, 0.25, (4, 1)), b)
        assert np.array_equal(state.population[movers], expected)
        assert np.array_equal(state.population[stayers], before[stayers])
        assert np.array_equal(state.visit_counts, [10, 0])

    def test_mover_destinations_center_on_the_quiet_side(self):
        # over many seeds the teleported scouts average near the quiet
        # center, not merely past the midpoint
        cfg = small_cfg(centers_per_axis=2)
        moved = []
        for seed in range(200):
            b, state = self.two_center_state([0.2] * 16)
            state.visit_counts[:] = (10, 0)
            rebalance(state, b, cfg, make_rng(seed))
            moved.extend(state.population[state.population[:, 0] != 0.2, 0])
        # Gaussian around 0.75 with stdev 0.25, folded at the upper wall:
        # the fold pulls the mean down to about 0.71
        assert 0.68 < np.mean(moved) < 0.74

    def test_scatter_spread_matches_half_spacing(self):
        b, state = self.two_center_state([0.2] * 16000)
        state.visit_counts[:] = (10, 0)
        cfg = small_cfg(centers_per_axis=2)
        rebalance(state, b, cfg, make_rng(1))
        moved = state.population[state.population[:, 0] != 0.2, 0]
        assert len(moved) == 4000
        # mean fraction reflected below the midpoint of a Gaussian around
        # 0.75 with stdev 0.25 is about 16 percent
        frac_near_old = (moved < 0.5).mean()
        assert 0.10 < frac_near_old < 0.22

    @staticmethod
    def stored_grid_rebalance(population, counts, b, cfg, rng):
        """Rebalance as it was with a stored (C, d) center grid and
        two-key `lexsort` orders."""
        population = population.copy()
        n = len(population)
        k = n // 4
        if k == 0:
            return population
        centers = make_centers(b, cfg.centers_per_axis)
        member_center = _center_indices(population, b, cfg.centers_per_axis)
        movers = np.lexsort((np.arange(n), -counts[member_center]))[:k]
        dest_order = np.lexsort((np.arange(len(centers)), counts))
        pool = dest_order[: max(1, len(centers) // 2)]
        dest = pool[np.arange(k) % len(pool)]
        spacing = b.span / cfg.centers_per_axis
        scatter = centers[dest] + rng.normal(0.0, spacing / 2.0, size=(k, b.dim))
        population[movers] = reflect_into_bounds(scatter, b)
        return population

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        k=st.integers(1, 6),
        n=st.integers(1, 40),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_stored_grid_oracle(self, data, dim, k, n, levels, seed):
        axis = st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)
        width = st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim)
        lb = np.array(data.draw(axis))
        b = Bounds(lb, lb + np.array(data.draw(width)))
        gen = make_rng(seed)
        population = gen.uniform(b.lb, b.ub, (n, dim))
        # few count levels, so both orders see many ties
        counts = gen.integers(0, levels, k**dim).astype(np.int64)
        cfg = small_cfg(n_individuals=n, centers_per_axis=k)
        expected = self.stored_grid_rebalance(population, counts, b, cfg, make_rng(seed))
        state = EngineState(population=population.copy(), walk_rng=make_rng(0),
                            visit_counts=counts.copy())
        rebalance(state, b, cfg, make_rng(seed))
        assert np.array_equal(state.population, expected)
        assert np.array_equal(state.visit_counts, counts)

    def test_equal_counts_conserves_population(self):
        b, state = self.two_center_state([0.1, 0.3, 0.6, 0.9])
        cfg = small_cfg(centers_per_axis=2)
        rebalance(state, b, cfg, make_rng(5))
        assert state.population.shape == (4, 1)
        assert b.contains(state.population)


class TestTriggerEpidemic:
    def test_corner_trigger_clips_region(self):
        cfg = small_cfg(n_viral_individuals=20, n_viral_generations=25)
        corner = np.array([-3.0, -3.0])
        point, value = trigger_epidemic(corner, BOX, cfg, SPHERE, t=0, rng=make_rng(0))
        assert BOX.contains(point[None, :])
        # clipped quarter-cube is [-3, -2.7]^2; the best point stays in it
        assert (point <= -2.7 + 1e-9).all()
        assert value <= SPHERE(0, corner)

    def test_full_radius_covers_the_whole_box(self):
        cfg = small_cfg(
            epidemic_radius_fraction=1.0,
            n_viral_individuals=30,
            n_viral_generations=40,
        )
        trigger = np.array([2.9, 2.9])
        point, value = trigger_epidemic(trigger, BOX, cfg, SPHERE, t=0, rng=make_rng(1))
        # the burst degenerates to a global search and finds the origin
        assert value < 1e-6

    def test_interior_trigger_strictly_improves(self):
        bench = make_benchmark("rosenbrock")
        cfg = small_cfg(n_viral_individuals=150, n_viral_generations=75)
        trigger = np.array([1.2, 1.4])
        start = bench.objective(0, trigger)
        assert start == pytest.approx(0.2, abs=1e-12)
        point, value = trigger_epidemic(
            trigger, bench.bounds, cfg, bench.objective, t=0, rng=make_rng(2)
        )
        assert value < start


    @pytest.mark.parametrize("trigger", [[1.5, 4.0], [-3.0, 10.0], [-2.0, -0.0]],
                             ids=["interior", "corner", "zero-wall"])
    def test_is_de_optimize_on_the_clipped_cube(self, trigger):
        b = Bounds([-3.0, 0.0], [3.0, 10.0])
        cfg = small_cfg(n_viral_individuals=9, n_viral_generations=17)
        obj = Objective(lambda t, p: np.abs(p - 0.7 * t).sum(axis=1), arity=2)
        trigger = np.array(trigger)
        half = cfg.epidemic_radius_fraction * b.span
        cube = np.maximum(b.lb, trigger - half), np.minimum(b.ub, trigger + half)
        got_rng, want_rng = make_rng(6), make_rng(6)
        got = trigger_epidemic(trigger, b, cfg, obj, 3, got_rng)
        want = de_optimize(obj, Bounds(*cube), cfg.n_viral_individuals,
                           cfg.n_viral_generations, seed_point=trigger, t=3, rng=want_rng)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
        assert got[1] == want[1]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_trigger_past_a_wall_raises(self):
        b = Bounds([0.0, 0.0], [10.0, 10.0])
        with pytest.raises(ValueError, match="seed point .* lies outside the region"):
            trigger_epidemic(np.array([10.2, 5.0]), b, small_cfg(), SPHERE, 0, make_rng(0))


class TestTriggerCandidates:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 50),
        incumbent=st.one_of(st.just(np.inf), st.floats(-5.0, 5.0)),
        tol=st.sampled_from([0.0, 1e-12, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_mask_formula(self, n, incumbent, tol, seed):
        threshold = incumbent - tol
        at = [threshold, np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)]
        edges = np.array([v for v in at if np.isfinite(v)] or [0.0])
        # each value is, with equal odds, uniform on [-6, 6], +inf, or the
        # threshold or a neighbour of it
        rng = make_rng(seed)
        values = np.choose(
            rng.integers(0, 3, n),
            [rng.uniform(-6.0, 6.0, n), np.full(n, np.inf), edges[rng.integers(0, len(edges), n)]],
        )
        expected = np.flatnonzero((values < np.inf) & (values <= threshold))
        got = _trigger_candidates(values, threshold)
        assert got.dtype == np.intp
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "values, threshold, expected",
        [
            ([np.inf], np.inf, []),  # +inf never triggers, even on a +inf incumbent
            ([np.inf, 3.0, np.inf], np.inf, [1]),
            ([1.0], 1.0, [0]),  # exactly at the threshold triggers
            ([np.nextafter(1.0, 2.0)], 1.0, []),
            ([2.0, 0.5, 1.0, 7.0], 1.0, [1, 2]),
        ],
    )
    def test_examples(self, values, threshold, expected):
        assert _trigger_candidates(np.array(values), threshold).tolist() == expected


class TestStep:
    def test_constant_objective_triggers_exactly_once(self):
        constant = Objective(lambda t, p: np.full(len(p), 5.0), arity=2)
        cfg = small_cfg()
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        step(state, constant, BOX, cfg, rng)
        assert state.epidemic_count == 1
        assert state.fobj_global == 5.0

    def test_no_trigger_below_optimal_incumbent(self):
        bench = make_benchmark("rosenbrock")
        cfg = small_cfg()
        rng = make_rng(1)
        state = init_state(BOX, cfg, rng)
        state.fobj_global = 0.0
        state.best_individual_global = np.array([1.0, 1.0])
        step(state, bench.objective, BOX, cfg, rng)
        assert state.epidemic_count == 0
        assert state.fobj_global == 0.0

    def test_incumbent_beats_initial_population(self):
        cfg = small_cfg(n_individuals=40, n_viral_individuals=30,
                        n_viral_generations=20, seed=7)
        rng = make_rng(cfg.seed)
        state = init_state(BOX, cfg, rng)
        initial_best = SPHERE.evaluate_many(0, state.population).min()
        step(state, SPHERE, BOX, cfg, rng)
        assert state.fobj_global <= initial_best

    def test_nan_objective_aborts_naming_the_point(self):
        def leaky(t, p):
            values = (p**2).sum(axis=1)
            values[p[:, 0] > 0] = np.nan
            return values

        cfg = small_cfg(n_individuals=30)
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        with pytest.raises(EvaluationError, match=r"NaN at generation 0 for point"):
            step(state, Objective(leaky, arity=2), BOX, cfg, rng)

    def test_minus_inf_scout_aborts_naming_the_point(self):
        def bottomless(t, p):
            values = (p**2).sum(axis=1)
            values[p[:, 0] > 0] = -np.inf
            return values

        cfg = small_cfg(n_individuals=30)
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        with pytest.raises(EvaluationError, match=r"-inf at generation 0 for point"):
            step(state, Objective(bottomless, arity=2), BOX, cfg, rng)

    def test_minus_inf_inside_a_burst_aborts(self):
        cfg = small_cfg()

        def bottomless_burst(t, p):
            values = (p**2).sum(axis=1)
            if len(p) == cfg.n_viral_individuals:  # a burst batch, not the scouts
                values[-1] = -np.inf
            return values

        with pytest.raises(EvaluationError, match=r"-inf at generation 0 for point"):
            run(Objective(bottomless_burst, arity=2), BOX, cfg)

    def test_trace_row_appended_per_step(self):
        cfg = small_cfg()
        rng = make_rng(2)
        state = init_state(BOX, cfg, rng)
        for expected_t in range(4):
            step(state, SPHERE, BOX, cfg, rng)
            assert state.trace[-1].generation == expected_t
        gens = [row.generation for row in state.trace]
        assert gens == sorted(set(gens))


class TestRun:
    def test_zero_generations(self):
        result = run(SPHERE, BOX, small_cfg(n_generations=0))
        assert result.best_point is None
        assert result.best_value == float("inf")
        assert result.trace == []

    def test_sphere_converges_at_moderate_budget(self):
        cfg = VSConfig(
            n_generations=100,
            n_viral_generations=75,
            n_individuals=40,
            n_viral_individuals=150,
            seed=0,
        )
        result = run(SPHERE, BOX, cfg)
        assert result.best_value < 1e-4

    def test_monotone_incumbent_static_mode(self):
        result = run(SPHERE, BOX, small_cfg(n_generations=30, seed=3))
        values = [row.fobj_global for row in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert result.best_value == min(values)

    def test_trace_points_within_bounds(self):
        result = run(SPHERE, BOX, small_cfg(n_generations=20, seed=4))
        pts = np.array([row.best_point for row in result.trace])
        assert BOX.contains(pts)

    def test_trace_rows_share_one_read_only_incumbent(self):
        result = run(SPHERE, BOX, small_cfg(n_generations=20, seed=4))
        with pytest.raises(ValueError):
            result.best_point[0] = 0.0
        assert result.trace[-1].best_point is result.best_point
        # one array per incumbent: no more arrays than bursts
        points = {id(row.best_point) for row in result.trace}
        assert len(points) <= result.epidemic_count
        assert not any(row.best_point.flags.writeable for row in result.trace)

    def test_bit_exact_reproducibility(self):
        cfg = small_cfg(n_generations=15, centers_per_axis=3, seed=11)
        a = run(SPHERE, BOX, cfg)
        b = run(SPHERE, BOX, cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_point, b.best_point)
        assert a.epidemic_count == b.epidemic_count
        for ra, rb in zip(a.trace, b.trace):
            assert ra.fobj_global == rb.fobj_global
            assert np.array_equal(ra.best_point, rb.best_point)
            assert ra.epidemics_so_far == rb.epidemics_so_far

    def test_final_value_matches_objective_at_best_point(self):
        result = run(SPHERE, BOX, small_cfg(n_generations=10, seed=5))
        final_t = result.trace[-1].generation
        assert result.best_value == pytest.approx(
            SPHERE(final_t, result.best_point), rel=1e-15
        )

    def test_overflowing_burst_draw_range_fails_before_evaluating(self):
        rows = []

        def counting(t, p):
            rows.append(len(p))
            return (p**2).sum(axis=1)

        line = Bounds([0.0], [1.0])
        cfg = small_cfg(n_viral_individuals=2_100_000)
        with pytest.raises(ConfigurationError, match="int64"):
            run(Objective(counting, arity=1), line, cfg)
        assert rows == []

    def test_oversized_center_grid_fails_before_evaluating(self):
        rows = []

        def counting(t, p):
            rows.append(len(p))
            return (p**2).sum(axis=1)

        cube = Bounds([0.0] * 3, [1.0] * 3)
        with pytest.raises(ConfigurationError, match="parallel"):
            run(Objective(counting, arity=3), cube, small_cfg(centers_per_axis=101))
        assert rows == []

    def test_time_varying_reevaluates_incumbent(self):
        drifting = Objective(
            lambda t, p: (p**2).sum(axis=1) + float(t), arity=2, time_varying=True
        )
        cfg = small_cfg(n_generations=6)
        result = run(drifting, BOX, cfg)
        values = [row.fobj_global for row in result.trace]
        # the floor rises by one per generation, so the refreshed incumbent
        # value must increase somewhere along the trace
        assert any(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_time_varying_objective_refreshes_without_the_config_flag(self, seed):
        # the objective's own flag is enough: the reported value is the
        # landscape's value at the reported point in the last generation
        spec = make_benchmark("two_well", tau=50.0)
        cfg = VSConfig(n_generations=300, n_viral_generations=10, n_individuals=30,
                       n_viral_individuals=20, seed=seed)
        result = run(spec.objective, spec.bounds, cfg)
        assert result.best_value == spec.objective(cfg.n_generations - 1, result.best_point)

    def test_plus_inf_everywhere_runs_to_completion(self):
        infeasible = Objective(lambda t, p: np.full(len(p), np.inf), arity=2)
        result = run(infeasible, BOX, small_cfg(n_generations=5))
        assert len(result.trace) == 5
        assert result.best_value == np.inf

    def test_plus_inf_everywhere_fires_no_burst(self):
        infeasible = Objective(lambda t, p: np.full(len(p), np.inf), arity=2)
        result = run(infeasible, BOX, small_cfg(n_generations=5))
        assert result.epidemic_count == 0

    def test_plus_inf_on_half_the_box_keeps_a_finite_incumbent(self):
        half = Objective(
            lambda t, p: np.where(p[:, 0] < 0.0, np.inf, (p**2).sum(axis=1)), arity=2
        )
        result = run(half, BOX, small_cfg(n_generations=20))
        assert result.epidemic_count >= 1
        assert np.isfinite(result.best_value)
        assert result.best_point[0] >= 0.0
        assert result.best_value == half(0, result.best_point)

    def test_arity_mismatch_rejected(self):
        bad = Objective(lambda t, p: p.sum(axis=1), arity=3)
        with pytest.raises(ConfigurationError):
            run(bad, BOX, small_cfg())

    def test_bad_burst_population_fails_fast(self):
        with pytest.raises(ConfigurationError):
            run(SPHERE, BOX, small_cfg(n_viral_individuals=2))


def counting_flat():
    """A flat objective, `p[:, 0] * 0.0`, and the list of its batch sizes."""
    calls = []

    def f(t, p):
        calls.append(len(p))
        return p[:, 0] * 0.0

    return Objective(f, arity=2), calls


class TestConfigChecks:
    """`check_config` rejects a burst draw range past int64, an oversized
    center grid, a walk that can overflow and a burst cube that can round
    to a point, and `init_state` runs it before any draw."""

    HUGE = Bounds([-4e307] * 2, [4e307] * 2)

    @pytest.mark.parametrize("b, overrides, match", [
        (BOX, {"n_viral_individuals": 2**22}, "more than int64 can draw"),
        (HUGE, {"walk_step_fraction": 1.0}, "walk_step_fraction=1.0 lets a walk step overflow"),
        (Bounds([1e16] * 2, [1e16 + 4] * 2), {}, "epidemic_radius_fraction=0.05 gives axis 0"),
        # the engine caps the grid; the reference grid builds any size
        (Bounds([0.0] * 3, [1.0] * 3), {"centers_per_axis": 101},
         "101 centers per axis over 3 axes would create 1030301 centers"),
        # (2**32)**2 wraps to 0 in int64, which would turn the grid off
        (BOX, {"centers_per_axis": np.int64(2**32)}, "would create 18446744073709551616 centers"),
    ], ids=["draw-range", "walk", "cube", "grid", "numpy-grid"])
    def test_init_state_rejects_before_any_draw(self, b, overrides, match):
        rng = make_rng(0)
        before = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(ConfigurationError, match=match):
            init_state(b, small_cfg(**overrides), rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("fraction", [1.0, 0.06])
    def test_a_walk_that_can_overflow_is_rejected(self, fraction):
        obj, calls = counting_flat()
        cfg = small_cfg(n_generations=20, walk_step_fraction=fraction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="walk_step_fraction"):
                run(obj, self.HUGE, cfg)
        assert calls == []

    @pytest.mark.parametrize("seed", range(5))
    def test_a_walk_within_the_bound_runs_without_overflow(self, seed):
        # 3 * 4e307 + 14 * 0.05 * 8e307 = 1.76e308 is finite
        obj, calls = counting_flat()
        cfg = small_cfg(n_generations=20, walk_step_fraction=0.05, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(obj, self.HUGE, cfg)
        assert result.best_value == 0.0 and len(calls) >= 20

    @pytest.mark.parametrize("lb, ub, axis", [([1e16] * 2, [1e16 + 4] * 2, 0),
                                              ([0.0, 1e16], [1.0, 1e16 + 4], 1)])
    def test_a_burst_cube_that_rounds_to_a_point_is_rejected(self, lb, ub, axis):
        obj, calls = counting_flat()
        with pytest.raises(ConfigurationError,
                           match=f"epidemic_radius_fraction=0.05 gives axis {axis} "):
            run(obj, Bounds(lb, ub), small_cfg())
        assert calls == []

    def test_parallel_run_checks_every_worker_box_first(self):
        # the whole box's cube is 1.6 wide around 1e16, where floats are 2
        # apart; worker 0's half of axis 0 gives 0.8, which rounds away
        obj, calls = counting_flat()
        box = Bounds([1e16] * 2, [1e16 + 64] * 2)
        cfg = small_cfg(epidemic_radius_fraction=0.025)
        check_config(box, cfg)
        with pytest.raises(ConfigurationError, match="epidemic_radius_fraction=0.025 gives axis 0"):
            parallel_run(obj, box, cfg, m=2)
        assert calls == []

    def test_a_sweep_cell_whose_cube_collapses_gives_error_rows(self):
        # on [-3, 3] a half-width of 6e-17 is below half the float spacing
        # near 3, 2.2e-16
        spec = ExperimentSpec(
            benchmark="rosenbrock", sweep_fields=("epidemic_radius_fraction",),
            cells=((1e-17,), (0.05,)), repeat=2,
            base={"n_individuals": 6, "n_generations": 3, "n_viral_individuals": 6,
                  "n_viral_generations": 3},
        )
        rows = run_experiment(spec)
        statuses = [(r.sweep["epidemic_radius_fraction"], r.kind, r.status) for r in rows]
        assert [s[:2] for s in statuses] == [(1e-17, "run")] * 2 + [(1e-17, "median")] + [
            (0.05, "run")] * 2 + [(0.05, "median")]
        assert all(s.startswith("error: ConfigurationError: epidemic_radius_fraction=1e-17")
                   for _, _, s in statuses[:3])
        assert all(s == "ok" for _, _, s in statuses[3:])

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.sampled_from([1e16, -1e16, 2.0**53, -(2.0**53), 3.0, 0.5, 1e300]),
        offset=st.integers(-3, 3),
        floats=st.sampled_from([1, 2, 3, 4, 5, 8, 16, 24]),
        ulps=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 3.0)),
    )
    def test_the_cube_check_agrees_with_every_trigger(self, start, offset, floats, ulps):
        # a one-axis box of `floats` + 1 floats near `start`, and a cube
        # half-width around one float spacing there; at half a spacing,
        # x +/- h ties, and rounds to x only where x is even
        lb = start
        for _ in range(abs(offset)):
            lb = np.nextafter(lb, np.inf if offset > 0 else -np.inf)
        points = [lb]
        for _ in range(floats):
            points.append(np.nextafter(points[-1], np.inf))
        box = Bounds([points[0]], [points[-1]])
        fraction = min(1.0, ulps * np.spacing(abs(points[-1])) / box.span[0])
        cfg = small_cfg(epidemic_radius_fraction=fraction)
        collapses = any(not (lo < hi).all() for lo, hi in
                        (_burst_cube(np.array([x]), box, cfg) for x in points))
        if collapses:
            with pytest.raises(ConfigurationError, match="epidemic_radius_fraction"):
                check_config(box, cfg)
        else:
            check_config(box, cfg)
