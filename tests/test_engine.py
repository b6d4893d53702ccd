import itertools
import tracemalloc

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
)
from viralsearch.engine import (
    EngineState,
    VSConfig,
    _center_indices,
    init_state,
    make_centers,
    move_random,
    nearest_center,
    rebalance,
    run,
    step,
    trigger_epidemic,
)
from viralsearch.local_search import DEConfig

BOX = Bounds([-3.0, -3.0], [3.0, 3.0])
SPHERE = Objective(lambda t, p: (p**2).sum(axis=1), arity=2, name="sphere")


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
            ("rebalance_fraction", 1.5),
            ("trigger_tolerance", -1.0),
            ("stagnation_window", 0),
            ("init", "sobol"),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            small_cfg(**{field: value})


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

    def test_center_count_guard(self):
        b3 = Bounds([0.0] * 3, [1.0] * 3)
        with pytest.raises(ConfigurationError, match="parallel"):
            make_centers(b3, 101)  # 101^3 > 1e6


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

    @pytest.mark.parametrize("walk_boundary", ["reflect", "clamp"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_walls_map_to_the_end_cells(self, walk_boundary, k):
        b = Bounds([-3.0, 0.0, 1.0], [3.0, 10.0, 1.5])
        corners = np.array(list(itertools.product(*zip(b.lb, b.ub))))
        cells = np.where(corners == b.ub, k - 1, 0)
        expected = np.ravel_multi_index(tuple(cells.T), (k,) * 3)
        assert _center_indices(corners, b, k).tolist() == expected.tolist()
        # scouts on the walls stay within a 1e-12-span step of them, folded
        # back in or pinned by the boundary policy
        cfg = small_cfg(centers_per_axis=k, walk_boundary=walk_boundary,
                        walk_step_fraction=1e-12)
        state = init_state(b, cfg, make_rng(0))
        state.population = np.repeat(corners, 20, axis=0)
        move_random(state, b, cfg, make_rng(1))
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
        cfg = small_cfg(n_individuals=200, centers_per_axis=10, rebalance_fraction=0.5)
        rng = make_rng(0)
        state = init_state(b, cfg, rng)
        tracemalloc.start()
        try:
            move_random(state, b, cfg, rng)
            rebalance(state, b, cfg, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestMoveRandom:
    def test_vanishing_step_scale(self):
        cfg = small_cfg(walk_step_fraction=1e-12)
        state = EngineState(population=np.zeros((10_000, 2)))
        before = state.population.copy()
        move_random(state, BOX, cfg, make_rng(0))
        assert np.abs(state.population - before).max() < 1e-9 * 6.0

    def test_contained_over_many_moves(self):
        cfg = small_cfg(walk_step_fraction=0.3)
        rng = make_rng(1)
        state = EngineState(population=rng.uniform(-3, 3, size=(1000, 2)))
        for _ in range(100):
            move_random(state, BOX, cfg, rng)
            assert BOX.contains(state.population)

    def test_step_scale_matches_gaussian_law(self):
        cfg = small_cfg(walk_step_fraction=0.1)
        state = EngineState(population=np.zeros((100_000, 2)))
        move_random(state, BOX, cfg, make_rng(2))
        stdev = state.population.std(axis=0)
        # expected 0.1 * range = 0.6 per axis; reflection is negligible 5
        # sigmas from the walls
        assert np.abs(stdev - 0.6).max() < 0.02

    def test_visit_counts_accumulate(self):
        cfg = small_cfg(centers_per_axis=2)
        rng = make_rng(3)
        state = init_state(BOX, cfg, rng)
        assert state.visit_counts.sum() == 0
        move_random(state, BOX, cfg, rng)
        assert state.visit_counts.sum() == cfg.n_individuals
        nearest = [nearest_center(p, state.centers) for p in state.population]
        assert np.array_equal(state.visit_counts, np.bincount(nearest, minlength=4))


class TestRebalance:
    def two_center_state(self, positions):
        b = Bounds([0.0], [1.0])
        centers = make_centers(b, 2)  # [[0.25], [0.75]]
        return b, EngineState(
            population=np.asarray(positions, dtype=float).reshape(-1, 1),
            centers=centers,
            visit_counts=np.zeros(2, dtype=np.int64),
        )

    def test_zero_fraction_is_a_noop(self):
        b, state = self.two_center_state([0.2] * 8)
        state.visit_counts[:] = (10, 0)
        before = state.population.copy()
        cfg = small_cfg(centers_per_axis=2, rebalance_fraction=0.0)
        rebalance(state, b, cfg, make_rng(0))
        assert np.array_equal(state.population, before)

    def test_moves_toward_least_visited_center(self):
        b, state = self.two_center_state([0.2] * 8)
        state.visit_counts[:] = (10, 0)
        cfg = small_cfg(centers_per_axis=2, rebalance_fraction=0.5)
        rebalance(state, b, cfg, make_rng(4))
        k = 4
        assert len(state.population) == 8
        assert (state.population[:, 0] > 0.5).sum() >= k
        assert np.array_equal(state.visit_counts, [10, 0])

    def test_mover_destinations_center_on_the_quiet_side(self):
        # over many seeds the teleported scouts average near the quiet
        # center, not merely past the midpoint
        cfg = small_cfg(centers_per_axis=2, rebalance_fraction=0.5)
        moved = []
        for seed in range(200):
            b, state = self.two_center_state([0.2] * 8)
            state.visit_counts[:] = (10, 0)
            rebalance(state, b, cfg, make_rng(seed))
            moved.extend(state.population[state.population[:, 0] != 0.2, 0])
        # Gaussian around 0.75 with stdev 0.25, folded at the upper wall:
        # the fold pulls the mean down to about 0.71
        assert 0.68 < np.mean(moved) < 0.74

    def test_scatter_spread_matches_half_spacing(self):
        b, state = self.two_center_state([0.2] * 4000)
        state.visit_counts[:] = (10, 0)
        cfg = small_cfg(centers_per_axis=2, rebalance_fraction=1.0)
        rebalance(state, b, cfg, make_rng(1))
        moved = state.population[:, 0]
        # mean fraction reflected below the midpoint of a Gaussian around
        # 0.75 with stdev 0.25 is about 16 percent
        frac_near_old = (moved < 0.5).mean()
        assert 0.10 < frac_near_old < 0.22

    def test_equal_counts_conserves_population(self):
        b, state = self.two_center_state([0.1, 0.3, 0.6, 0.9])
        cfg = small_cfg(centers_per_axis=2, rebalance_fraction=0.5)
        rebalance(state, b, cfg, make_rng(5))
        assert state.population.shape == (4, 1)
        assert b.contains(state.population)


class TestTriggerEpidemic:
    def test_corner_trigger_clips_region(self):
        cfg = small_cfg(n_viral_individuals=20, n_viral_generations=25)
        corner = np.array([-3.0, -3.0])
        point, value = trigger_epidemic(
            corner, BOX, cfg, DEConfig(), SPHERE, t=0, rng=make_rng(0)
        )
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
        point, value = trigger_epidemic(
            trigger, BOX, cfg, DEConfig(), SPHERE, t=0, rng=make_rng(1)
        )
        # the burst degenerates to a global search and finds the origin
        assert value < 1e-6

    def test_interior_trigger_strictly_improves(self):
        bench = make_benchmark("rosenbrock")
        cfg = small_cfg(n_viral_individuals=150, n_viral_generations=75)
        trigger = np.array([1.2, 1.4])
        start = bench.objective(0, trigger)
        assert start == pytest.approx(0.2, abs=1e-12)
        point, value = trigger_epidemic(
            trigger, bench.bounds, cfg, DEConfig(), bench.objective, t=0,
            rng=make_rng(2),
        )
        assert value < start


class TestStep:
    def test_constant_objective_triggers_exactly_once(self):
        constant = Objective(lambda t, p: np.full(len(p), 5.0), arity=2)
        cfg = small_cfg()
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        step(state, constant, BOX, cfg, DEConfig(), rng)
        assert state.epidemic_count == 1
        assert state.fobj_global == 5.0

    def test_no_trigger_below_optimal_incumbent(self):
        bench = make_benchmark("rosenbrock")
        cfg = small_cfg()
        rng = make_rng(1)
        state = init_state(BOX, cfg, rng)
        state.fobj_global = 0.0
        state.best_individual_global = np.array([1.0, 1.0])
        step(state, bench.objective, BOX, cfg, DEConfig(), rng)
        assert state.epidemic_count == 0
        assert state.fobj_global == 0.0

    def test_incumbent_beats_initial_population(self):
        cfg = small_cfg(n_individuals=40, n_viral_individuals=30,
                        n_viral_generations=20, seed=7)
        rng = make_rng(cfg.seed)
        state = init_state(BOX, cfg, rng)
        initial_best = SPHERE.evaluate_many(0, state.population).min()
        step(state, SPHERE, BOX, cfg, DEConfig(), rng)
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
            step(state, Objective(leaky, arity=2), BOX, cfg, DEConfig(), rng)

    def test_minus_inf_scout_aborts_naming_the_point(self):
        def bottomless(t, p):
            values = (p**2).sum(axis=1)
            values[p[:, 0] > 0] = -np.inf
            return values

        cfg = small_cfg(n_individuals=30)
        rng = make_rng(0)
        state = init_state(BOX, cfg, rng)
        with pytest.raises(EvaluationError, match=r"-inf at generation 0 for point"):
            step(state, Objective(bottomless, arity=2), BOX, cfg, DEConfig(), rng)

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
            step(state, SPHERE, BOX, cfg, DEConfig(), rng)
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

    def test_stagnation_window_stops_early(self):
        constant = Objective(lambda t, p: np.full(len(p), 5.0), arity=2)
        cfg = small_cfg(n_generations=50, stagnation_window=3)
        result = run(constant, BOX, cfg)
        assert len(result.trace) == 4  # improvement at t=0, three flat, stop

    def test_time_varying_reevaluates_incumbent(self):
        drifting = Objective(
            lambda t, p: (p**2).sum(axis=1) + float(t), arity=2, time_varying=True
        )
        cfg = small_cfg(n_generations=6, time_varying=True, trigger_tolerance=1e-9)
        result = run(drifting, BOX, cfg)
        values = [row.fobj_global for row in result.trace]
        # the floor rises by one per generation, so the refreshed incumbent
        # value must increase somewhere along the trace
        assert any(b > a for a, b in zip(values, values[1:]))

    def test_plus_inf_everywhere_runs_to_completion(self):
        infeasible = Objective(lambda t, p: np.full(len(p), np.inf), arity=2)
        result = run(infeasible, BOX, small_cfg(n_generations=5))
        assert len(result.trace) == 5
        assert result.best_value == np.inf

    def test_arity_mismatch_rejected(self):
        bad = Objective(lambda t, p: p.sum(axis=1), arity=3)
        with pytest.raises(ConfigurationError):
            run(bad, BOX, small_cfg())

    def test_bad_burst_population_fails_fast(self):
        with pytest.raises(ConfigurationError):
            run(SPHERE, BOX, small_cfg(n_viral_individuals=2))

    def test_random_cloud_initializer(self):
        cfg = small_cfg(init="random", n_generations=5)
        result = run(SPHERE, BOX, cfg)
        assert len(result.trace) == 5

    def test_clamped_walk_boundary_policy(self):
        cfg = small_cfg(walk_boundary="clamp", walk_step_fraction=0.4,
                        n_generations=20, centers_per_axis=2)
        rng = make_rng(6)
        state = init_state(BOX, cfg, rng)
        for _ in range(cfg.n_generations):
            step(state, SPHERE, BOX, cfg, DEConfig(), rng)
            assert BOX.contains(state.population)
        # clamping accumulates scouts exactly on the walls, reflection
        # does not
        assert (np.abs(state.population) == 3.0).any()
