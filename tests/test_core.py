import numpy as np
import pytest

from viralsearch.core import (
    Bounds,
    ConfigurationError,
    EvaluationError,
    Objective,
    child_seed,
    clamp_to_bounds,
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
    uniform_sample,
)

BOX = Bounds([-3.0, -3.0], [3.0, 3.0])
UNIT = Bounds([0.0, 0.0], [1.0, 1.0])


class TestBounds:
    def test_dim_and_span(self):
        assert BOX.dim == 2
        assert np.allclose(BOX.span, [6.0, 6.0])

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            Bounds([0.0, 0.0], [0.0, 1.0])

    def test_inverted_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            Bounds([1.0], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Bounds([0.0], [1.0, 2.0])


class TestClamp:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ((5.0, 0.0), (3.0, 0.0)),
            ((1.0, 1.0), (1.0, 1.0)),
            ((-10.0, 10.0), (-3.0, 3.0)),
        ],
    )
    def test_examples(self, p, expected):
        assert np.allclose(clamp_to_bounds(np.array(p), BOX), expected)

    def test_idempotent_on_random_points(self):
        rng = make_rng(0)
        pts = rng.uniform(-20, 20, size=(500, 2))
        once = clamp_to_bounds(pts, BOX)
        assert np.array_equal(clamp_to_bounds(once, BOX), once)
        assert BOX.contains(once)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            clamp_to_bounds(np.array([1.0, 2.0, 3.0]), BOX)


class TestReflect:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ((4.0, 0.0), (2.0, 0.0)),
            ((0.0, 0.0), (0.0, 0.0)),
            ((-3.5, 3.5), (-2.5, 2.5)),
        ],
    )
    def test_examples(self, p, expected):
        assert np.allclose(reflect_into_bounds(np.array(p), BOX), expected)

    def test_interior_points_unchanged(self):
        rng = make_rng(1)
        pts = rng.uniform(-3, 3, size=(500, 2))
        assert np.allclose(reflect_into_bounds(pts, BOX), pts)

    def test_contained_for_any_overshoot(self):
        rng = make_rng(2)
        pts = rng.uniform(-40, 40, size=(2000, 2))
        assert BOX.contains(reflect_into_bounds(pts, BOX))

    def test_matches_iterated_reflection(self):
        b = Bounds([0.0], [1.0])

        def reflect_slow(x):
            while x < 0.0 or x > 1.0:
                x = -x if x < 0.0 else 2.0 - x
            return x

        for x in (-0.3, 1.2, 2.3, -1.7, 3.05, 4.0):
            got = reflect_into_bounds(np.array([x]), b)[0]
            assert got == pytest.approx(reflect_slow(x), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reflect_into_bounds(np.array([0.0]), BOX)


class TestUniformSample:
    def test_within_bounds_any_seed(self):
        for seed in range(20):
            p = uniform_sample(BOX, make_rng(seed))
            assert BOX.contains(p[None, :])

    def test_per_axis_mean_matches_uniform_law(self):
        rng = make_rng(3)
        samples = np.array([uniform_sample(UNIT, rng) for _ in range(10_000)])
        means = samples.mean(axis=0)
        assert (means > 0.47).all() and (means < 0.53).all()


def _max_gap(samples: np.ndarray) -> float:
    # coverage proxy: largest hole between neighboring sorted samples,
    # including the edges of the unit interval
    s = np.sort(samples)
    return float(np.diff(np.concatenate([[0.0], s, [1.0]])).max())


class TestStratifiedInit:
    def test_single_member_inside(self):
        pop = stratified_init(BOX, 1, make_rng(0))
        assert pop.shape == (1, 2)
        assert BOX.contains(pop)

    def test_four_members_hit_distinct_quarters(self):
        pop = stratified_init(UNIT, 4, make_rng(5))
        for axis in range(2):
            strata = np.floor(pop[:, axis] * 4).astype(int)
            assert sorted(strata.tolist()) == [0, 1, 2, 3]

    def test_lower_discrepancy_than_random_cloud(self):
        wins = 0
        for trial in range(100):
            strat = stratified_init(UNIT, 100, make_rng(1000 + trial))
            cloud = random_init(UNIT, 100, make_rng(1000 + trial))
            better = all(
                _max_gap(strat[:, j]) < _max_gap(cloud[:, j]) for j in range(2)
            )
            wins += better
        assert wins >= 90

    def test_seeded_determinism_is_byte_identical(self):
        a = stratified_init(BOX, 64, make_rng(7))
        b = stratified_init(BOX, 64, make_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_random_cloud_determinism(self):
        a = random_init(BOX, 64, make_rng(7))
        b = random_init(BOX, 64, make_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_always_within_bounds(self):
        for seed in range(10):
            assert BOX.contains(stratified_init(BOX, 33, make_rng(seed)))


class TestRngPlumbing:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            make_rng(-1)

    def test_child_seed_deterministic(self):
        assert child_seed(42, 3) == child_seed(42, 3)

    def test_child_seeds_distinct_across_indices(self):
        seeds = {child_seed(42, i) for i in range(64)}
        assert len(seeds) == 64

    def test_child_seed_depends_on_parent(self):
        assert child_seed(1, 0) != child_seed(2, 0)


class TestObjective:
    def test_single_and_batch_agree(self):
        obj = Objective(lambda t, p: (p**2).sum(axis=1), arity=2)
        pts = make_rng(0).uniform(-1, 1, size=(50, 2))
        batch = obj.evaluate_many(0, pts)
        singles = np.array([obj(0, p) for p in pts])
        assert np.allclose(batch, singles)

    def test_arity_enforced(self):
        obj = Objective(lambda t, p: p.sum(axis=1), arity=3)
        with pytest.raises(ValueError):
            obj.evaluate_many(0, np.zeros((4, 2)))

    def test_time_passed_through(self):
        obj = Objective(lambda t, p: np.full(len(p), float(t)), arity=1,
                        time_varying=True)
        assert obj(5, np.array([0.0])) == 5.0
        assert obj(9, np.array([0.0])) == 9.0

    def test_nan_raises_naming_generation_and_point(self):
        obj = Objective(lambda t, p: np.where(p[:, 0] > 0, np.nan, 1.0), arity=2)
        pts = np.array([[-1.0, 0.0], [0.5, 0.25], [2.0, 0.0]])
        with pytest.raises(
            EvaluationError, match=r"NaN at generation 3 for point \[0\.5, 0\.25\]"
        ):
            obj.evaluate_many(3, pts)

    def test_minus_inf_raises_naming_generation_and_point(self):
        obj = Objective(lambda t, p: np.where(p[:, 0] > 0, -np.inf, 1.0), arity=2)
        with pytest.raises(
            EvaluationError, match=r"-inf at generation 7 for point \[1\.0, 2\.0\]"
        ):
            obj(7, np.array([1.0, 2.0]))

    def test_plus_inf_is_a_legal_penalty(self):
        obj = Objective(lambda t, p: np.where(p[:, 0] > 0, np.inf, 1.0), arity=2)
        values = obj.evaluate_many(0, np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert values.tolist() == [1.0, np.inf]
