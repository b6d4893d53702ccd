import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from viralsearch.harness import split_bounds

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

    def test_copies_the_callers_arrays(self):
        lb, ub = np.zeros(2), np.ones(2)
        b = Bounds(lb, ub)
        lb[:] = 5.0
        ub[:] = -5.0
        assert b.lb.tolist() == [0.0, 0.0]
        assert b.ub.tolist() == [1.0, 1.0]
        assert b.span.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("name", ["lb", "ub", "span"])
    def test_arrays_are_read_only(self, name):
        b = Bounds([-1.0, 0.5], [2.0, 4.0])
        with pytest.raises(ValueError):
            getattr(b, name)[0] = 9.0
        assert b.lb.tolist() == [-1.0, 0.5] and b.ub.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))]
    )
    def test_copies_stay_read_only(self, clone):
        b = clone(Bounds([-1.0, 0.5], [2.0, 4.0]))
        assert b.lb.tolist() == [-1.0, 0.5] and b.ub.tolist() == [2.0, 4.0]
        assert b.span.tolist() == [3.0, 3.5]
        for name in ("lb", "ub", "span"):
            with pytest.raises(ValueError):
                getattr(b, name)[0] = 9.0

    def test_span_is_ub_minus_lb(self):
        b = Bounds([-0.1, 1e-8, -3.0], [0.2, 7.0, 3.0])
        assert np.array_equal(b.span, b.ub - b.lb)
        assert b.span is b.span

    def test_eq_and_repr_show_only_the_limits(self):
        b = Bounds([0.0], [1.0])
        assert repr(b) == "Bounds(lb=array([0.]), ub=array([1.]))"
        assert Bounds([0.0], [1.0]) == b

    def test_eq_compares_limits_by_value(self):
        assert Bounds([0.0, 0.0], [1.0, 1.0]) == Bounds([0.0, 0.0], [1.0, 1.0])
        assert Bounds([0.0, 0.0], [1.0, 1.0]) != Bounds([0.0, 0.0], [1.0, 2.0])
        assert Bounds([0.0, 0.0], [1.0, 1.0]) != Bounds([0.0, -1.0], [1.0, 1.0])
        assert Bounds([0.0, 0.0], [1.0, 1.0]) != Bounds([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert BOX != (BOX.lb, BOX.ub)
        # a fresh box, so list equality cannot fall back on identity
        assert split_bounds(BOX, 1) == [Bounds(BOX.lb, BOX.ub)]


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

    def test_interior_points_move_at_most_one_ulp(self):
        # interior points come back as lb + (p - lb); a Gaussian nudge takes
        # them off the grid of rng.uniform(-3, 3), where that round trip is
        # exact (0.1 comes back as 0.10000000000000009)
        rng = make_rng(1)
        pts = rng.uniform(-2.9, 2.9, size=(500, 2)) + rng.normal(0.0, 0.01, size=(500, 2))
        assert BOX.contains(pts)
        got = reflect_into_bounds(pts, BOX)
        assert (np.abs(got - pts) <= np.spacing(BOX.span)).all()

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), n=st.integers(1, 12))
    def test_bit_identical_to_the_clipped_fold(self, data, dim, n):
        # walls are never -0.0: against a -0.0 wall numpy's own clip returns
        # either zero depending on the array's shape (x + 0.0 maps -0.0 to 0.0)
        lb = np.array([
            data.draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3).map(lambda x: x + 0.0)))
            for _ in range(dim)
        ])
        span = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
        b = Bounds(lb, lb + np.array(span))
        size = dict(min_size=n * dim, max_size=n * dim)
        # each coordinate is on the lower wall, on the upper wall, -0.0, or
        # lb + k spans with k from several spans below to several above
        kind = np.array(data.draw(st.lists(st.integers(0, 3), **size))).reshape(n, dim)
        k = np.array(data.draw(st.lists(st.floats(-6.0, 7.0), **size))).reshape(n, dim)
        p = np.select([kind == 0, kind == 1, kind == 2],
                      [np.broadcast_to(b.lb, (n, dim)), np.broadcast_to(b.ub, (n, dim)), -0.0],
                      b.lb + k * b.span)

        span = b.span
        y = np.mod(p - b.lb, 2.0 * span)
        expected = np.clip(b.lb + np.where(y > span, 2.0 * span - y, y), b.lb, b.ub)
        got = reflect_into_bounds(p, b)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @staticmethod
    def _box(data, dim):
        # as above: walls are never -0.0
        lb = np.array([
            data.draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3).map(lambda x: x + 0.0)))
            for _ in range(dim)
        ])
        span = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
        return Bounds(lb, lb + np.array(span))

    @staticmethod
    def _near(data, b, n):
        # each coordinate is on a wall, -0.0, or lb + k spans with |k| < 2,
        # which is the range where the fold needs no np.mod
        dim = b.dim
        size = dict(min_size=n * dim, max_size=n * dim)
        kind = np.array(data.draw(st.lists(st.integers(0, 3), **size))).reshape(n, dim)
        k = st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
        k = np.array(data.draw(st.lists(k, **size))).reshape(n, dim)
        return np.select([kind == 0, kind == 1, kind == 2],
                         [np.broadcast_to(b.lb, (n, dim)), np.broadcast_to(b.ub, (n, dim)), -0.0],
                         b.lb + k * b.span)

    @staticmethod
    def _clipped_fold(p, b):
        span = b.span
        y = np.mod(p - b.lb, 2.0 * span)
        return np.clip(b.lb + np.where(y > span, 2.0 * span - y, y), b.lb, b.ub)

    @classmethod
    def _either_branch(cls, data, b, n):
        p = cls._near(data, b, n)
        if data.draw(st.booleans()):
            # one coordinate two or more spans from lb sends the whole
            # array through np.mod
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, b.dim - 1))
            k = data.draw(st.one_of(st.floats(-6.0, -2.0), st.floats(2.0, 7.0)))
            p[i, j] = b.lb[j] + k * b.span[j]
        return p

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), n=st.integers(1, 12))
    def test_bit_identical_on_both_fold_branches(self, data, dim, n):
        b = self._box(data, dim)
        p = self._either_branch(data, b, n)
        expected = self._clipped_fold(p, b)
        got = reflect_into_bounds(p, b)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), n=st.integers(1, 12))
    def test_memory_order_leaves_values_unchanged(self, data, dim, n):
        # the engine passes Fortran-ordered scouts; both boundary policies
        # must give the same bits, and keep that order, on either fold branch
        b = self._box(data, dim)
        p = self._either_branch(data, b, n)
        for policy in (reflect_into_bounds, clamp_to_bounds):
            if policy is clamp_to_bounds:
                # np.clip returns either zero for -0.0 on a +0.0 wall, by the
                # array's layout as by its shape; a walk sum is -0.0 only
                # when both of its terms are
                p = p + 0.0
            expected = policy(p, b)
            got = policy(np.asfortranarray(p), b)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert got.flags.f_contiguous

    def test_upper_clip_keeps_the_upper_wall_inside(self):
        b = Bounds([-0.1], [0.2])
        # lb + span rounds past ub on this box, so without the clip a point
        # on ub would fold outside it
        assert (b.ub - b.lb) + b.lb > b.ub
        for k in (0, 1, 2):
            p = b.ub + k * b.span
            got = reflect_into_bounds(p, b)
            assert b.contains(got, atol=0.0)
            assert np.array_equal(got, self._clipped_fold(p, b))


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

    @pytest.mark.parametrize(
        "returned, count",
        [
            (lambda p: np.array([1.0]), 1),  # one value for the whole batch
            (lambda p: p * 1.0, 6),  # an (n, d) array
            (lambda p: np.ones(4), 4),
        ],
    )
    def test_wrong_value_count_raises_naming_both_counts(self, returned, count):
        obj = Objective(lambda t, p: returned(p), arity=2)
        with pytest.raises(
            EvaluationError,
            match=rf"returned {count} values for 3 points at generation 4",
        ):
            obj.evaluate_many(4, np.zeros((3, 2)))

    def test_column_of_values_is_legal(self):
        obj = Objective(lambda t, p: p[:, :1] * 2.0, arity=2)
        values = obj.evaluate_many(0, np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert values.shape == (2,) and values.tolist() == [2.0, 6.0]

    def test_no_points_give_no_values(self):
        obj = Objective(lambda t, p: (p**2).sum(axis=1), arity=2)
        values = obj.evaluate_many(0, np.zeros((0, 2)))
        assert values.shape == (0,) and values.dtype == float

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 50), data=st.data())
    def test_nan_or_minus_inf_anywhere_gives_the_first_bad_point(self, n, data):
        bad = st.sampled_from([np.nan, -np.inf])
        good = st.sampled_from([0.0, -1e300, 7.5, np.inf])
        values = np.array(
            data.draw(st.lists(st.one_of(good, bad), min_size=n, max_size=n))
        )
        i = data.draw(st.integers(0, n - 1))
        values[i] = data.draw(bad)
        points = np.arange(2.0 * n).reshape(n, 2)
        obj = Objective(lambda t, p: values.copy(), arity=2)
        # the message the per-row mask names: the first NaN or -inf row
        first = int(np.argmin(values > -np.inf))
        kind = "NaN" if np.isnan(values[first]) else "-inf"
        expected = (
            f"objective returned {kind} at generation 6 for point "
            f"{points[first].tolist()}"
        )
        with pytest.raises(EvaluationError) as info:
            obj.evaluate_many(6, points)
        assert str(info.value) == expected

    def test_plus_inf_is_a_legal_penalty(self):
        obj = Objective(lambda t, p: np.where(p[:, 0] > 0, np.inf, 1.0), arity=2)
        values = obj.evaluate_many(0, np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert values.tolist() == [1.0, np.inf]
