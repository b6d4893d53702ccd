import copy
import pickle
import warnings
from fractions import Fraction

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
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
)
from viralsearch.harness import split_bounds
from reference import masked_fold

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

    @pytest.mark.parametrize("name", ["lb", "ub", "span", "period"])
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

    def test_period_is_twice_the_span(self):
        b = Bounds([-0.1, 1e-8, -3.0], [0.2, 7.0, 3.0])
        assert np.array_equal(b.period, 2.0 * (b.ub - b.lb))
        assert b.period is b.period

    @pytest.mark.parametrize(
        "lb, ub",
        [([-1.7e308], [0.0]), ([-1e308], [1e308]), ([0.0, 1e308], [1.0, 1.5e308])],
        ids=["period", "span", "doubled-walls"],
    )
    def test_limits_whose_span_or_doubled_walls_overflow_are_rejected(self, lb, ub):
        # the fold would return NaN for a point just outside such a box
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="bounds too wide"):
                Bounds(lb, ub)

    def test_a_box_whose_doubled_walls_are_finite_is_kept(self):
        b = Bounds([-4e307], [4e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = reflect_into_bounds(np.array([[4.5e307], [-9e307]]), b)
        assert b.contains(p)
        assert p.tolist() == [[(b.ub[0] + b.ub[0]) - 4.5e307], [(b.lb[0] + b.lb[0]) + 9e307]]

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

    def test_hash_agrees_with_eq(self):
        assert hash(Bounds([0.0], [1.0])) == hash(Bounds(np.zeros(1), np.ones(1)))
        # -0.0 == 0.0, so the two boxes are equal and must hash alike
        assert Bounds([-0.0, 1.0], [1.0, 2.0]) == Bounds([0.0, 1.0], [1.0, 2.0])
        assert hash(Bounds([-0.0, 1.0], [1.0, 2.0])) == hash(Bounds([0.0, 1.0], [1.0, 2.0]))

    def test_usable_as_dict_key_and_set_member(self):
        table = {Bounds([0.0, 0.0], [1.0, 1.0]): "unit", BOX: "box"}
        assert table[Bounds([-0.0, 0.0], [1.0, 1.0])] == "unit"
        assert table[Bounds([-3.0, -3.0], [3.0, 3.0])] == "box"
        assert Bounds([0.0, 0.0], [1.0, 2.0]) not in table
        boxes = {Bounds([0.0], [1.0]), Bounds([-0.0], [1.0]), Bounds([0.0], [2.0])}
        assert len(boxes) == 2
        assert Bounds([0.0], [2.0]) in boxes


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
        # a Gaussian nudge takes the points off the grid of rng.uniform(-3, 3);
        # the bound of the name holds with room to spare: an interior point
        # comes back as itself, so it moves by no ulp at all
        rng = make_rng(1)
        pts = rng.uniform(-2.9, 2.9, size=(500, 2)) + rng.normal(0.0, 0.01, size=(500, 2))
        assert BOX.contains(pts)
        assert np.array_equal(reflect_into_bounds(pts, BOX), pts)

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

    # each axis is [x, x + span], or has a zero wall of either sign
    WALLS = st.lists(st.sampled_from(["any", "+0 lb", "-0 lb", "+0 ub", "-0 ub"]),
                     min_size=1, max_size=5)

    @staticmethod
    def _box(walls, rng):
        span = 10.0 ** rng.uniform(-3.0, 3.0, len(walls))
        x = rng.uniform(-1e3, 1e3, len(walls))
        zero = np.array([-0.0 if wall.startswith("-") else 0.0 for wall in walls])
        on = np.array([wall[-2:] for wall in walls])
        lb = np.select([on == "lb", on == "ub"], [zero, -span], x)
        ub = np.select([on == "lb", on == "ub"], [span, zero], x + span)
        return Bounds(lb, ub)

    @staticmethod
    def _points(b, n, rng, far):
        """(n, dim) coordinates: on either wall, +-0.0, inside, or a fraction
        of a span outside; with `far`, also 2 to 9 spans past a wall, where
        one reflection still lands outside and the np.mod fold runs."""
        shape = (n, b.dim)
        kind = rng.integers(0, 7 if far else 6, shape)
        if far:
            # at least one coordinate far out, so the fallback always runs
            kind.flat[rng.integers(kind.size)] = 6
        t = rng.random(shape)
        lb, ub, span = (np.broadcast_to(a, shape) for a in (b.lb, b.ub, b.span))
        below = rng.random(shape) < 0.5
        wall, sign = np.where(below, lb, ub), np.where(below, -1.0, 1.0)
        return np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4, kind == 5],
            [lb, ub, 0.0, -0.0, lb + t * span, wall + sign * t * span],
            wall + sign * (2.0 + 7.0 * t) * span,
        )

    @staticmethod
    def _folds(p, b):
        """The fold of each layout the engine hands it, back in (n, dim)
        shape with the input it folded: the (n, dim) stack against the (dim,)
        box as rebalance passes it, in C and in Fortran order, the flat
        axis-major coordinates against the per-coordinate box as the walk
        passes them, and a single point. Inputs are read-only, so a write
        to them raises."""
        n = len(p)
        flat = Bounds(np.repeat(b.lb, n), np.repeat(b.ub, n))
        for x, box in ((p, b), (np.asfortranarray(p), b), (p.ravel(order="F"), flat), (p[0], b)):
            x = x.copy(order="K")
            x.flags.writeable = False
            got = reflect_into_bounds(x, box)
            assert got.shape == x.shape
            assert got.flags.c_contiguous == x.flags.c_contiguous
            assert got.flags.f_contiguous == x.flags.f_contiguous
            shape = (-1, b.dim)
            yield x.reshape(shape, order="F"), got.reshape(shape, order="F")

    @staticmethod
    def _check_exterior(x, got, lb, ub) -> bool:
        """Check `got` against the exact reflection of the exterior
        coordinate x, computed with Fractions; True when one reflection
        still lands outside, so the np.mod fold had to run."""
        x, lb, ub = float(x), float(lb), float(ub)
        fx, flb, fub = Fraction(x), Fraction(lb), Fraction(ub)
        y = (fx - flb) % (2 * (fub - flb))
        error = abs(Fraction(float(got)) - flb - min(y, 2 * (fub - flb) - y))
        once = 2 * (flb if x < lb else fub) - fx
        if flb <= once <= fub:
            # one reflection, rounded once: within an ulp of the result
            assert error <= Fraction(np.spacing(abs(float(got))))
            return False
        # the np.mod fold rounds p - lb, the period and lb + y; to first order
        # that errs by at most 2|p - lb| + 4 span + |lb| units of eps / 2,
        # under 8 eps of the largest magnitude
        assert error <= Fraction(8 * np.finfo(float).eps * max(abs(x), abs(lb), abs(ub)))
        return True

    @settings(max_examples=200, deadline=None)
    @given(walls=WALLS, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), far=st.booleans())
    def test_interior_coordinates_come_back_unchanged(self, walls, n, seed, far):
        rng = make_rng(seed)
        b = self._box(walls, rng)
        for x, got in self._folds(self._points(b, n, rng, far), b):
            inside = (x >= b.lb) & (x <= b.ub)
            assert np.array_equal(got[inside], x[inside])
            assert np.array_equal(np.signbit(got[inside]), np.signbit(x[inside]))

    @settings(max_examples=200, deadline=None)
    @given(walls=WALLS, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), far=st.booleans())
    def test_exterior_coordinates_land_inside_near_the_exact_reflection(
        self, walls, n, seed, far
    ):
        rng = make_rng(seed)
        b = self._box(walls, rng)
        (x, got), *others = self._folds(self._points(b, n, rng, far), b)
        for _, other in others:
            assert np.array_equal(other, got[: len(other)])
        assert b.contains(got)
        lb, ub = (np.broadcast_to(a, x.shape) for a in (b.lb, b.ub))
        folded = [self._check_exterior(x[i], got[i], lb[i], ub[i])
                  for i in zip(*np.nonzero((x < lb) | (x > ub)))]
        assert any(folded) or not far

    @settings(max_examples=200, deadline=None)
    @given(walls=WALLS, n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), far=st.booleans())
    def test_memory_order_leaves_values_unchanged(self, walls, n, seed, far):
        # the engine passes Fortran-ordered scouts; the fold must give the
        # same bits, and keep that order, on either of its branches
        rng = make_rng(seed)
        b = self._box(walls, rng)
        p = self._points(b, n, rng, far)
        expected = reflect_into_bounds(p, b)
        got = reflect_into_bounds(np.asfortranarray(p), b)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert got.flags.f_contiguous

    @settings(max_examples=300, deadline=None)
    @given(walls=WALLS, n=st.integers(1, 33), seed=st.integers(0, 2**32 - 1), far=st.booleans())
    def test_matches_the_masked_fold_bit_for_bit(self, walls, n, seed, far):
        # points on a zero wall tie the min/max passes; from 1 to 33 scouts
        # (and up to 165 flat coordinates), ties fall both in numpy's vector
        # loop and in its scalar tail, which pick between +0 and -0
        # differently
        rng = make_rng(seed)
        b = self._box(walls, rng)
        for x, got in self._folds(self._points(b, n, rng, far), b):
            want = masked_fold(x, b)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_upper_clip_keeps_the_upper_wall_inside(self):
        b = Bounds([-0.1], [0.2])
        # lb + span rounds past ub on this box, so without the clip the np.mod
        # fold would put a point two spans past ub outside the box
        assert (b.ub - b.lb) + b.lb > b.ub
        for k in (0, 1, 2):
            p = b.ub + k * b.span
            got = reflect_into_bounds(p, b)
            assert b.contains(got)
            if k:
                self._check_exterior(p[0], got[0], b.lb[0], b.ub[0])
            else:
                assert np.array_equal(got, p)


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

    def test_child_seed_rejects_a_negative_parent(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            child_seed(-1, 0)

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
    @given(n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_nan_or_minus_inf_anywhere_gives_the_first_bad_point(self, n, seed):
        bad = np.array([np.nan, -np.inf])
        good = np.array([0.0, -1e300, 7.5, np.inf])
        rng = make_rng(seed)
        # a share of bad values that varies per example, so the first bad
        # point falls anywhere in the batch; at least one is bad
        values = np.where(rng.random(n) < rng.random(),
                          bad[rng.integers(0, 2, n)], good[rng.integers(0, 4, n)])
        values[rng.integers(0, n)] = bad[rng.integers(0, 2)]
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
