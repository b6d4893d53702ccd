import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import reference
from viralsearch import benchmarks
from viralsearch.benchmarks import (
    BENCHMARK_NAMES,
    SHEKEL_A,
    SHEKEL_C,
    make_benchmark,
    rosenbrock,
    schaffer,
    shekel,
    sphere,
    two_well,
)
from viralsearch.core import Bounds, ConfigurationError, make_rng, reflect_into_bounds


class TestRosenbrock:
    @pytest.mark.parametrize(
        "x, y, expected", [(1, 1, 0.0), (0, 0, 1.0), (-1, 1, 4.0)]
    )
    def test_values(self, x, y, expected):
        assert rosenbrock(x, y) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(*[st.one_of(st.floats(allow_nan=False),
                                  st.sampled_from([0.0, -0.0, np.inf, -np.inf]))] * 2),
            min_size=1, max_size=20,
        ),
    )
    def test_matches_the_formula_bit_for_bit(self, pairs):
        x, y = np.array(pairs).T
        # a pair of arrays, a scalar against an array, a 0-d pair, and
        # strided columns as the registry's objective passes them
        cases = [(x, y), (x[0], y), (x, y[0]), (np.array(x[0]), np.array(y[0])),
                 (x[0], y[0]), tuple(np.stack([x, y], axis=1).T)]
        with np.errstate(all="ignore"):
            for a, b in cases:
                got, want = rosenbrock(a, b), reference.rosenbrock(a, b)
                assert type(got) is type(want)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSchaffer:
    def test_origin_is_zero(self):
        assert schaffer(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_period_value(self):
        x = math.sqrt(math.pi / 2.0)
        expected = 0.5 + 0.5 / (1.0 + 0.001 * math.pi / 2.0)
        assert schaffer(x, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_symmetries(self):
        rng = make_rng(0)
        pts = rng.uniform(-3, 3, size=(1000, 2))
        f = schaffer(pts[:, 0], pts[:, 1])
        assert np.abs(f - schaffer(pts[:, 1], pts[:, 0])).max() < 1e-12
        assert np.abs(f - schaffer(-pts[:, 0], -pts[:, 1])).max() < 1e-12


class TestTwoWell:
    def test_first_well_depth_at_time_zero(self):
        assert two_well(0, -2.5, -2.5) == pytest.approx(-2.0, abs=1e-15)

    def test_second_well_tracks_time(self):
        for t in (0.0, 500.0, 2000.0):
            expected = -2.0 * math.exp(-40.5) - t / 1000.0
            assert two_well(t, 2.0, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_basin_ordering_flips_at_twice_tau(self):
        tau = 1000.0
        before, after = 2 * tau * 0.99, 2 * tau * 1.01
        assert two_well(before, -2.5, -2.5, tau=tau) < two_well(before, 2, 2, tau=tau)
        assert two_well(after, 2, 2, tau=tau) < two_well(after, -2.5, -2.5, tau=tau)

    def test_custom_tau_moves_the_crossover(self):
        tau = 250.0
        assert two_well(2 * tau * 1.1, 2, 2, tau=tau) < two_well(
            2 * tau * 1.1, -2.5, -2.5, tau=tau
        )


def shekel_by_summation(x):
    # independent oracle: plain double loop over the printed constants
    total = 0.0
    for i in range(SHEKEL_A.shape[1]):
        dist = 0.0
        for j in range(SHEKEL_A.shape[0]):
            dist += (x[j] - SHEKEL_A[j, i]) ** 2
        total += 1.0 / (SHEKEL_C[i] + dist)
    return total


class TestShekel:
    def test_peak_first_term_is_ten(self):
        x = np.array([4.0, 4.0, 4.0, 4.0])
        assert 1.0 / SHEKEL_C[0] == 10.0
        assert shekel(x) > 10.0

    def test_matches_summation_oracle(self):
        rng = make_rng(1)
        for _ in range(200):
            x = rng.uniform(0, 10, 4)
            assert shekel(x) == pytest.approx(shekel_by_summation(x), rel=1e-12)
        peak = np.array([4.0, 4.0, 4.0, 4.0])
        assert shekel(peak) == pytest.approx(shekel_by_summation(peak), rel=1e-12)
        assert shekel(peak) == pytest.approx(10.534013463312348, rel=1e-9)

    def test_far_point_is_small_positive(self):
        v = float(shekel(np.array([10.0, 0.0, 10.0, 0.0])))
        assert 0.0 < v < 0.5

    def test_peak_dominates_origin(self):
        assert shekel(np.array([4.0, 4.0, 4.0, 4.0])) > shekel(np.zeros(4))

    def test_finite_positive_everywhere(self):
        pts = make_rng(2).uniform(0, 10, size=(5000, 4))
        values = shekel(pts)
        assert np.isfinite(values).all()
        assert (values > 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shekel(np.zeros(3))

    def test_a_scalar_is_a_point_with_one_coordinate(self):
        with pytest.raises(ValueError, match="^point has 1 coordinates, peak matrix has 4 rows$"):
            shekel(5.0)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from([(), (5,), (3, 4)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_tensor_formula_to_rounding(self, shape, seed):
        rng = make_rng(seed)
        shape += (SHEKEL_A.shape[0],)
        # points in [0, 10]^d, or up to 10^3 outside it on either side, with
        # about a fifth of the coordinates on the ends of their range
        x = np.where(rng.random(shape) < 0.5,
                     rng.uniform(0.0, 10.0, shape),
                     rng.uniform(-1e3, 1e3 + 10.0, shape))
        hit = rng.random(shape) < 0.2
        x[hit] = rng.choice([0.0, 10.0, -1e3, 1e3, 1e3 + 10.0], hit.sum())
        got = shekel(x)
        assert got.shape == shape[:-1]
        assert_near_the_tensor_formula(got, x, SHEKEL_A, SHEKEL_C)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from([(), (5,), (3, 4)]),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_tensor_formula_for_up_to_300_peaks(self, shape, order, seed):
        # shekel takes only the shipped 10 peaks now, which is within the 1
        # to 300 this once swept; its sum over them still crosses numpy's
        # pairwise-sum edge at 8 terms, in either memory order of x
        rng = make_rng(seed)
        shape += (SHEKEL_A.shape[0],)
        x = rng.uniform(-5.0, 15.0, shape) * 10.0 ** rng.integers(0, 3, shape)
        got = shekel(np.asarray(x, order=order))
        assert got.shape == shape[:-1]
        assert_near_the_tensor_formula(got, x, SHEKEL_A, SHEKEL_C)

    def test_inputs_left_unchanged(self):
        box = Bounds(np.zeros(4), np.full(4, 10.0))
        near = make_rng(3).uniform(-5.0, 15.0, size=(200, 4))
        # near points take the fold's branch without np.mod, far ones the other
        for x in (near, 4.0 * near):
            before = x.copy()
            shekel(x)
            reflect_into_bounds(x, box)
            assert np.array_equal(x, before)


def shekel_by_tensor(x, a, c):
    return (1.0 / (c + ((x[..., None, :] - a.T) ** 2).sum(-1))).sum(-1)


def assert_near_the_tensor_formula(got, x, a, c):
    """`got` is within (d + m) eps, relative, of the tensor formula. Both
    take the same squares and add only positive terms, each in its own
    order: c and the d squares, then the reciprocal, come within
    (d + 1) eps/2 relative of exact, and the sum of the m reciprocals
    within (m - 1) eps/2 more; twice that bounds the gap between them."""
    d, m = a.shape
    expected = shekel_by_tensor(x, a, c)
    assert (np.abs(got - expected) <= (d + m) * np.finfo(float).eps * expected).all()


class TestShekelPlanes:
    """`shekel` subtracts from peak and constant planes cached per batch
    size; the cache is bounded, and the constants it copies are read-only."""

    def test_constants_are_read_only(self):
        for constant in (SHEKEL_A, SHEKEL_C):
            assert not constant.flags.writeable
            with pytest.raises(ValueError):
                constant[0] = 1.0

    def test_planes_are_read_only(self):
        a_plane, c_plane = benchmarks._peak_planes(7)
        assert a_plane.shape == (4, 10, 7) and c_plane.shape == (10, 7)
        assert (a_plane == SHEKEL_A[:, :, None]).all()
        assert (c_plane == SHEKEL_C[:, None]).all()
        for plane in (a_plane, c_plane):
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[0, 0] = 1.0

    def test_no_points_give_an_empty_array(self):
        for x in (np.empty((0, 4)), np.empty((3, 0, 4))):
            got = shekel(x)
            assert got.shape == x.shape[:-1]

    def test_memory_stays_within_the_cache_bound(self):
        sizes = range(2000, 2020)
        points = [make_rng(n).uniform(0.0, 10.0, (n, 4)) for n in sizes]
        bound = benchmarks._peak_planes.cache_info().maxsize
        assert bound <= 8
        d, m = SHEKEL_A.shape
        planes = (d + 1) * m * sizes[-1] * 8
        benchmarks._peak_planes.cache_clear()
        tracemalloc.start()
        try:
            for x in points:
                shekel(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kept planes, a new size's planes built before the oldest go,
        # and one call's (d, m, n) work block; 20 kept sizes would be 16 MB
        assert peak <= (bound + 2) * planes


class TestRegistry:
    def test_names(self):
        assert set(BENCHMARK_NAMES) == {
            "sphere",
            "rosenbrock",
            "schaffer",
            "two_well",
            "shekel",
        }

    def test_rosenbrock_spec(self):
        spec = make_benchmark("rosenbrock")
        assert np.allclose(spec.bounds.lb, [-3, -3])
        assert np.allclose(spec.bounds.ub, [3, 3])
        assert spec.known_optimum.point == (1.0, 1.0)
        assert spec.known_optimum.value == 0.0
        assert spec.known_optimum.kind == "min"

    def test_schaffer_spec(self):
        spec = make_benchmark("schaffer")
        assert np.allclose(spec.bounds.lb, [-3, -3])
        assert spec.known_optimum.point == (0.0, 0.0)

    def test_two_well_spec(self):
        spec = make_benchmark("two_well")
        assert np.allclose(spec.bounds.lb, [-6, -6])
        assert np.allclose(spec.bounds.ub, [6, 6])
        assert spec.objective.time_varying

    def test_shekel_spec(self):
        spec = make_benchmark("shekel")
        assert np.allclose(spec.bounds.lb, np.zeros(4))
        assert np.allclose(spec.bounds.ub, np.full(4, 10.0))
        assert spec.known_optimum.kind == "max"

    def test_shekel_optimum_is_a_local_maximum(self):
        opt = make_benchmark("shekel").known_optimum
        assert opt.value == float(shekel(np.array(opt.point)))
        assert opt.value > shekel(np.full(4, 4.0))
        refined = minimize(lambda x: -shekel(x), np.array(opt.point),
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-15})
        assert -refined.fun - opt.value < 1e-9

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ConfigurationError, match="rosenbrock"):
            make_benchmark("nosuch")

    @pytest.mark.parametrize(
        "name, params, unknown, valid",
        [("rosenbrock", {"bogus": 1}, "bogus", "none"),
         ("schaffer", {"tau": 5.0}, "tau", "none"),
         ("two_well", {"tau": 5.0, "dim": 3}, "dim", "tau")],
    )
    def test_unknown_parameter_names_the_valid_ones(self, name, params, unknown, valid):
        with pytest.raises(ConfigurationError) as excinfo:
            make_benchmark(name, **params)
        assert str(excinfo.value) == (
            f"unknown parameters for benchmark {name!r}: {unknown}; "
            f"valid parameters: {valid}"
        )

    def test_optima_within_bounds_and_values_check_out(self):
        for name in BENCHMARK_NAMES:
            spec = make_benchmark(name)
            opt = spec.known_optimum
            point = np.array(opt.point)
            assert spec.bounds.contains(point[None, :])
            engine_value = spec.objective(0, point)
            if opt.kind == "max":
                assert -engine_value == pytest.approx(opt.value, abs=1e-9)
            else:
                assert engine_value == pytest.approx(opt.value, abs=1e-9)

    def test_minimizing_convention_for_maximization(self):
        spec = make_benchmark("shekel")
        peak = np.array([4.0, 4.0, 4.0, 4.0])
        assert spec.objective(0, peak) == pytest.approx(-shekel(peak), rel=1e-12)

    def test_parameter_override(self):
        spec = make_benchmark("two_well", tau=500.0)
        assert spec.objective(1000, np.array([2.0, 2.0])) == pytest.approx(
            float(two_well(1000, 2.0, 2.0, tau=500.0)), rel=1e-12
        )

    def test_sphere_sanity(self):
        assert sphere(np.array([1.0, 2.0])) == 5.0
