import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import reference
from viralsearch.core import Bounds, ConfigurationError, EvaluationError, Objective, make_rng
from viralsearch.local_search import (
    _BLOCK,
    _draw_block,
    check_draw_range,
    de_optimize,
)

SQUARE = Bounds([-1.0, -1.0], [1.0, 1.0])


def sphere_objective():
    return Objective(lambda t, p: (p**2).sum(axis=1), arity=2, name="sphere")


def counting_sphere(arity=2):
    rows = []

    def f(t, p):
        rows.append(len(p))
        return (p**2).sum(axis=1)

    return Objective(f, arity=arity), rows


class TestPartnerIndices:
    @pytest.mark.parametrize("n", [4, 5, 17, 64])
    def test_three_distinct_non_self(self, n):
        rng = make_rng(11)
        for partners in _draw_block(rng, n, 2, 0.9, 50)[0]:
            assert partners.shape == (n, 3)
            for i in range(n):
                row = partners[i]
                assert len(set(row.tolist())) == 3
                assert i not in row

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 400),
        d=st.integers(1, 5),
        cr=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_distinct_in_range(self, n, d, cr, seed):
        block, cross = _draw_block(make_rng(seed), n, d, cr, _BLOCK)
        for partners in block:
            assert partners.shape == (n, 3)
            assert np.issubdtype(partners.dtype, np.integer)
            assert ((partners >= 0) & (partners < n)).all()
            with_self = np.column_stack((np.arange(n), partners))
            assert (np.diff(np.sort(with_self, axis=1), axis=1) > 0).all()
        assert cross.shape == (_BLOCK, n, d) and cross.dtype == bool
        assert cross.any(axis=-1).all()  # the forced axis

    @pytest.mark.parametrize("n, d", [(4, 1), (9, 3)])
    def test_matches_per_row_reference(self, n, d):
        partners, cross = _draw_block(make_rng(8), n, d, 0.0, _BLOCK)
        # the same integers, decoded and stepped one row at a time
        draws = make_rng(8).integers(0, (n - 1) * (n - 2) * (n - 3) * d, size=(_BLOCK, n))
        for k in range(_BLOCK):
            for i in range(n):
                rest, axis = divmod(int(draws[k, i]), d)
                rest, c = divmod(rest, n - 3)
                a, b = divmod(rest, n - 2)
                taken = [i]
                for digit in (a, b, c):
                    taken.append([j for j in range(n) if j not in taken][digit])
                assert partners[k, i].tolist() == taken[1:]
                assert np.flatnonzero(cross[k, i]).tolist() == [axis]

    def test_uniform_by_chi_square(self):
        n, draws = 7, 20_000
        rng = make_rng(2024)
        samples = np.concatenate(
            [_draw_block(rng, n, 1, 0.9, _BLOCK)[0] for _ in range(draws // _BLOCK)]
        )
        for i in range(n):
            others = np.delete(np.arange(n), i)
            for k in range(3):
                counts = np.bincount(samples[:, i, k], minlength=n)
                assert counts[i] == 0
                assert chisquare(counts[others]).pvalue > 1e-3, (i, k)
        # the ordered triples for one target: (n - 1)(n - 2)(n - 3) = 120 cells
        triples = samples[:, 0, :] - 1  # target 0 takes partners from 1..6
        cells = np.ravel_multi_index(tuple(triples.T), (n - 1,) * 3)
        counts = np.bincount(cells, minlength=(n - 1) ** 3)
        distinct = np.array([len(set(t)) == 3 for t in np.ndindex((n - 1,) * 3)])
        assert counts[~distinct].sum() == 0
        assert chisquare(counts[distinct]).pvalue > 1e-3

        # with d = 3 and crossover rate 0 each mask row holds only the forced
        # axis; its joint counts with target 0's triple fill 120 x 3 cells
        d = 3
        blocks = [_draw_block(rng, n, d, 0.0, _BLOCK) for _ in range(draws // _BLOCK)]
        triples = np.concatenate([p[:, 0, :] for p, _ in blocks]) - 1
        axes = np.concatenate([c[:, 0, :] for _, c in blocks]).argmax(axis=1)
        cells = np.ravel_multi_index(tuple(triples.T), (n - 1,) * 3) * d + axes
        counts = np.bincount(cells, minlength=(n - 1) ** 3 * d)
        joint = np.repeat(distinct, d)
        assert counts[~joint].sum() == 0
        assert chisquare(counts[joint]).pvalue > 1e-3

    def test_memory_is_linear_in_n(self):
        rng = make_rng(0)
        tracemalloc.start()
        try:
            _draw_block(rng, 2000, 1, 0.9, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x n int64 index matrix alone would be 32 MB
        assert peak < 1_000_000

    def test_draw_range_limit(self):
        check_draw_range(2_097_152, 1)  # (n-1)(n-2)(n-3) < 2**63
        with pytest.raises(ConfigurationError, match="int64"):
            check_draw_range(2_097_152, 2)
        with pytest.raises(ConfigurationError, match="int64"):
            check_draw_range(2_100_000, 1)


class TestDEOptimize:
    def test_pop_size_floor(self):
        obj, rows = counting_sphere()
        with pytest.raises(ConfigurationError, match="pop_size must be >= 4, got 3"):
            de_optimize(obj, SQUARE, 3, 50, rng=make_rng(0))
        assert rows == []

    @pytest.mark.parametrize("field", ["pop_size", "generations"])
    @pytest.mark.parametrize("value", [20.0, 7.5])
    def test_non_integer_sizes_rejected(self, field, value):
        obj, rows = counting_sphere()
        sizes = dict(pop_size=20, generations=50)
        sizes[field] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            de_optimize(obj, SQUARE, **sizes, rng=make_rng(0))
        assert rows == []

    @pytest.mark.parametrize("seed", [5.0, -0.5, np.nextafter(1.0, 2.0), np.nan],
                             ids=["far", "below", "next-float", "nan"])
    def test_seed_outside_region_fails_before_evaluating(self, seed):
        rows = []

        def f(t, p):
            rows.append(len(p))
            return ((p - 5.0) ** 2).sum(axis=1)

        with pytest.raises(ValueError, match=r"seed point \[.*\] lies outside the region"):
            de_optimize(Objective(f, arity=1), Bounds([0.0], [1.0]), 8, 5,
                        seed_point=[seed], rng=make_rng(0))
        assert rows == []

    @pytest.mark.parametrize("seed", [0.0, 1.0])
    def test_seed_on_a_wall_is_inside(self, seed):
        obj = Objective(lambda t, p: ((p - 5.0) ** 2).sum(axis=1), arity=1)
        point, value = de_optimize(obj, Bounds([0.0], [1.0]), 8, 5, seed_point=[seed],
                                   rng=make_rng(0))
        assert 0.0 <= point[0] <= 1.0 and value <= (seed - 5.0) ** 2

    def test_sphere_converges(self):
        point, value = de_optimize(sphere_objective(), SQUARE, 20, 50, rng=make_rng(0))
        assert value < 1e-6
        assert np.abs(point).max() < 1e-2

    def test_single_generation_cr_zero_changes_one_coordinate(self):
        # at CR 0 a generation's crossover mask holds only the forced axis,
        # so each trial differs from its target in at most that coordinate
        rng = make_rng(3)
        population = rng.uniform(-1.0, 1.0, (12, 2))
        partners, cross = _draw_block(rng, 12, 2, 0.0, 1)
        a, b, c = partners[0].T
        mutant = population[a] + 0.8 * (population[b] - population[c])
        trials = np.where(cross[0], mutant, population)
        assert (cross[0].sum(axis=1) == 1).all()
        assert ((trials != population).sum(axis=1) <= 1).all()

    def test_single_generation_never_regresses(self):
        obj = sphere_objective()
        history = []
        seed = np.array([0.4, -0.2])
        _, value = de_optimize(obj, SQUARE, 12, 1, seed_point=seed, rng=make_rng(5),
                               history=history)
        assert value <= obj(0, seed)
        assert len(history) == 1

    def test_seeded_exact_minimizer_is_kept(self):
        obj = Objective(
            lambda t, p: (p[:, 0] - 0.3) ** 2 + (p[:, 1] + 0.2) ** 2, arity=2
        )
        seed = np.array([0.3, -0.2])
        point, value = de_optimize(obj, SQUARE, 15, 30, seed_point=seed, t=0, rng=make_rng(9))
        assert value == 0.0
        assert np.allclose(point, seed)

    def test_seed_dominance_random_points(self):
        obj = sphere_objective()
        for trial in range(25):
            rng = make_rng(100 + trial)
            seed = rng.uniform(-1, 1, 2)
            _, value = de_optimize(obj, SQUARE, 8, 5, seed_point=seed, rng=rng)
            assert value <= obj(0, seed) + 1e-15

    def test_history_non_increasing(self):
        history = []
        de_optimize(sphere_objective(), SQUARE, 10, 40, rng=make_rng(2), history=history)
        assert len(history) == 40
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_all_evaluated_points_inside_region(self):
        region = Bounds([0.2, -0.5], [0.9, 0.1])
        seen = []

        def recording(t, p):
            seen.append(p.copy())
            return (p**2).sum(axis=1)

        de_optimize(Objective(recording, arity=2), region, 10, 20, rng=make_rng(4))
        assert region.contains(np.vstack(seen))

    def test_deterministic_given_seed(self):
        a = de_optimize(sphere_objective(), SQUARE, 20, 50, rng=make_rng(21))
        b = de_optimize(sphere_objective(), SQUARE, 20, 50, rng=make_rng(21))
        assert a[1] == b[1]
        assert np.array_equal(a[0], b[0])

    def test_nan_objective_aborts_with_point(self):
        obj = Objective(lambda t, p: np.full(len(p), np.nan), arity=2)
        with pytest.raises(EvaluationError, match="NaN"):
            de_optimize(obj, SQUARE, 20, 50, rng=make_rng(0))

    def test_minus_inf_objective_aborts_with_point(self):
        obj = Objective(
            lambda t, p: np.where(p[:, 0] > 0.5, -np.inf, (p**2).sum(axis=1)), arity=2
        )
        with pytest.raises(EvaluationError, match=r"-inf at generation 4 for point"):
            de_optimize(obj, SQUARE, 20, 50, t=4, rng=make_rng(0))

    def test_plus_inf_everywhere_runs_to_completion(self):
        obj = Objective(lambda t, p: np.full(len(p), np.inf), arity=2)
        point, value = de_optimize(obj, SQUARE, 20, 50, rng=make_rng(0))
        assert value == np.inf
        assert SQUARE.contains(point[None, :])

    @pytest.mark.parametrize("generations", [1, 15, 16, 17, 75])
    def test_block_boundaries(self, generations):
        runs = []
        for _ in range(2):
            obj, rows = counting_sphere()
            history = []
            point, value = de_optimize(obj, SQUARE, 9, generations, rng=make_rng(6),
                                       history=history)
            assert rows == [9] * (generations + 1)
            assert len(history) == generations
            assert all(b <= a for a, b in zip(history, history[1:]))
            runs.append((point, value, history))
        (pa, va, ha), (pb, vb, hb) = runs
        assert np.array_equal(pa, pb) and va == vb and ha == hb

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 40),
        d=st.integers(1, 5),
        generations=st.sampled_from([1, 15, 16, 17]),
        seeded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_clip_and_mask_reference(self, n, d, generations, seeded, seed):
        region = Bounds(np.linspace(-1.0, 0.0, d), np.linspace(0.5, 2.0, d))
        # coarse levels make ties, which greedy selection accepts; the
        # minimum sits on the upper walls, so trials are clamped there
        obj = Objective(lambda t, p: np.floor(4.0 * np.abs(p - 3.0).sum(axis=1)), arity=d)
        # DE/rand/1/bin's fixed weights
        f, cr = 0.8, 0.9
        seed_point = np.full(d, 0.25) if seeded else None

        def reference(rng, history):
            pop = rng.uniform(region.lb, region.ub, size=(n, d))
            if seed_point is not None:
                pop[0] = seed_point
            values = obj.evaluate_many(0, pop)
            for start in range(0, generations, _BLOCK):
                block = _draw_block(rng, n, d, cr, min(_BLOCK, generations - start))
                for partners, cross in zip(*block):
                    r1, r2, r3 = partners.T
                    mutant = pop[r1] + f * (pop[r2] - pop[r3])
                    trial = np.where(cross, mutant, pop)
                    np.clip(trial, region.lb, region.ub, out=trial)
                    trial_values = obj.evaluate_many(0, trial)
                    accept = trial_values <= values
                    pop[accept] = trial[accept]
                    values[accept] = trial_values[accept]
                    history.append(float(values.min()))
            best = int(np.argmin(values))
            return pop[best].copy(), float(values[best])

        want_history, got_history = [], []
        want_point, want_value = reference(make_rng(seed), want_history)
        got_point, got_value = de_optimize(obj, region, n, generations, seed_point=seed_point,
                                           rng=make_rng(seed), history=got_history)
        assert got_history == want_history
        assert np.array_equal(got_point, want_point)
        assert np.array_equal(np.signbit(got_point), np.signbit(want_point))
        assert got_value == want_value

    def test_burst_memory_is_linear_in_pop(self):
        # rosenbrock-table3's largest cell: 400 members x 1200 generations
        obj = Objective(lambda t, p: (p**2).sum(axis=1), arity=2)
        rng = make_rng(0)
        tracemalloc.start()
        try:
            de_optimize(obj, SQUARE, 400, 1200, rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole burst's randomness drawn as one block peaks at about 43 MB
        assert peak < 2_000_000

    def test_overflowing_draw_range_fails_before_evaluating(self):
        obj, rows = counting_sphere(arity=1)
        with pytest.raises(ConfigurationError, match="int64"):
            de_optimize(obj, Bounds([0.0], [1.0]), 2_100_000, 1, rng=make_rng(0))
        assert rows == []

    def test_requires_rng(self):
        with pytest.raises(TypeError, match="rng"):
            de_optimize(sphere_objective(), SQUARE, 20, 50)


def _largest_int32_pop(d):
    """The largest n whose partner range (n-1)(n-2)(n-3)·d fits in int32."""
    n = 4
    while n * (n - 1) * (n - 2) * d <= 2**31 - 1:
        n += 1
    return n


class TestMatchesInt64Reference:
    """Bursts bit for bit against `reference.de_optimize`: values, signed
    zeros, history and where the generator stops."""

    @staticmethod
    def assert_same_burst(n, d, generations, seeded, seed, flat=False):
        # zero lower walls on the even axes, where a trial at -0.0 ties with
        # the wall; coarse levels make ties, which greedy selection accepts;
        # the minimum sits on the upper walls, so trials are clamped there.
        # On a flat objective every trial is accepted and member 0, the seed
        # at -0.0, is returned, with every tie its coordinates went through.
        region = Bounds(np.where(np.arange(d) % 2, -1.0, 0.0), np.linspace(0.5, 2.0, d))
        if flat:
            obj = Objective(lambda t, p: np.zeros(len(p)), arity=d)
        else:
            obj = Objective(lambda t, p: np.floor(4.0 * np.abs(p - 3.0).sum(axis=1)), arity=d)
        seed_point = np.full(d, -0.0) if seeded else None
        runs = []
        for burst in (de_optimize, reference.de_optimize):
            rng, history = make_rng(seed), []
            point, value = burst(obj, region, n, generations, seed_point=seed_point, rng=rng,
                                 history=history)
            runs.append((point, value, history, rng.bit_generator.state))
        (got_point, got_value, got_history, got_state), want = runs[0], runs[1]
        want_point, want_value, want_history, want_state = want
        assert np.array_equal(got_point, want_point)
        assert np.array_equal(np.signbit(got_point), np.signbit(want_point))
        assert got_value == want_value and np.signbit(got_value) == np.signbit(want_value)
        assert got_history == want_history
        assert got_state == want_state

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 400),
        d=st.integers(1, 5),
        generations=st.sampled_from([1, 15, 16, 17, 75]),
        seeded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        flat=st.booleans(),
    )
    def test_burst(self, n, d, generations, seeded, seed, flat):
        self.assert_same_burst(n, d, generations, seeded, seed, flat)

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.integers(1, 5),
        above=st.booleans(),
        generations=st.sampled_from([1, 17]),
        seeded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burst_at_the_int32_edge(self, d, above, generations, seeded, seed):
        # one member more takes the range past 2**31 - 1, and the int64 decode
        n = _largest_int32_pop(d) + above
        assert ((n - 1) * (n - 2) * (n - 3) * d > 2**31 - 1) == above
        self.assert_same_burst(n, d, generations, seeded, seed)

        g = min(generations, _BLOCK)
        got_rng, want_rng = make_rng(seed), make_rng(seed)
        got, want = _draw_block(got_rng, n, d, 0.9, g), reference.draw_block(want_rng, n, d, 0.9, g)
        assert got[0].dtype == np.intp
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
