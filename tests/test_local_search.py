import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from viralsearch.core import Bounds, ConfigurationError, EvaluationError, Objective, make_rng
from viralsearch.local_search import DEConfig, _partner_indices, de_optimize

SQUARE = Bounds([-1.0, -1.0], [1.0, 1.0])


def sphere_objective():
    return Objective(lambda t, p: (p**2).sum(axis=1), arity=2, name="sphere")


class TestDEConfig:
    def test_pop_size_floor(self):
        with pytest.raises(ConfigurationError):
            DEConfig(pop_size=3)

    def test_weight_range(self):
        with pytest.raises(ConfigurationError):
            DEConfig(differential_weight=0.0)
        with pytest.raises(ConfigurationError):
            DEConfig(differential_weight=2.5)

    def test_crossover_range(self):
        with pytest.raises(ConfigurationError):
            DEConfig(crossover_rate=1.2)


class TestPartnerIndices:
    @pytest.mark.parametrize("n", [4, 5, 17, 64])
    def test_three_distinct_non_self(self, n):
        rng = make_rng(11)
        for _ in range(50):
            partners = _partner_indices(rng, n)
            assert partners.shape == (n, 3)
            for i in range(n):
                row = partners[i]
                assert len(set(row.tolist())) == 3
                assert i not in row

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 400), seed=st.integers(0, 2**32 - 1))
    def test_property_distinct_in_range(self, n, seed):
        partners = _partner_indices(make_rng(seed), n)
        assert partners.shape == (n, 3)
        assert np.issubdtype(partners.dtype, np.integer)
        assert ((partners >= 0) & (partners < n)).all()
        with_self = np.column_stack((np.arange(n), partners))
        assert (np.diff(np.sort(with_self, axis=1), axis=1) > 0).all()

    def test_uniform_by_chi_square(self):
        n, draws = 7, 20_000
        rng = make_rng(2024)
        samples = np.stack([_partner_indices(rng, n) for _ in range(draws)])
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

    def test_memory_is_linear_in_n(self):
        rng = make_rng(0)
        tracemalloc.start()
        try:
            _partner_indices(rng, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x n int64 index matrix alone would be 32 MB
        assert peak < 1_000_000


class TestDEOptimize:
    def test_sphere_converges(self):
        point, value = de_optimize(
            sphere_objective(), SQUARE, DEConfig(pop_size=20, generations=50),
            rng=make_rng(0),
        )
        assert value < 1e-6
        assert np.abs(point).max() < 1e-2

    def test_single_generation_cr_zero_changes_one_coordinate(self):
        seen = []

        def recording(t, p):
            seen.append(p.copy())
            return (p**2).sum(axis=1)

        obj = Objective(recording, arity=2)
        cfg = DEConfig(pop_size=12, generations=1, crossover_rate=0.0,
                       differential_weight=0.7)
        de_optimize(obj, SQUARE, cfg, rng=make_rng(3))
        initial, trials = seen
        changed = (trials != initial).sum(axis=1)
        assert (changed <= 1).all()

    def test_single_generation_never_regresses(self):
        obj = sphere_objective()
        cfg = DEConfig(pop_size=12, generations=1, crossover_rate=0.0)
        history = []
        seed = np.array([0.4, -0.2])
        _, value = de_optimize(obj, SQUARE, cfg, seed_point=seed, rng=make_rng(5),
                               history=history)
        assert value <= obj(0, seed)
        assert len(history) == 1

    def test_seeded_exact_minimizer_is_kept(self):
        obj = Objective(
            lambda t, p: (p[:, 0] - 0.3) ** 2 + (p[:, 1] + 0.2) ** 2, arity=2
        )
        seed = np.array([0.3, -0.2])
        point, value = de_optimize(
            obj, SQUARE, DEConfig(pop_size=15, generations=30), seed_point=seed,
            t=0, rng=make_rng(9),
        )
        assert value == 0.0
        assert np.allclose(point, seed)

    def test_seed_dominance_random_points(self):
        obj = sphere_objective()
        for trial in range(25):
            rng = make_rng(100 + trial)
            seed = rng.uniform(-1, 1, 2)
            _, value = de_optimize(
                obj, SQUARE, DEConfig(pop_size=8, generations=5), seed_point=seed,
                rng=rng,
            )
            assert value <= obj(0, seed) + 1e-15

    def test_history_non_increasing(self):
        history = []
        de_optimize(
            sphere_objective(), SQUARE, DEConfig(pop_size=10, generations=40),
            rng=make_rng(2), history=history,
        )
        assert len(history) == 40
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_all_evaluated_points_inside_region(self):
        region = Bounds([0.2, -0.5], [0.9, 0.1])
        seen = []

        def recording(t, p):
            seen.append(p.copy())
            return (p**2).sum(axis=1)

        de_optimize(
            Objective(recording, arity=2), region,
            DEConfig(pop_size=10, generations=20), rng=make_rng(4),
        )
        assert region.contains(np.vstack(seen))

    def test_deterministic_given_seed(self):
        a = de_optimize(sphere_objective(), SQUARE, DEConfig(), rng=make_rng(21))
        b = de_optimize(sphere_objective(), SQUARE, DEConfig(), rng=make_rng(21))
        assert a[1] == b[1]
        assert np.array_equal(a[0], b[0])

    def test_nan_objective_aborts_with_point(self):
        obj = Objective(lambda t, p: np.full(len(p), np.nan), arity=2)
        with pytest.raises(EvaluationError, match="NaN"):
            de_optimize(obj, SQUARE, DEConfig(), rng=make_rng(0))

    def test_minus_inf_objective_aborts_with_point(self):
        obj = Objective(
            lambda t, p: np.where(p[:, 0] > 0.5, -np.inf, (p**2).sum(axis=1)), arity=2
        )
        with pytest.raises(EvaluationError, match=r"-inf at generation 4 for point"):
            de_optimize(obj, SQUARE, DEConfig(), t=4, rng=make_rng(0))

    def test_plus_inf_everywhere_runs_to_completion(self):
        obj = Objective(lambda t, p: np.full(len(p), np.inf), arity=2)
        point, value = de_optimize(obj, SQUARE, DEConfig(), rng=make_rng(0))
        assert value == np.inf
        assert SQUARE.contains(point[None, :])

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            de_optimize(sphere_objective(), SQUARE, DEConfig())
