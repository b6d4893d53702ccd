import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viralsearch import schema_lab
from viralsearch.core import ConfigurationError, child_seed, make_rng
from viralsearch.schema_lab import (
    BinaryPopulation,
    CompiledSchema,
    GAParams,
    NoInstancesError,
    _ga_block_step,
    _masked_sums,
    _single_point_crossover,
    _stacked_fitness,
    classic_ga_step,
    compile_schema,
    count_matches,
    defining_length,
    expected_count_bound,
    onemax_fitness,
    random_population,
    schema_fitness,
    schema_growth_experiment,
)
from reference import matches


def _wavy_fitness(members):
    """A non-integer row-wise fitness built from elementwise operations
    only, so each value is bit-for-bit a function of its own row however
    many rows are stacked."""
    x = np.asarray(members, dtype=float)
    total = np.full(x.shape[0], 0.1)
    for j in range(x.shape[1]):
        total = total + x[:, j] * (0.1 + 0.37 * j)
    return 1.0 + 1.3 * np.sqrt(total)


def _per_trial_report(pop0, schema, params, generations, trials):
    """What `schema_growth_experiment` reports, one trial after another
    through the public functions."""
    counts = np.zeros((trials, generations + 1))
    bounds_ = np.full((trials, generations), np.nan)
    for trial in range(trials):
        rng = make_rng(child_seed(params.seed, trial))
        pop = pop0
        counts[trial, 0] = count_matches(schema, pop)
        for g in range(generations):
            if counts[trial, g] >= 1:
                bounds_[trial, g] = expected_count_bound(schema, pop, params)
            pop = classic_ga_step(pop, params, rng)
            counts[trial, g + 1] = count_matches(schema, pop)

    valid = ~np.isnan(bounds_)
    observed_next = counts[:, 1:]
    mean_observed = np.full(generations, np.nan)
    mean_bound = np.full(generations, np.nan)
    gen_pass = np.zeros(generations, dtype=bool)
    for g in range(generations):
        v = valid[:, g]
        if v.any():
            mean_observed[g] = observed_next[v, g].mean()
            mean_bound[g] = bounds_[v, g].mean()
            gen_pass[g] = mean_observed[g] >= mean_bound[g] - 1e-9
    has_any = ~np.isnan(mean_bound)
    return {
        "mean_counts": counts.mean(axis=0),
        "mean_observed_next": mean_observed,
        "mean_bounds": mean_bound,
        "generation_pass": gen_pass,
        "frac_generations_pass": float(gen_pass[has_any].mean()) if has_any.any() else 1.0,
        "frac_cells_pass": (
            float((observed_next[valid] >= bounds_[valid] - 1e-9).mean())
            if valid.any()
            else 1.0
        ),
    }


class TestSchemaStatistics:
    @pytest.mark.parametrize(
        "schema, expected",
        [("*01", 1), ("0", 0), ("**01*01", 4), ("1****1", 5)],
    )
    def test_defining_length(self, schema, expected):
        assert defining_length(schema) == expected

    def test_defining_length_needs_a_fixed_symbol(self):
        with pytest.raises(ValueError):
            defining_length("***")

    @pytest.mark.parametrize(
        "schema, expected", [("*01", 2), ("*****", 0), ("0101", 4)]
    )
    def test_order(self, schema, expected):
        assert compile_schema(schema).order == expected

    def test_bad_alphabet_rejected(self):
        with pytest.raises(ValueError):
            compile_schema("01x")


class TestCompiledSchema:
    def test_fields(self):
        s = compile_schema("*1**0*")
        assert s.pattern == "*1**0*"
        assert s.idx.tolist() == [1, 4]
        assert s.vals.tolist() == [1, 0]
        assert (s.order, s.defining_length) == (2, 3)

    def test_all_wildcard_has_no_defining_length(self):
        s = compile_schema("***")
        assert (s.order, s.defining_length) == (0, None)
        with pytest.raises(ValueError):
            defining_length(s)

    def test_sequence_input_and_equality(self):
        for sequence in (["1", "*", "0"], ("1", "*", "0")):
            with pytest.raises(ValueError, match=f"got {type(sequence).__name__}"):
                compile_schema(sequence)
        assert compile_schema("1*0") == compile_schema("1*0")
        assert compile_schema("1*0") != compile_schema("1*1")

    def test_all_wildcard_matches_every_row_of_a_block(self):
        members = make_rng(9).integers(0, 2, size=(3, 5, 4), dtype=np.uint8)
        mask = schema_lab._match_mask(compile_schema("****"), members)
        assert mask.dtype == bool and mask.shape == (3, 5) and mask.all()

    def test_compiled_input_is_returned_as_is(self):
        s = compile_schema("10*")
        assert compile_schema(s) is s

    def test_arrays_are_read_only(self):
        s = compile_schema("10*")
        with pytest.raises(ValueError):
            s.idx[0] = 2

    def test_public_functions_accept_compiled_schemata(self):
        pop = random_population(50, 6, onemax_fitness, make_rng(12))
        params = GAParams(p_c=0.6, p_m=0.05)
        for pattern in ("1*****", "*01**1", "0****0"):
            s = compile_schema(pattern)
            assert isinstance(s, CompiledSchema)
            assert defining_length(s) == defining_length(pattern)
            assert count_matches(s, pop) == count_matches(pattern, pop)
            assert schema_fitness(s, pop) == schema_fitness(pattern, pop)
            assert expected_count_bound(s, pop, params) == expected_count_bound(
                pattern, pop, params
            )


class TestMatches:
    @pytest.mark.parametrize(
        "schema, candidate, expected",
        [
            ("01*", "010", True),
            ("01*", "011", True),
            ("01*", "111", False),
            ("***", "101", True),
        ],
    )
    def test_examples(self, schema, candidate, expected):
        assert matches(schema, candidate) is expected

    def test_accepts_bit_arrays(self):
        assert matches("1*0", np.array([1, 1, 0], dtype=np.uint8))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            matches("01", "011")

    @pytest.mark.parametrize(
        "candidate", [np.array([1.5, 0.0]), np.array([257, 0]), "21", [-255, 0]]
    )
    def test_non_bits_rejected(self, candidate):
        with pytest.raises(ValueError):
            matches("1*", candidate)

    def test_fully_fixed_schema_matches_one_string(self):
        pop = random_population(200, 4, onemax_fitness, make_rng(0))
        mask_total = 0
        for value in range(16):
            pattern = format(value, "04b")
            mask_total += count_matches(pattern, pop)
        assert mask_total == 200


class TestRandomPopulation:
    @pytest.mark.parametrize("n, length", [(0, 5), (-3, 5), (4, 0), (4, -1)])
    def test_sizes_below_one_raise_before_any_draw(self, n, length):
        rng = make_rng(20)
        untouched = copy.deepcopy(rng)
        name, value = ("n", n) if n < 1 else ("length", length)
        with pytest.raises(ConfigurationError, match=f"{name} must be >= 1, got {value}"):
            random_population(n, length, onemax_fitness, rng)
        # the same next raw words, whatever the bit generator
        assert np.array_equal(
            rng.bit_generator.random_raw(4), untouched.bit_generator.random_raw(4)
        )

    @pytest.mark.parametrize("n, length", [(4.0, 5), (2.5, 5), (4, 5.0)])
    def test_non_integer_sizes_raise_before_any_draw(self, n, length):
        rng = make_rng(20)
        untouched = copy.deepcopy(rng)
        name = "n" if isinstance(n, float) else "length"
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            random_population(n, length, onemax_fitness, rng)
        assert np.array_equal(
            rng.bit_generator.random_raw(4), untouched.bit_generator.random_raw(4)
        )


class TestGAParams:
    @pytest.mark.parametrize("seed", [1.5, 2.0])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            GAParams(seed=seed)

    def test_numpy_integer_seed_runs_like_a_python_int(self):
        pop0 = random_population(20, 6, onemax_fitness, make_rng(21))
        plain = schema_growth_experiment(pop0, "1*****", GAParams(seed=3), 3, 5)
        numpy_seed = schema_growth_experiment(pop0, "1*****", GAParams(seed=np.int64(3)), 3, 5)
        assert np.array_equal(plain.mean_counts, numpy_seed.mean_counts)


class TestBinaryPopulation:
    @pytest.mark.parametrize(
        "rows", [[[256, 1]], [[0.5, 1.0]], [[-255, 1]], [[2, 0]]]
    )
    def test_non_bits_rejected_before_the_cast(self, rows):
        with pytest.raises(ValueError):
            BinaryPopulation(np.array(rows), onemax_fitness)

    def test_bits_of_any_dtype_accepted(self):
        pop = BinaryPopulation([[1.0, 0.0], [True, False]], onemax_fitness)
        assert pop.members.dtype == np.uint8
        assert pop.members.tolist() == [[1, 0], [1, 0]]

    def test_members_are_a_read_only_copy(self):
        rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        pop = BinaryPopulation(rows, onemax_fitness)
        rows[0, 0] = 1
        assert pop.members[0, 0] == 0
        with pytest.raises(ValueError):
            pop.members[0, 0] = 1

    def test_fitness_is_computed_once_and_cached(self):
        calls = []

        def fitness_fn(members):
            calls.append(1)
            return onemax_fitness(members)

        pop = random_population(10, 4, fitness_fn, make_rng(13))
        first = pop.fitness()
        assert pop.fitness() is first
        assert len(calls) == 1
        with pytest.raises(ValueError):
            first[0] = 5.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_fitness_must_be_finite_and_positive(self, bad):
        pop = BinaryPopulation(
            np.array([[0, 1], [1, 1]], dtype=np.uint8),
            lambda m: np.array([1.0, bad]),
        )
        with pytest.raises(ValueError, match="finite and strictly positive"):
            pop.fitness()

    def test_fitness_needs_one_value_per_member(self):
        pop = BinaryPopulation(np.zeros((3, 2)), lambda m: np.ones(2))
        with pytest.raises(ValueError):
            pop.fitness()


class TestSchemaFitness:
    def make_pop(self, rows, fitness_fn):
        return BinaryPopulation(np.array(rows, dtype=np.uint8), fitness_fn)

    def test_single_match(self):
        pop = self.make_pop([[1, 0], [0, 0]], lambda m: np.array([7.0, 1.0]))
        assert schema_fitness("1*", pop) == 7.0

    def test_mean_of_two_matches(self):
        pop = self.make_pop(
            [[1, 0], [1, 1], [0, 0]], lambda m: np.array([2.0, 4.0, 9.0])
        )
        assert schema_fitness("1*", pop) == 3.0

    def test_no_instances_error(self):
        pop = self.make_pop([[0, 0]], lambda m: np.array([1.0]))
        with pytest.raises(NoInstancesError):
            schema_fitness("11", pop)

    def test_against_filter_oracle(self):
        pop = random_population(100, 8, onemax_fitness, make_rng(3))
        schema = "1" + "*" * 7
        fitness = pop.fitness()
        oracle = np.mean(
            [fitness[i] for i in range(100) if matches(schema, pop.members[i])]
        )
        assert schema_fitness(schema, pop) == pytest.approx(oracle, rel=1e-12)


class TestExpectedCountBound:
    def test_selection_only_reduces_to_growth_ratio(self):
        pop = BinaryPopulation(
            np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 1, 0]], dtype=np.uint8),
            lambda m: 2.0 + 2.0 * m[:, 0].astype(float),
        )
        params = GAParams(p_c=0.0, p_m=0.0)
        xi, mean_fitness = 1, 2.5
        expected = xi * 4.0 / mean_fitness
        assert expected_count_bound("1**", pop, params) == pytest.approx(expected)

    def test_average_schema_is_a_fixed_point(self):
        pop = BinaryPopulation(
            np.array([[1, 0], [0, 1]], dtype=np.uint8), lambda m: np.array([3.0, 3.0])
        )
        params = GAParams(p_c=0.0, p_m=0.0)
        assert expected_count_bound("1*", pop, params) == pytest.approx(1.0)

    def test_hand_computed_example(self):
        pop = BinaryPopulation(
            np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 1, 0]], dtype=np.uint8),
            lambda m: 2.0 + 2.0 * m[:, 0].astype(float),
        )
        params = GAParams(p_c=0.5, p_m=0.1)
        # 1 * (4 / 2.5) * (1 - 0.5 * 0/2) * 0.9^1 = 1.44
        assert expected_count_bound("1**", pop, params) == pytest.approx(1.44)

    def test_no_instances_propagates(self):
        pop = BinaryPopulation(
            np.array([[0, 0]], dtype=np.uint8), lambda m: np.array([1.0])
        )
        with pytest.raises(NoInstancesError):
            expected_count_bound("1*", pop, GAParams())


class TestClassicGAStep:
    def test_selection_only_copies_parents(self):
        pop = random_population(60, 10, onemax_fitness, make_rng(0))
        child = classic_ga_step(pop, GAParams(p_c=0.0, p_m=0.0), make_rng(1))
        parent_rows = {row.tobytes() for row in pop.members}
        assert all(row.tobytes() in parent_rows for row in child.members)

    def test_full_mutation_flips_every_bit(self):
        pop = random_population(40, 12, onemax_fitness, make_rng(2))
        child = classic_ga_step(pop, GAParams(p_c=0.0, p_m=1.0), make_rng(3))
        complements = {(1 - row).tobytes() for row in pop.members}
        assert all(row.tobytes() in complements for row in child.members)

    def test_population_shape_preserved(self):
        pop = random_population(31, 9, onemax_fitness, make_rng(4))
        child = classic_ga_step(pop, GAParams(p_c=0.9, p_m=0.05), make_rng(5))
        assert child.members.shape == (31, 9)

    def test_selection_frequencies_match_fitness_share(self):
        members = np.array(
            [[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8
        )
        fitness = np.array([1.0, 2.0, 3.0, 4.0])
        pop = BinaryPopulation(members, lambda m: fitness)
        rng = make_rng(6)
        counts = np.zeros(4)
        draws = 25_000
        for _ in range(draws):
            child = classic_ga_step(pop, GAParams(p_c=0.0, p_m=0.0), rng)
            for row in child.members:
                counts[row[0] * 2 + row[1]] += 1
        frequencies = counts / (draws * 4)
        assert np.abs(frequencies - fitness / fitness.sum()).max() < 0.01

    def test_positive_fitness_required(self):
        pop = BinaryPopulation(
            np.array([[0, 1]], dtype=np.uint8), lambda m: np.array([0.0])
        )
        with pytest.raises(ValueError):
            classic_ga_step(pop, GAParams(), make_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_fitness_required(self, bad):
        pop = BinaryPopulation(
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
            lambda m: np.array([1.0, bad]),
        )
        with pytest.raises(ValueError, match="finite"):
            classic_ga_step(pop, GAParams(), make_rng(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_selection_equals_rng_choice(self, seed):
        pop = random_population(57, 9, onemax_fitness, make_rng(seed))
        fitness = pop.fitness()
        child = classic_ga_step(pop, GAParams(p_c=0.0, p_m=0.0), make_rng(100 + seed))
        picks = make_rng(100 + seed).choice(57, size=57, p=fitness / fitness.sum())
        assert np.array_equal(child.members, pop.members[picks])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 11), m=st.integers(2, 12), data=st.data())
    def test_masked_crossover_matches_pairwise_loop(self, n, m, data):
        bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
        members = np.array(
            data.draw(st.lists(bits, min_size=n, max_size=n)), dtype=np.uint8
        ).reshape(n, m)
        half = n // 2
        cross = np.array(
            data.draw(st.lists(st.booleans(), min_size=half, max_size=half)), dtype=bool
        )
        cuts = np.array(
            data.draw(st.lists(st.integers(1, m - 1), min_size=half, max_size=half)),
            dtype=np.intp,
        )
        expected = members.copy()
        for k in range(half):
            if cross[k]:
                cut = cuts[k]
                tail = expected[2 * k, cut:].copy()
                expected[2 * k, cut:] = expected[2 * k + 1, cut:]
                expected[2 * k + 1, cut:] = tail
        _single_point_crossover(members, cross, cuts)
        assert np.array_equal(members, expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        size=st.integers(1, 5),
        n=st.integers(1, 30),
        m=st.integers(1, 10),
        p_c=st.sampled_from([0.0, 0.7, 1.0]),
        p_m=st.sampled_from([0.0, 0.05]),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_block_step_matches_a_fancy_indexing_reference(
        self, size, n, m, p_c, p_m, strided, seed
    ):
        gen = make_rng(seed)
        members = gen.integers(0, 2, size=(size, n, m), dtype=np.uint8)
        if strided:  # a view whose rows are not one contiguous block
            members = np.ascontiguousarray(members.transpose(0, 2, 1)).transpose(0, 2, 1)
        fitness = _stacked_fitness(_wavy_fitness, members)
        params = GAParams(p_c=p_c, p_m=p_m)

        # each population's documented draws, one population after another;
        # rng.choice(n, size=n, p=...) draws random(n)
        rngs = [make_rng(seed + k) for k in range(size)]
        expected = np.empty((size, n, m), dtype=np.uint8)
        for k, rng in enumerate(rngs):
            child = members[k, rng.choice(n, size=n, p=fitness[k] / fitness[k].sum())]
            if m > 1:
                cross = rng.random(n // 2) < p_c
                cuts = rng.integers(1, m, size=n // 2)
                for pair in range(n // 2):
                    if cross[pair]:
                        cut = cuts[pair]
                        tail = child[2 * pair, cut:].copy()
                        child[2 * pair, cut:] = child[2 * pair + 1, cut:]
                        child[2 * pair + 1, cut:] = tail
            expected[k] = child ^ (rng.random((n, m)) < p_m)

        rngs = [make_rng(seed + k) for k in range(size)]
        children = _ga_block_step(members, fitness, params, rngs)
        assert children.shape == (size, n, m) and children.dtype == np.uint8
        assert np.array_equal(children, expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(size=st.integers(1, 6), n=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_masked_sums_match_a_fancy_indexing_reference(self, size, n, seed):
        gen = make_rng(seed)
        values = gen.uniform(0.1, 50.0, size=(size, n)) ** 3
        mask = gen.random((size, n)) < gen.random()
        rows = np.flatnonzero(gen.random(size) < 0.7)
        expected = [values[k, mask[k]].sum() for k in rows]
        got = _masked_sums(values, mask, rows)
        assert got.tolist() == expected


class TestGrowthExperiment:
    def test_schema_must_be_instantiated(self):
        pop = BinaryPopulation(
            np.zeros((4, 3), dtype=np.uint8), onemax_fitness
        )
        with pytest.raises(NoInstancesError):
            schema_growth_experiment(pop, "111", GAParams(), 3, 2)

    def test_below_average_schema_heads_to_extinction(self):
        pop0 = random_population(100, 20, onemax_fitness, make_rng(9))
        schema = "000" + "*" * 17
        params = GAParams(p_c=0.7, p_m=0.01, seed=123)
        report = schema_growth_experiment(pop0, schema, params, 50, 200)
        assert report.mean_counts[-1] < report.mean_counts[0]
        assert report.mean_counts[-1] < 1.0

    def test_report_shapes(self):
        pop0 = random_population(50, 10, onemax_fitness, make_rng(10))
        report = schema_growth_experiment(
            pop0, "1" + "*" * 9, GAParams(seed=1), 5, 8
        )
        assert report.mean_counts.shape == (6,)
        assert report.mean_observed_next.shape == (5,)
        assert report.mean_bounds.shape == (5,)
        assert 0.0 <= report.frac_cells_pass <= 1.0

    def test_deterministic_given_seed(self):
        pop0 = random_population(40, 8, onemax_fitness, make_rng(11))
        params = GAParams(p_c=0.6, p_m=0.02, seed=77)
        a = schema_growth_experiment(pop0, "11******", params, 6, 10)
        b = schema_growth_experiment(pop0, "11******", params, 6, 10)
        assert np.array_equal(a.mean_counts, b.mean_counts)
        assert a.frac_generations_pass == b.frac_generations_pass

    def test_fitness_runs_once_per_population(self):
        seen = []

        def counting(members):
            seen.append(members)
            return onemax_fitness(members)

        n = 30
        pop0 = random_population(n, 10, counting, make_rng(16))
        generations, trials = 6, 20
        schema_growth_experiment(pop0, "1*1*******", GAParams(seed=3), generations, trials)
        # pop0 once, then every generation of every trial but the last,
        # whose fitness nothing reads
        assert sum(len(members) for members in seen) == n * (1 + trials * (generations - 1))
        # one call per lockstep block of trials and generation
        assert len(seen) == 1 + math.ceil(trials / schema_lab._TRIALS) * (generations - 1)
        assert len({id(members) for members in seen}) == len(seen)

    # the trailing False in each id is the GA without elitism, the only one
    @pytest.mark.parametrize("evaluated_before", [False, True], ids=lambda e: f"{e}-False")
    def test_report_counts_the_fitness_rows(self, evaluated_before):
        rows = []

        def counting(members):
            rows.append(len(members))
            return onemax_fitness(members)

        pop0 = random_population(25, 8, counting, make_rng(19))
        if evaluated_before:
            pop0.fitness()
            rows.clear()
        report = schema_growth_experiment(
            pop0, "1*******", GAParams(p_m=0.05, seed=6), 4, 18
        )
        assert report.fitness_rows == sum(rows) > 0
        assert set(report.phase_s) == {"ga_step", "bound", "count"}
        assert all(seconds >= 0.0 for seconds in report.phase_s.values())

    @pytest.mark.parametrize(
        "rows, schema",
        [(np.zeros((6, 3), dtype=np.uint8), "***"), (np.ones((6, 1), dtype=np.uint8), "1")],
    )
    def test_undefined_bound_raises_before_any_trial(self, rows, schema):
        seen = []

        def counting(members):
            seen.append(members)
            return onemax_fitness(members)

        pop0 = BinaryPopulation(rows, counting)
        with pytest.raises(ValueError):
            schema_growth_experiment(pop0, schema, GAParams(), 3, 40)
        assert seen == []
        # without generations there is no bound to raise, and nothing to evaluate
        report = schema_growth_experiment(pop0, schema, GAParams(), 0, 5)
        assert report.mean_counts.tolist() == [6.0]
        assert report.fitness_rows == 0 and seen == []

    @pytest.mark.parametrize("generations, trials", [(3, 0), (3, -2), (-1, 3), (-1, 0)])
    def test_no_trials_or_negative_generations_raise_before_any_evaluation(
        self, generations, trials
    ):
        seen = []

        def counting(members):
            seen.append(members)
            return onemax_fitness(members)

        pop0 = random_population(20, 6, counting, make_rng(17))
        # trials is checked first
        match = "trials must be >= 1" if trials < 1 else "generations must be non-negative"
        with pytest.raises(ConfigurationError, match=match):
            schema_growth_experiment(pop0, "1*****", GAParams(), generations, trials)
        assert seen == []

    @pytest.mark.parametrize(
        "generations, trials, name", [(3, 4.0, "trials"), (3, 2.5, "trials"),
                                      (3.0, 4, "generations"), (0.5, 4, "generations")],
    )
    def test_non_integer_counts_raise_before_any_evaluation(self, generations, trials, name):
        seen = []

        def counting(members):
            seen.append(members)
            return onemax_fitness(members)

        pop0 = random_population(20, 6, counting, make_rng(17))
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            schema_growth_experiment(pop0, "1*****", GAParams(), generations, trials)
        assert seen == []

    def test_schema_string_parsed_once(self, monkeypatch):
        parsed = []
        compile_once = schema_lab.compile_schema

        def counting(schema):
            if not isinstance(schema, CompiledSchema):
                parsed.append(schema)
            return compile_once(schema)

        monkeypatch.setattr(schema_lab, "compile_schema", counting)
        pop0 = random_population(30, 10, onemax_fitness, make_rng(17))
        schema_growth_experiment(pop0, "11********", GAParams(seed=4), 5, 6)
        assert parsed == ["11********"]

    @settings(max_examples=80, deadline=None)
    @given(
        trials=st.sampled_from(
            [1, schema_lab._TRIALS - 1, schema_lab._TRIALS, schema_lab._TRIALS + 1]
        ),
        n=st.integers(2, 40),
        m=st.integers(2, 12),
        generations=st.integers(0, 5),
        p_c=st.sampled_from([0.0, 0.7, 1.0]),
        p_m=st.sampled_from([0.0, 0.05, 1.0]),
        fitness_fn=st.sampled_from([onemax_fitness, _wavy_fitness]),
        data=st.data(),
    )
    def test_bit_identical_to_the_per_trial_loop(
        self, trials, n, m, generations, p_c, p_m, fitness_fn, data
    ):
        pop_seed, member, seed = (data.draw(st.integers(0, 999)) for _ in range(3))
        pop0 = random_population(n, m, fitness_fn, make_rng(pop_seed))
        # fix the bits of one member at a few positions, so the schema has
        # an instance
        bits = pop0.members[member % n]
        fixed = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        schema = "".join(str(bits[i]) if i in fixed else "*" for i in range(m))
        params = GAParams(p_c=p_c, p_m=p_m, seed=seed)

        report = schema_growth_experiment(pop0, schema, params, generations, trials)
        expected = _per_trial_report(pop0, schema, params, generations, trials)
        for name in ("mean_counts", "mean_observed_next", "mean_bounds", "generation_pass"):
            assert np.array_equal(getattr(report, name), expected[name], equal_nan=True), name
        assert report.frac_generations_pass == expected["frac_generations_pass"]
        assert report.frac_cells_pass == expected["frac_cells_pass"]

    def test_memory_does_not_grow_with_trials(self):
        pop0 = random_population(100, 20, onemax_fitness, make_rng(18))
        pop0.fitness()
        tracemalloc.start()
        try:
            schema_growth_experiment(pop0, "11" + "*" * 18, GAParams(seed=5), 5, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (200, 100, 20) stack of all trials would be 400 KB of bits
        # plus 3.2 MB of mutation draws
        assert peak < 2**20

    def test_memory_grows_with_one_block_not_with_trials(self):
        generations = 5

        def peak_beyond_results(trials):
            pop0 = random_population(100, 20, onemax_fitness, make_rng(18))
            pop0.fitness()
            tracemalloc.start()
            try:
                schema_growth_experiment(
                    pop0, "11" + "*" * 18, GAParams(seed=5), generations, trials
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the float (trials, generations + 1) counts and (trials,
            # generations) bounds
            return peak - trials * (2 * generations + 1) * 8

        one_block = peak_beyond_results(schema_lab._TRIALS)
        assert peak_beyond_results(4 * schema_lab._TRIALS) <= 1.5 * one_block

    def test_bit_identical_to_the_per_trial_loop_across_a_block_boundary(self):
        pop0 = random_population(9, 6, _wavy_fitness, make_rng(22))
        schema = "".join(str(bit) for bit in pop0.members[0, :2]) + "*" * 4
        trials = schema_lab._TRIALS + 1
        params = GAParams(p_c=0.8, p_m=0.05, seed=23)
        report = schema_growth_experiment(pop0, schema, params, 3, trials)
        expected = _per_trial_report(pop0, schema, params, 3, trials)
        for name in ("mean_counts", "mean_observed_next", "mean_bounds"):
            assert np.array_equal(getattr(report, name), expected[name], equal_nan=True), name
        assert report.frac_cells_pass == expected["frac_cells_pass"]
