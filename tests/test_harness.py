import json
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from viralsearch import harness
from viralsearch.benchmarks import make_benchmark
from viralsearch.core import (
    Bounds,
    ConfigurationError,
    EvaluationError,
    Objective,
    child_seed,
    make_rng,
)
from viralsearch.engine import VSConfig, run
from viralsearch.harness import (
    ExperimentSpec,
    ReportRow,
    builtin_specs,
    parallel_run,
    read_rows_csv,
    read_rows_json,
    run_experiment,
    split_bounds,
    trace_export,
    write_rows,
)
from viralsearch.local_search import DEConfig

SPHERE = Objective(lambda t, p: (p**2).sum(axis=1), arity=2, name="sphere")
BOX = Bounds([-3.0, -3.0], [3.0, 3.0])


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        benchmark="sphere",
        sweep_fields=("n_individuals", "n_generations"),
        cells=((4, 3), (6, 4)),
        base={"n_viral_individuals": 6, "n_viral_generations": 3},
        repeat=2,
        seed_base=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_cell_shape_checked(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(cells=((4,),))

    def test_repeat_floor(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(repeat=0)

    def test_builtin_grids(self):
        specs = builtin_specs()
        assert set(specs) == {
            "rosenbrock-table2",
            "rosenbrock-table3",
            "schaffer-table3",
            "twowell-table4",
            "shekel-table5",
        }
        t2 = specs["rosenbrock-table2"]
        assert t2.cells == (
            (5, 50), (10, 75), (30, 100), (60, 200), (100, 300), (400, 1200),
        )
        assert t2.base == {"n_viral_individuals": 150, "n_viral_generations": 75}
        t3 = specs["schaffer-table3"]
        assert t3.cells == (
            (10, 50), (50, 75), (100, 100), (400, 150), (1000, 200), (1500, 300),
        )
        r3 = specs["rosenbrock-table3"]
        assert r3.sweep_fields == ("n_viral_individuals", "n_viral_generations")
        assert r3.base == {"n_individuals": 40, "n_generations": 100}
        t4 = specs["twowell-table4"]
        assert t4.benchmark_params["tau"] == 500.0
        assert "time_varying" not in t4.base
        assert make_benchmark(t4.benchmark, **t4.benchmark_params).objective.time_varying
        t5 = specs["shekel-table5"]
        assert t5.base == {"n_viral_individuals": 300, "n_viral_generations": 75}
        assert (1000, 2000) in t5.cells


class TestRunExperiment:
    def test_row_counts_and_kinds(self):
        rows = run_experiment(tiny_spec())
        # two cells, two runs each, plus one median row per cell
        assert len(rows) == 6
        kinds = [r.kind for r in rows]
        assert kinds.count("median") == 2
        assert all(r.status == "ok" for r in rows)

    def test_median_row_is_the_middle_run(self):
        spec = tiny_spec(cells=((6, 4),), repeat=3)
        rows = run_experiment(spec)
        runs = [r for r in rows if r.kind == "run"]
        median = [r for r in rows if r.kind == "median"][0]
        assert median.value == sorted(r.value for r in runs)[1]

    def test_deterministic_apart_from_timing(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec())
        for ra, rb in zip(a, b):
            assert ra.sweep == rb.sweep
            assert ra.point == rb.point
            assert ra.value == rb.value
            assert ra.seed == rb.seed
            assert ra.kind == rb.kind

    @pytest.mark.parametrize(
        "overrides, key, valid",
        [
            (dict(base={"n_viral_individuals": 6, "n_viral_generations": 3, "bogus": 1}),
             "bogus", "n_viral_individuals"),
            (dict(sweep_fields=("n_individuals", "n_generatoins")),
             "n_generatoins", "n_generations"),
            (dict(de={"crossover": 0.5}), "crossover", "crossover_rate"),
        ],
        ids=["base", "sweep_fields", "de"],
    )
    def test_unknown_config_key_fails_before_any_run(self, monkeypatch, overrides, key, valid):
        calls = []

        def counted_run(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", counted_run)
        with pytest.raises(ConfigurationError) as excinfo:
            run_experiment(tiny_spec(**overrides))
        assert calls == []
        assert repr(key) in str(excinfo.value)
        assert valid in str(excinfo.value)
        # the same patch sees every run of a valid spec
        run_experiment(tiny_spec())
        assert len(calls) == 4

    def test_failed_cell_recorded_not_fatal(self):
        spec = tiny_spec(cells=((2, 3), (6, 4)))  # burst pop 6 is fine; ni=2 ok
        rows = run_experiment(spec)
        assert all(r.status == "ok" for r in rows)
        # a cell that cannot even build its config becomes an error row
        bad = tiny_spec(
            cells=((6, 4),),
            base={"n_viral_individuals": 2, "n_viral_generations": 3},
            repeat=1,
        )
        rows = run_experiment(bad)
        assert any(r.status.startswith("error: ConfigurationError") for r in rows)
        assert np.isnan([r.value for r in rows if r.status != "ok"][0])

    @pytest.mark.parametrize("error", [EvaluationError, ConfigurationError])
    def test_package_errors_become_error_rows(self, monkeypatch, error):
        def failing_run(*args, **kwargs):
            raise error("bad cell")

        monkeypatch.setattr(harness, "run", failing_run)
        rows = run_experiment(tiny_spec(repeat=1))
        runs = [r for r in rows if r.kind != "median"]
        assert len(runs) == 2
        assert all(r.status == f"error: {error.__name__}: bad cell" for r in runs)
        assert all(np.isnan(r.value) for r in rows)

    def test_wrong_length_objective_becomes_an_error_row(self, monkeypatch):
        sphere = make_benchmark("sphere")
        short = replace(
            sphere, objective=Objective(lambda t, p: np.array([1.0]), arity=2)
        )
        monkeypatch.setattr(harness, "make_benchmark", lambda name, **kw: short)
        rows = run_experiment(tiny_spec(repeat=1))
        runs = [r for r in rows if r.kind != "median"]
        assert len(runs) == 2
        for r in runs:
            assert re.fullmatch(
                r"error: EvaluationError: objective returned 1 values for \d+ "
                r"points at generation 0; it must return one value per point",
                r.status,
            )

    def test_other_errors_propagate(self, monkeypatch):
        def buggy_run(*args, **kwargs):
            raise RuntimeError("bug in the engine")

        monkeypatch.setattr(harness, "run", buggy_run)
        with pytest.raises(RuntimeError, match="bug in the engine"):
            run_experiment(tiny_spec())

    def test_checkpoint_rows(self):
        spec = ExperimentSpec(
            name="ck",
            benchmark="sphere",
            base={
                "n_individuals": 5,
                "n_generations": 6,
                "n_viral_individuals": 5,
                "n_viral_generations": 3,
            },
            checkpoints=(1, 3, 5),
        )
        rows = run_experiment(spec)
        assert [r.sweep["t"] for r in rows] == [1, 3, 5]
        values = [r.value for r in rows]
        assert values == sorted(values, reverse=True)  # incumbent improves

    def test_checkpoint_past_the_run_is_an_error_row(self):
        spec = ExperimentSpec(
            name="ck",
            benchmark="sphere",
            base={
                "n_individuals": 5,
                "n_generations": 6,
                "n_viral_individuals": 5,
                "n_viral_generations": 3,
            },
            checkpoints=(5, 6, 9),
        )
        last, *missing = run_experiment(spec)
        assert last.status == "ok" and last.sweep == {"t": 5}
        assert [r.status for r in missing] == [
            "error: no trace row for generation 6",
            "error: no trace row for generation 9",
        ]
        for r in missing:
            assert r.point is None and np.isnan(r.value)
            assert r.kind == "run" and r.seed == last.seed

    def test_maximization_benchmark_reports_positive_values(self):
        spec = ExperimentSpec(
            name="max",
            benchmark="shekel",
            cells=((),),
            base={
                "n_individuals": 30,
                "n_generations": 10,
                "n_viral_individuals": 30,
                "n_viral_generations": 20,
            },
        )
        rows = run_experiment(spec)
        assert all(r.value > 0 for r in rows)
        # a checkpoint run flips the sign of its trace values the same way
        rows = run_experiment(replace(spec, checkpoints=(0, 4, 9)))
        assert [r.status for r in rows] == ["ok"] * 3
        assert all(r.value > 0 for r in rows)


class TestSerialization:
    def test_csv_layout_and_endings(self, tmp_path):
        path = tmp_path / "report.csv"
        rows = run_experiment(tiny_spec(out_path=str(path)))
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        header = text.splitlines()[0]
        assert header == "n_individuals,n_generations,x,y,z,time_s,seed,kind,status"
        assert len(text.splitlines()) == len(rows) + 1
        # floats carry exactly six fractional digits
        first_value = text.splitlines()[1].split(",")[4]
        assert len(first_value.split(".")[1]) == 6

    def test_csv_parse_write_stability(self, tmp_path):
        path = tmp_path / "report.csv"
        run_experiment(tiny_spec(out_path=str(path)))
        rows1 = read_rows_csv(str(path))
        path2 = tmp_path / "again.csv"
        write_rows(rows1, str(path2), make_benchmark("sphere"))
        assert path.read_bytes() == path2.read_bytes()
        assert read_rows_csv(str(path2)) == rows1

    def test_json_round_trip_exact(self, tmp_path):
        path = tmp_path / "report.json"
        rows = run_experiment(tiny_spec(out_path=str(path)))
        parsed = read_rows_json(str(path))
        assert parsed == rows
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == len(rows)

    @pytest.mark.parametrize("name", ["report.json", "report.csv", "report.json.csv",
                                      "report.txt", "report"])
    def test_suffix_picks_the_format(self, tmp_path, name):
        rows = run_experiment(tiny_spec(repeat=1))
        path = tmp_path / name
        write_rows(rows, str(path), make_benchmark("sphere"))
        if name.endswith(".json"):
            assert read_rows_json(str(path)) == rows
        else:
            assert path.read_text().startswith("n_individuals,n_generations,x,y,z,")
            assert [r.value for r in read_rows_csv(str(path))] == pytest.approx(
                [r.value for r in rows], abs=1e-6
            )

    def test_columns_named_after_the_benchmark(self, tmp_path):
        row = ReportRow(sweep={"t": 3}, point=(1.0, 2.0, 3.0, 4.0), value=10.5,
                        time_s=0.25, seed=7)
        path = tmp_path / "shekel.csv"
        write_rows([row], str(path), make_benchmark("shekel"))
        assert path.read_text() == (
            "t,x1,x2,x3,x4,val,time_s,seed,kind,status\n"
            "3,1.000000,2.000000,3.000000,4.000000,10.500000,0.250000,7,run,ok\n"
        )

    def test_json_keeps_nan_and_missing_points(self, tmp_path):
        rows = [
            ReportRow(sweep={"t": 1}, point=None, value=float("nan"), time_s=0.0,
                      seed=3, status="error: no trace row for generation 1"),
            ReportRow(sweep={"t": 2}, point=(0.5, -0.25), value=-1.5, time_s=0.125,
                      seed=3, kind="median"),
        ]
        path = tmp_path / "report.json"
        write_rows(rows, str(path), make_benchmark("sphere"))
        assert '"value": NaN' in path.read_text()
        back = read_rows_json(str(path))
        assert back[0].point is None and np.isnan(back[0].value)
        assert back[0].status == rows[0].status
        assert back[1] == rows[1] and isinstance(back[1].point, tuple)


class TestSplitBounds:
    def test_single_partition(self):
        assert split_bounds(BOX, 1) == [BOX]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
    def test_boxes_cover_the_domain(self, m):
        boxes = split_bounds(BOX, m)
        assert len(boxes) == m
        total = sum(np.prod(box.span) for box in boxes)
        assert total == pytest.approx(np.prod(BOX.span))
        for box in boxes:
            assert (box.lb >= BOX.lb - 1e-12).all()
            assert (box.ub <= BOX.ub + 1e-12).all()

    def test_read_only_limits_split_into_new_boxes(self):
        b = Bounds([0.0, -1.0], [4.0, 1.0])
        boxes = split_bounds(b, 3)
        assert b.lb.tolist() == [0.0, -1.0] and b.ub.tolist() == [4.0, 1.0]
        for box in boxes:
            assert not box.lb.flags.writeable and not box.ub.flags.writeable
            assert np.array_equal(box.span, box.ub - box.lb)

    def test_bisection_splits_longest_axis_first(self):
        b = Bounds([0.0, 0.0], [4.0, 1.0])
        left, right = split_bounds(b, 2)
        assert np.allclose(left.ub, [2.0, 1.0])
        assert np.allclose(right.lb, [2.0, 0.0])


class TestParallelRun:
    def cfg(self, **overrides):
        base = dict(
            n_generations=8,
            n_viral_generations=5,
            n_individuals=12,
            n_viral_individuals=6,
            seed=5,
        )
        base.update(overrides)
        return VSConfig(**base)

    def test_m1_bit_identical_to_direct_run(self):
        cfg = self.cfg()
        direct = run(SPHERE, BOX, cfg)
        merged = parallel_run(SPHERE, BOX, cfg, m=1)
        assert merged.best_value == direct.best_value
        assert np.array_equal(merged.best_point, direct.best_point)
        for ra, rb in zip(merged.trace, direct.trace):
            assert ra.fobj_global == rb.fobj_global
            assert np.array_equal(ra.best_point, rb.best_point)

    def test_merged_best_is_min_over_workers(self):
        cfg = self.cfg()
        merged = parallel_run(SPHERE, BOX, cfg, m=4)
        finals = {}
        for row in merged.trace:
            finals[row.worker] = row.fobj_global  # rows arrive per worker in order
        assert set(finals) == {0, 1, 2, 3}
        assert merged.best_value == min(finals.values())

    def test_valley_worker_drives_the_merged_result(self):
        bench = make_benchmark("rosenbrock")
        cfg = VSConfig(
            n_generations=30,
            n_viral_generations=40,
            n_individuals=40,
            n_viral_individuals=40,
            seed=2,
        )
        merged = parallel_run(bench.objective, bench.bounds, cfg, m=4)
        finals = {}
        for row in merged.trace:
            finals[row.worker] = row.fobj_global
        assert merged.best_value == min(finals.values())
        # one quarter-box owns the global minimum at (1, 1); the merged
        # result can be no worse than that worker's best
        boxes = split_bounds(bench.bounds, 4)
        owner = [w for w, box in enumerate(boxes)
                 if box.contains(np.array([[1.0, 1.0]]))]
        assert any(merged.best_value <= finals[w] for w in owner)

    def test_population_share_conserved(self):
        cfg = self.cfg(n_individuals=10)
        merged = parallel_run(SPHERE, BOX, cfg, m=3)
        # each worker produced a full trace, so every share ran
        workers = {row.worker for row in merged.trace}
        assert workers == {0, 1, 2}

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_one_run_per_sub_box(self, m):
        bench = make_benchmark("rosenbrock")
        cfg = VSConfig(
            n_generations=30,
            n_viral_generations=8,
            n_individuals=11,
            n_viral_individuals=10,
            seed=7,
        )
        merged = parallel_run(bench.objective, bench.bounds, cfg, m=m)
        share, extra = divmod(cfg.n_individuals, m)
        oracle = [
            run(bench.objective, box,
                replace(cfg, n_individuals=share + (w < extra), seed=child_seed(cfg.seed, w)))
            for w, box in enumerate(split_bounds(bench.bounds, m))
        ]
        best = min(oracle, key=lambda r: r.best_value)  # ties go to the lowest index
        assert merged.best_value == best.best_value
        assert np.array_equal(merged.best_point, best.best_point)
        assert merged.epidemic_count == sum(r.epidemic_count for r in oracle)
        assert merged.epidemic_count > m  # the workers did fire bursts
        expected = [(w, row) for w, r in enumerate(oracle) for row in r.trace]
        assert len(merged.trace) == len(expected)
        for got, (w, want) in zip(merged.trace, expected):
            assert got.worker == w
            assert got.generation == want.generation
            assert got.fobj_global == want.fobj_global
            assert got.epidemics_so_far == want.epidemics_so_far
            assert np.array_equal(got.best_point, want.best_point)

    def test_workers_run_on_the_calling_thread(self):
        threads, counts = set(), set()

        def f(t, p):
            threads.add(threading.get_ident())
            counts.add(threading.active_count())
            return (p**2).sum(axis=1)

        before = threading.active_count()
        parallel_run(Objective(f, arity=2), BOX, self.cfg(), m=4)
        assert threads == {threading.get_ident()}
        assert counts == {before}
        assert threading.active_count() == before

    def test_too_many_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_run(SPHERE, BOX, self.cfg(n_individuals=3), m=4)

    def test_equal_budget_decomposition_stays_close(self):
        bench = make_benchmark("schaffer")
        singles, merged = [], []
        for seed in range(10):
            cfg = VSConfig(
                n_generations=40,
                n_viral_generations=30,
                n_individuals=80,
                n_viral_individuals=60,
                seed=seed,
            )
            singles.append(run(bench.objective, bench.bounds, cfg).best_value)
            merged.append(
                parallel_run(bench.objective, bench.bounds, cfg, m=4).best_value
            )
        assert np.median(merged) <= 10.0 * np.median(singles) + 1e-6


class TestTraceExport:
    def test_row_count_and_header(self, tmp_path):
        cfg = VSConfig(
            n_generations=3,
            n_viral_generations=3,
            n_individuals=5,
            n_viral_individuals=5,
            seed=0,
        )
        result = run(SPHERE, BOX, cfg)
        path = tmp_path / "trace.csv"
        trace_export(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,fobj_global,epidemics,elapsed_ms,worker"
        assert len(lines) == 4
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "0"]

    def test_static_column_non_increasing(self, tmp_path):
        cfg = VSConfig(
            n_generations=25,
            n_viral_generations=5,
            n_individuals=8,
            n_viral_individuals=6,
            seed=3,
        )
        result = run(SPHERE, BOX, cfg)
        path = tmp_path / "trace.csv"
        trace_export(result, str(path))
        values = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_empty_trace_rejected(self):
        cfg = VSConfig(
            n_generations=0,
            n_viral_generations=3,
            n_individuals=5,
            n_viral_individuals=5,
        )
        result = run(SPHERE, BOX, cfg)
        with pytest.raises(ValueError):
            trace_export(result, "/tmp/never-written.csv")

    def test_convergence_curve_reaches_low_values(self, tmp_path):
        bench = make_benchmark("rosenbrock")
        cfg = VSConfig(
            n_generations=1000,
            n_viral_generations=75,
            n_individuals=40,
            n_viral_individuals=150,
            seed=1,
        )
        result = run(bench.objective, bench.bounds, cfg)
        assert result.trace[-1].fobj_global < 1e-2
        path = tmp_path / "curve.csv"
        trace_export(result, str(path))
        assert len(path.read_text().splitlines()) == 1001
