import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import viralsearch
import viralsearch.cli as cli
from viralsearch.core import Objective
from viralsearch.engine import VSConfig
from viralsearch.harness import ExperimentSpec
from viralsearch.schema_lab import GAParams
from reference import read_rows_csv, read_rows_json


def run_cli(*args):
    return cli.main(list(args))


class TestRunCommand:
    def test_basic_run_succeeds(self, capsys):
        code = run_cli(
            "run", "--function", "sphere", "--ni", "40", "--ng", "20",
            "--niv", "20", "--ngv", "15", "--seed", "3",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best point" in out
        assert "epidemics" in out

    def test_burst_population_below_four_names_its_field(self, capsys):
        code = run_cli(
            "run", "--function", "sphere", "--ni", "40", "--ng", "5",
            "--niv", "3", "--ngv", "5",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: n_viral_individuals must be >= 4")

    def test_writes_csv_report(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        code = run_cli(
            "run", "--function", "rosenbrock", "--ni", "40", "--ng", "15",
            "--niv", "20", "--ngv", "10", "--out", str(path),
        )
        assert code == 0
        rows = read_rows_csv(str(path))
        assert len(rows) == 1
        assert rows[0].status == "ok"

    def test_writes_json_report(self, tmp_path):
        path = tmp_path / "run.json"
        code = run_cli(
            "run", "--function", "sphere", "--ni", "40", "--ng", "10",
            "--niv", "15", "--ngv", "10", "--out", str(path),
        )
        assert code == 0
        assert len(read_rows_json(str(path))) == 1
        assert json.loads(path.read_text())["rows"][0]["status"] == "ok"

    def test_shekel_json_report_value_is_the_maximum(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code = run_cli(
            "run", "--function", "shekel", "--ni", "100", "--ng", "15",
            "--niv", "40", "--ngv", "25", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        out = capsys.readouterr().out
        (row,) = read_rows_json(str(path))
        assert f"{row.value:.6f}" == re.search(r"maximized value: (\S+)", out).group(1)
        assert f"{row.time_s:.3f}s" == re.search(r"wall time: (\S+)", out).group(1)
        assert row.value > 0 and len(row.point) == 4

    def test_parallel_flag(self, capsys):
        code = run_cli(
            "run", "--function", "sphere", "--ni", "40", "--ng", "10",
            "--niv", "15", "--ngv", "10", "--parallel", "4",
        )
        assert code == 0

    def test_small_population_warns(self, capsys):
        code = run_cli(
            "run", "--function", "sphere", "--ni", "10", "--ng", "5",
            "--niv", "10", "--ngv", "5",
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_unknown_function_is_config_error(self, capsys):
        code = run_cli(
            "run", "--function", "mystery", "--ni", "10", "--ng", "5",
            "--niv", "10", "--ngv", "5",
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_option_is_config_error(self, capsys):
        assert run_cli("run", "--function", "sphere") == 1

    def test_bad_parameter_value_is_config_error(self, capsys):
        code = run_cli(
            "run", "--function", "sphere", "--ni", "40", "--ng", "5",
            "--niv", "10", "--ngv", "5", "--rho", "3.0",
        )
        assert code == 1

    def test_shekel_reports_maximized_value(self, capsys):
        code = run_cli(
            "run", "--function", "shekel", "--ni", "100", "--ng", "15",
            "--niv", "40", "--ngv", "25", "--seed", "1",
        )
        assert code == 0
        assert "maximized value" in capsys.readouterr().out

    def test_shekel_report_value_matches_printed_maximum(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        code = run_cli(
            "run", "--function", "shekel", "--ni", "100", "--ng", "15",
            "--niv", "40", "--ngv", "25", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        printed = re.search(r"maximized value: (\S+)", capsys.readouterr().out).group(1)
        assert float(printed) > 0
        with open(path, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert row[header.index("val")] == printed


class TestBenchCommand:
    def test_unknown_spec_is_config_error(self, tmp_path):
        code = run_cli("bench", "--spec", "nosuch", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_negative_seed_exits_without_a_traceback(self, tmp_path):
        path = tmp_path / "x.csv"
        src = str(Path(viralsearch.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "viralsearch.cli", "bench", "--spec", "rosenbrock-table2",
             "--seed", "-1", "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not path.exists()

    def test_tiny_spec_end_to_end(self, tmp_path, monkeypatch, capsys):
        tiny = ExperimentSpec(
            benchmark="sphere",
            sweep_fields=("n_individuals", "n_generations"),
            cells=((5, 3),),
            base={"n_viral_individuals": 6, "n_viral_generations": 3},
        )
        monkeypatch.setattr(cli, "builtin_specs", lambda: {"tiny": tiny})
        path = tmp_path / "bench.csv"
        code = run_cli("bench", "--spec", "tiny", "--repeat", "2", "--out", str(path))
        assert code == 0
        rows = read_rows_csv(str(path))
        assert len(rows) == 3  # two runs plus the median row
        assert "wrote" in capsys.readouterr().out

    def test_json_extension_switches_format(self, tmp_path, monkeypatch):
        tiny = ExperimentSpec(
            benchmark="sphere",
            sweep_fields=("n_individuals", "n_generations"),
            cells=((5, 3),),
            base={"n_viral_individuals": 6, "n_viral_generations": 3},
        )
        monkeypatch.setattr(cli, "builtin_specs", lambda: {"tiny": tiny})
        path = tmp_path / "bench.json"
        assert run_cli("bench", "--spec", "tiny", "--out", str(path)) == 0
        assert len(read_rows_json(str(path))) == 2


class TestTraceCommand:
    def test_trace_file_written(self, tmp_path):
        path = tmp_path / "trace.csv"
        code = run_cli(
            "trace", "--function", "sphere", "--ni", "40", "--ng", "12",
            "--niv", "15", "--ngv", "10", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,fobj_global,epidemics,elapsed_ms,worker,evaluations"
        assert len(lines) == 13

    def test_parallel_trace_tags_each_workers_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        code = run_cli(
            "trace", "--function", "sphere", "--ni", "40", "--ng", "6",
            "--niv", "15", "--ngv", "5", "--parallel", "2", "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for worker in ("0", "1"):
            mine = [r for r in rows if r["worker"] == worker]
            assert [int(r["generation"]) for r in mine] == list(range(6))

    @pytest.mark.parametrize("ng", ["0", "-1"])
    def test_no_generations_is_config_error_before_any_run(self, tmp_path, monkeypatch,
                                                           capsys, ng):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "parallel_run", no_run)
        path = tmp_path / "trace.csv"
        code = run_cli(
            "trace", "--function", "sphere", "--ni", "40", "--ng", ng,
            "--niv", "15", "--ngv", "5", "--out", str(path),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.exists()

    def test_no_generations_exits_without_a_traceback(self, tmp_path):
        path = tmp_path / "trace.csv"
        src = str(Path(viralsearch.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "viralsearch.cli", "trace", "--function", "sphere",
             "--ni", "40", "--ng", "0", "--niv", "15", "--ngv", "5", "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not path.exists()


class TestSchemaCommand:
    def test_growth_report_printed(self, capsys):
        code = run_cli(
            "schema", "--schema", "1*******", "--pc", "0.6", "--pm", "0.01",
            "--generations", "5", "--trials", "10",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generations meeting the bound" in out
        assert out.count("gen ") == 5

    def test_all_wildcard_schema_is_config_error(self, capsys):
        code = run_cli(
            "schema", "--schema", "***", "--pc", "0.5", "--pm", "0.01",
            "--generations", "3", "--trials", "2",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "all-wildcard" in err

    @pytest.mark.parametrize(
        "generations, trials", [("3", "0"), ("3", "-2"), ("-1", "3")]
    )
    def test_no_trials_or_negative_generations_are_config_errors(
        self, capsys, generations, trials
    ):
        code = run_cli(
            "schema", "--schema", "1*****", "--pc", "0.7", "--pm", "0.01",
            "--generations", generations, "--trials", trials,
        )
        assert code == 1
        captured = capsys.readouterr()
        expected = ("trials must be >= 1" if int(trials) < 1
                    else "generations must be non-negative")
        assert captured.err.startswith("error: ") and expected in captured.err
        assert "Traceback" not in captured.err
        assert "generations meeting the bound" not in captured.out

    @pytest.mark.parametrize("pop", ["-3", "0"])
    def test_population_below_one_is_config_error(self, capsys, pop):
        code = run_cli(
            "schema", "--schema", "1*", "--pc", "0.7", "--pm", "0.01",
            "--generations", "2", "--trials", "3", "--pop", pop,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"n must be >= 1, got {pop}" in err
        assert "Traceback" not in err

    def test_bad_pattern_is_config_error(self):
        code = run_cli(
            "schema", "--schema", "1x*", "--pc", "0.5", "--pm", "0.01",
            "--generations", "3", "--trials", "2",
        )
        assert code == 1


RUN_ARGS = ("--function", "sphere", "--ni", "40", "--ng", "5", "--niv", "15", "--ngv", "5")


class TestOutDirectory:
    """An --out in a directory that is missing, or is a file, fails with
    exit code 2 and the error writing it would raise, before any objective
    is evaluated."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate_many = Objective.evaluate_many

        def counting(objective, t, points):
            calls.append(len(points))
            return evaluate_many(objective, t, points)

        monkeypatch.setattr(Objective, "evaluate_many", counting)
        return calls

    @pytest.mark.parametrize("argv", [("run", *RUN_ARGS), ("trace", *RUN_ARGS),
                                      ("bench", "--spec", "rosenbrock-table2")],
                             ids=["run", "trace", "bench"])
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_fails_before_any_evaluation(self, tmp_path, capsys, evaluations, argv, parent):
        if parent == "file":
            (tmp_path / "file").write_text("")
        path = str(tmp_path / parent / "out.csv")
        assert run_cli(*argv, "--out", path) == 2
        out, err = capsys.readouterr()
        with pytest.raises(OSError) as writing:
            open(path, "w")
        assert err == f"error: {writing.value}\n"
        assert out == ""
        assert evaluations == []

    def test_a_bare_file_name_writes_to_the_working_directory(self, tmp_path, monkeypatch,
                                                              evaluations):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", *RUN_ARGS, "--out", "out.csv") == 0
        assert evaluations and (tmp_path / "out.csv").exists()


class TestDefaults:
    """Given only its required flags, each subcommand passes on the
    defaults of the config class it builds."""

    class Captured(Exception):
        pass

    @pytest.fixture
    def captured(self, monkeypatch):
        seen = []

        def capture(*args, **kwargs):
            seen.append(args)
            raise self.Captured

        for name in ("parallel_run", "run_experiment", "schema_growth_experiment"):
            monkeypatch.setattr(cli, name, capture)
        return seen

    @pytest.mark.parametrize("argv", [("run", *RUN_ARGS), ("trace", *RUN_ARGS)],
                             ids=["run", "trace"])
    def test_run_and_trace_pass_the_vsconfig_defaults(self, tmp_path, captured, argv):
        with pytest.raises(self.Captured):
            run_cli(*argv, "--out", str(tmp_path / "out.csv"))
        [(_, _, cfg)] = captured
        assert cfg == VSConfig(n_generations=5, n_viral_generations=5, n_individuals=40,
                               n_viral_individuals=15)

    def test_bench_passes_the_experiment_spec_defaults(self, tmp_path, captured):
        with pytest.raises(self.Captured):
            run_cli("bench", "--spec", "rosenbrock-table2", "--out", str(tmp_path / "b.csv"))
        [(spec,)] = captured
        defaults = {f.name: f.default for f in fields(ExperimentSpec)}
        assert (spec.repeat, spec.seed_base) == (defaults["repeat"], defaults["seed_base"])

    def test_schema_passes_the_ga_params_defaults(self, captured):
        with pytest.raises(self.Captured):
            run_cli("schema", "--schema", "1**", "--pc", "0.7", "--pm", "0.01",
                    "--generations", "3", "--trials", "2")
        [(_, _, params)] = captured
        assert params == GAParams(p_c=0.7, p_m=0.01)


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("run", "--function", "sphere", "--ni", "40", "--ng", "5",
              "--niv", "10", "--ngv", "5", "--format", "json"), "--format json"),
            (("schema", "--schema", "1**", "--length", "5", "--pc", "0.5",
              "--pm", "0.01", "--generations", "3", "--trials", "2"), "--length 5"),
        ],
        ids=["run-format", "schema-length"],
    )
    def test_is_an_unknown_option(self, capsys, argv, option):
        assert run_cli(*argv) == 1
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestImports:
    def test_package_imports_no_test_or_reference_tooling(self):
        # scipy serves the tests as a reference oracle only; importing the
        # package or its command line must not pull it, hypothesis or pytest in
        code = (
            "import sys, viralsearch, viralsearch.cli; "
            "print(sorted({name.split('.')[0] for name in sys.modules} "
            "& {'scipy', 'hypothesis', 'pytest'}))"
        )
        src = str(Path(viralsearch.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestHelp:
    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_subcommand_help_exits_zero(self, capsys):
        for command in ("run", "bench", "trace", "schema"):
            assert run_cli(command, "--help") == 0
            assert capsys.readouterr().out.startswith(f"usage: viralsearch {command}")
