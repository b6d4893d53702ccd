"""The benchmark's own tests.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locate
import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
vs = locate.import_program()


def bench(*args, cwd=locate.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((locate.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_benchmark_json_names_the_workloads():
    spec = json.loads((locate.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copy(locate.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "schema", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_rosenbrock_oracle():
    assert oracles.rosenbrock_value(1.0, 1.0) == 0.0
    assert oracles.rosenbrock_value(0.0, 0.0) == 1.0


def test_shekel_reference():
    a, c = vs.benchmarks.SHEKEL_A, vs.benchmarks.SHEKEL_C
    point, value = oracles.shekel_reference(a, c)
    assert value == pytest.approx(10.53418, abs=5e-6)
    assert np.abs(point - [4.0007, 4.0006, 4.0007, 3.9995]).max() < 1e-4
    # the program's registered function agrees with the benchmark's formula
    assert vs.benchmarks.shekel(point) == pytest.approx(value, rel=1e-12)


def test_schema_oracles_by_hand():
    members = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    assert oracles.schema_count(members, "11*") == 2
    # fitness 1 + ones: 3, 3, 3, 4; matches of 1*1 are rows 1 and 3
    expected = 2 * (3.5 / 3.25) * (1 - 0.5 * 2 / 2) * (1 - 0.1) ** 2
    assert oracles.schema_bound(members, "1*1", 0.5, 0.1) == pytest.approx(expected, rel=1e-15)


def test_traced_parallel_run_attributes_each_worker():
    spec = vs.make_benchmark("rosenbrock")
    recorder = tracing.Recorder()
    objective = vs.Objective(recorder.objective(spec.objective.fn), 2)
    cfg = vs.VSConfig(n_generations=40, n_viral_generations=10, n_individuals=41,
                      n_viral_individuals=12, seed=5)
    with recorder.installed():
        result = vs.parallel_run(objective, spec.bounds, cfg, m=2)
    runs = {t.config.seed: t for t in recorder.tallies if t.config is not None}
    assert len(runs) == 2
    last_row = {row.worker: row for row in result.trace}
    for w, scouts in enumerate((21, 20)):
        tally = runs[vs.child_seed(cfg.seed, w)]
        assert tally.config.n_individuals == scouts
        assert tally.counts["engine.scout_evals"] == scouts * cfg.n_generations
        assert tally.counts["engine.bursts"] == last_row[w].epidemics_so_far
        assert tally.counts["local_search.burst_evals"] == (
            tally.counts["engine.bursts"] * cfg.n_viral_individuals
            * (cfg.n_viral_generations + 1))
    assert sum(t.counts["engine.bursts"] for t in runs.values()) == result.epidemic_count
    # nothing is evaluated outside the two worker runs
    assert sum(t.rows for t in recorder.tallies) == sum(t.rows for t in runs.values())
    # the wrappers are gone again
    from viralsearch import engine, harness

    assert harness.run is engine.run
