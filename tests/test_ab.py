"""`tools/ab.py` against a throwaway git repository whose
`perfbench/run.py` and `viralsearch` package are stubs: the alternation of
sides, the equal paths of the two checkouts, the one process of the
direct runs, and the reading of the last JSON line. The stub's perfbench
metrics are constants, and no test asserts a time."""

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "evals_per_s", "unit": "evals/s", "better": "higher", "bound": 0.2},
]

# logs where and how it ran, then prints a line that looks like JSON but is
# not the report, perfbench's text lines (the unscaled figure beside wall_s
# only), then the report built from the committed value.json
STUB = '''
import json, os, sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
value = json.loads((root / "perfbench" / "value.json").read_text())
with open(os.environ["AB_TEST_LOG"], "a") as log:
    log.write(json.dumps({
        "root": str(root),
        "args": sys.argv[1:],
        "pycache": [str(p) for p in root.rglob("__pycache__")],
        "no_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE") == "1",
    }) + "\\n")
print("workload", sys.argv[2])
print("{not the report")
print(f"  wall_s                       {value['wall_s']:.6g} s   (unscaled {value['raw_wall_s']:.6g})")
print(f"  evals_per_s                  {value['evals_per_s']:.6g} evals/s")
print(json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": {
    "wall_s": {"value": value["wall_s"], "unit": "s"},
    "evals_per_s": {"value": value["evals_per_s"], "unit": "evals/s"},
}}))
print()
'''


# logs where and in which process the timed call ran, then prints a line
# that looks like JSON but is not the report
PACKAGE = '''
import json, os
from pathlib import Path

def work():
    root = Path(__file__).resolve().parent.parent.parent
    with open(os.environ["AB_TEST_LOG"], "a") as log:
        log.write(json.dumps({
            "root": str(root),
            "pid": os.getpid(),
            "pycache": [str(p) for p in root.rglob("__pycache__")],
            "no_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE") == "1",
        }) + "\\n")
    print("{not the report")
'''


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", "-C", str(repo),
         *args], check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def _commit(repo: Path, wall_s: float, evals_per_s: float) -> str:
    (repo / "perfbench" / "value.json").write_text(
        json.dumps({"wall_s": wall_s, "raw_wall_s": wall_s / 4, "evals_per_s": evals_per_s}))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", f"wall_s {wall_s}")
    return _git(repo, "rev-parse", "HEAD")


@pytest.fixture
def stub_repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (repo / "src" / "viralsearch").mkdir(parents=True)
    (repo / "src" / "viralsearch" / "__init__.py").write_text(PACKAGE)
    _git(repo, "init", "-q")
    base = _commit(repo, wall_s=2.0, evals_per_s=100.0)
    head = _commit(repo, wall_s=1.5, evals_per_s=100.0)
    # an untracked bytecode cache in the work tree, which no checkout may carry
    (repo / "perfbench" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"stale")
    return repo, base, head


def test_pairs_alternate_on_equal_paths_without_bytecode(stub_repo, tmp_path, monkeypatch,
                                                         capsys):
    repo, base, head = stub_repo
    log = tmp_path / "runs.jsonl"
    monkeypatch.setenv("AB_TEST_LOG", str(log))
    assert ab.main(["--base", base, "--head", head, "--workload", "shekel", "--pairs", "3",
                    "--seed", "4", "--seconds", "7", "--repo", str(repo)]) == 0

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    sides = [Path(r["root"]).name for r in runs]
    assert sides == ["base", "head", "head", "base", "base", "head"]
    roots = {Path(r["root"]) for r in runs}
    assert len(roots) == 2
    base_root, head_root = sorted(roots)
    assert base_root.parent == head_root.parent
    assert len(str(base_root)) == len(str(head_root))
    assert all(r["pycache"] == [] and r["no_bytecode"] for r in runs)
    assert all(r["args"] == ["--workload", "shekel", "--seed", "4", "--seconds", "7.0"]
               for r in runs)
    assert not base_root.exists()

    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[-1])["shekel"]
    assert summary["wall_s"] == {"unit": "s", "better": "lower", "base_median": 2.0,
                                 "head_median": 1.5, "base_iqr": 0.0, "head_wins": 3,
                                 "pairs": 3, "base_unscaled_median": 0.5,
                                 "head_unscaled_median": 0.375}
    assert summary["evals_per_s"]["head_wins"] == 0  # ties count for neither side
    assert "base_unscaled_median" not in summary["evals_per_s"]  # none printed
    assert "unscaled base 0.5 | head 0.375" in out[-3]


def test_unscaled_reads_the_figure_beside_each_metric():
    out = ("workload shekel, seed 0: 6 operations in 2 untraced rounds, 0 failed\n"
           "  setup_s                      0.258 s   (unscaled 0.117)\n"
           "  wall_s                       4.50123 s   (unscaled 1.92638)\n"
           "  peak_rss_mb                  47.6 MB\n"
           '{"correct": true, "metrics": {}}\n')
    assert ab.unscaled(out) == {"setup_s": 0.117, "wall_s": 1.92638}


def test_last_json_reads_the_last_nonempty_line():
    out = 'workload shekel\n{"a": 1}\n  setup_s 0.25 s\n{"correct": true, "metrics": {}}\n\n'
    assert ab.last_json(out) == {"correct": True, "metrics": {}}
    with pytest.raises(ValueError):
        ab.last_json("\n\n")
    with pytest.raises(json.JSONDecodeError):
        ab.last_json('{"correct": true}\nperfbench: worker exited with 1\n')


def test_summary_counts_wins_by_each_metric_direction():
    def report(wall_s, evals_per_s):
        return {"metrics": {"wall_s": {"value": wall_s}, "evals_per_s": {"value": evals_per_s}}}

    reports = [{"base": report(b, e), "head": report(h, f)}
               for b, h, e, f in [(4.0, 3.0, 10.0, 12.0), (5.0, 5.0, 10.0, 9.0),
                                  (6.0, 7.0, 10.0, 11.0), (8.0, 1.0, 10.0, 10.0)]]
    summary = ab.summarize(reports, END_TO_END)
    assert summary["wall_s"]["head_wins"] == 2
    assert summary["evals_per_s"]["head_wins"] == 2
    assert summary["wall_s"]["base_median"] == 5.5
    assert summary["wall_s"]["base_iqr"] == pytest.approx(6.5 - 4.75)
    assert ab.order(4) == [("base", "head"), ("head", "base")] * 2


def test_same_process_runs_alternate_each_bound_to_its_own_side(stub_repo, tmp_path,
                                                                 monkeypatch, capsys):
    repo, base, head = stub_repo
    log = tmp_path / "runs.jsonl"
    monkeypatch.setenv("AB_TEST_LOG", str(log))
    # the caller's own package on its path must not be the one timed
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert ab.main(["--base", base, "--head", head, "--direct", "--call", "vs.work()",
                    "--pairs", "3", "--repo", str(repo)]) == 0

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [Path(r["root"]).name for r in runs] == ["base", "head", "head", "base", "base",
                                                    "head"]
    assert len({r["root"] for r in runs}) == 2
    pids = {r["pid"] for r in runs}
    assert len(pids) == 1 and os.getpid() not in pids
    assert all(r["pycache"] == [] and r["no_bytecode"] for r in runs)

    out = capsys.readouterr().out.splitlines()
    assert "direct: 3 pairs" in out
    summary = json.loads(out[-1])
    assert summary.keys() == {"direct"} and summary["direct"].keys() == {"wall_s"}
    wall_s = summary["direct"]["wall_s"]
    assert wall_s["unit"] == "s" and wall_s["pairs"] == 3
    assert wall_s["base_median"] > 0 and wall_s["head_median"] > 0


def test_direct_run_refuses_a_package_from_outside_the_checkout(tmp_path):
    roots = {side: tmp_path / side for side in ab.SIDES}
    for side, root in roots.items():
        package = root / "src" / "viralsearch"
        package.mkdir(parents=True)
        # the head's package claims a file outside its checkout
        elsewhere = f"__file__ = {str(tmp_path / 'elsewhere.py')!r}\n"
        (package / "__init__.py").write_text(elsewhere if side == "head" else "")
    with pytest.raises(RuntimeError, match="the head side ran the package at .*elsewhere"):
        ab.run_same_process(roots, "pass", ["base", "head"])


def test_default_direct_call_is_criterion_5_over_seeds_0_to_2():
    calls = []
    vs = SimpleNamespace(
        make_benchmark=lambda name: SimpleNamespace(objective=name, bounds="box"),
        VSConfig=lambda **fields: fields,
        run=lambda objective, bounds, cfg: calls.append((objective, bounds, cfg)),
    )
    exec(ab.DIRECT_CALL, {"vs": vs})
    criterion_5 = dict(n_generations=2000, n_viral_generations=75, n_individuals=1000,
                       n_viral_individuals=300)
    assert calls == [("shekel", "box", dict(criterion_5, seed=seed)) for seed in range(3)]


@pytest.mark.parametrize("argv", [["--workload", "shekel", "--direct"], []])
def test_exactly_one_of_workload_and_direct(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["--base", "a", "--head", "b", *argv])
    assert exc.value.code == 2
    assert "exactly one of --workload and --direct" in capsys.readouterr().err
