"""Paired perfbench runs, or paired timings of one library call, of two
revisions of this repository.

    python tools/ab.py --base REV --head REV --workload shekel --pairs 10
    python tools/ab.py --base HEAD~1 --head HEAD --workload all --pairs 5 --seconds 20
    python tools/ab.py --base REV --head REV --direct --pairs 10
    python tools/ab.py --base REV --head REV --direct --call "vs.run(...)"

Each revision is unpacked with `git archive` into a fresh temporary
directory as the siblings `base/` and `head/`, whose paths have equal
length. An archive holds committed files only, so neither side starts with
a `__pycache__`, and the runs set PYTHONDONTWRITEBYTECODE so none is
written. Pair k runs the base first when k is even and the head first when
k is odd. Each run is that side's own, unchanged
`perfbench/run.py --workload W --seed S --seconds T`, and its last stdout
line is read as perfbench's JSON report, whose times are scaled to a
reference machine speed. The unscaled figure perfbench prints beside a
metric, `(unscaled X)`, is read from its text lines. For every end-to-end
metric the head's BENCHMARK.json names, the tool prints both sides'
medians, and both sides' unscaled medians where every run printed one,
the base's interquartile range and the number of pairs the head won (ties
count for neither side). The last line printed is the summary as JSON.

With `--direct`, no perfbench runs: every run of both sides happens in
one fresh Python process, which loads each side's `src/viralsearch` under
its own module name (`viralsearch_base`, `viralsearch_head`), binds `vs`
to that side's package, and times one execution of the `--call`
statement per run with `time.perf_counter`, which excludes the
interpreter's start-up and the imports; the runs alternate as above. The
default call is acceptance criterion 5's `run` (Shekel, 1000 scouts, 2000 generations,
bursts of 300 for 75 generations) over seeds 0-2. Its one metric,
`wall_s`, is summarized as above under the name `direct`. perfbench's
scaled readings have moved 5-10 % between commits with code the workload
never runs; a direct timing has neither its calibration kernel nor its
harness, so it is the second reading for a change to the engine. Both
sides share the interpreter, the allocator and the host's load of the
moment: timed in a fresh process each, the same arithmetic on two
commits read +9.9 %, -5.2 % and -8.8 % in three batches of 10 pairs,
against -0.1 % in one process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("base", "head")

DIRECT_CALL = (
    "b = vs.make_benchmark('shekel')\n"
    "for seed in range(3):\n"
    "    vs.run(b.objective, b.bounds, vs.VSConfig(n_generations=2000, n_viral_generations=75,"
    " n_individuals=1000, n_viral_individuals=300, seed=seed))"
)
DIRECT_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"}]

# run as `python -c SAME_PROCESS_CHILD SPEC`, SPEC a JSON object with the
# call, each side's package directory and the sides in the order they run;
# prints one REPORT_TAG line per run
REPORT_TAG = "ab-report "
SAME_PROCESS_CHILD = """
import importlib.util, json, sys, time
spec = json.loads(sys.argv[1])
packages = {}
for side, path in spec["packages"].items():
    name = "viralsearch_" + side
    found = importlib.util.spec_from_file_location(
        name, path + "/__init__.py", submodule_search_locations=[path])
    packages[side] = sys.modules[name] = importlib.util.module_from_spec(found)
    found.loader.exec_module(packages[side])
call = compile(spec["call"], "<call>", "exec")
for side in spec["sequence"]:
    scope = {"vs": packages[side]}
    started = time.perf_counter()
    exec(call, scope)
    wall_s = time.perf_counter() - started
    print(%r + json.dumps({"side": side, "package": packages[side].__file__,
                           "metrics": {"wall_s": {"value": wall_s}}}), flush=True)
""" % REPORT_TAG


def checkout(repo: Path, rev: str, dest: Path) -> None:
    """Unpack the files committed at `rev` into the new directory `dest`."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def order(pairs: int) -> list:
    """The sides in the order they run, pair by pair, alternating which
    side goes first."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(pairs)]


def last_json(stdout: str) -> dict:
    """perfbench's report: the last non-empty line of its output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


# perfbench's text line for a metric: "  wall_s   4.5 s   (unscaled 1.92638)"
_UNSCALED = re.compile(r"^\s+(\w+)\s.*\(unscaled ([^)\s]+)\)\s*$")


def unscaled(stdout: str) -> dict:
    """The unscaled figure perfbench printed beside each metric, by name."""
    return {m[1]: float(m[2]) for m in map(_UNSCALED.match, stdout.splitlines()) if m}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's report, with its unscaled figures under "unscaled"."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return dict(last_json(proc.stdout), unscaled=unscaled(proc.stdout))


def run_same_process(roots: dict, call: str, sequence: list) -> list:
    """One timing of `call` per side named in `sequence`, all in one fresh
    process that loads each side's package from its `src/` under its own
    module name and writes no bytecode."""
    packages = {side: str(root / "src" / "viralsearch") for side, root in roots.items()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SAME_PROCESS_CHILD,
         json.dumps({"call": call, "packages": packages, "sequence": sequence})],
        cwd=roots[SIDES[0]].parent, env=env, stdout=subprocess.PIPE, text=True, check=True)
    reports = [json.loads(line[len(REPORT_TAG):]) for line in proc.stdout.splitlines()
               if line.startswith(REPORT_TAG)]
    if [r["side"] for r in reports] != sequence:
        raise RuntimeError(f"the process reported {len(reports)} runs, not {len(sequence)}")
    for report in reports:
        package = Path(report["package"]).resolve()
        if not package.is_relative_to(Path(packages[report["side"]]).resolve()):
            raise RuntimeError(f"the {report['side']} side ran the package at {package}")
    return reports


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(reports: list, end_to_end: list) -> dict:
    """Per metric, from `reports` (one {"base": report, "head": report}
    per pair): each side's median, the base's interquartile range, and the
    pairs the head won; and each side's unscaled median when every report
    holds an unscaled figure for the metric."""
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in reports] for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base_median": statistics.median(values["base"]),
            "head_median": statistics.median(values["head"]),
            "base_iqr": _iqr(values["base"]),
            "head_wins": sum(sign * (h - b) < 0 for b, h in zip(values["base"], values["head"])),
            "pairs": len(reports),
        }
        raw = {side: [r[side].get("unscaled", {}).get(name) for r in reports] for side in SIDES}
        if None not in raw["base"] + raw["head"]:
            for side in SIDES:
                summary[name][f"{side}_unscaled_median"] = statistics.median(raw[side])
    return summary


def _print_summary(label: str, summary: dict, reports: list) -> None:
    header = f"{label}: {len(reports)} pairs"
    if "failed" in reports[0]["base"]:  # perfbench's operation counts
        failed = {side: sum(r[side]["failed"] for r in reports) for side in SIDES}
        attempted = {side: sum(r[side]["attempted"] for r in reports) for side in SIDES}
        incorrect = {side: sum(not r[side]["correct"] for r in reports) for side in SIDES}
        header += (f"; failed base {failed['base']}/{attempted['base']}, head "
                   f"{failed['head']}/{attempted['head']}; runs not correct base "
                   f"{incorrect['base']}, head {incorrect['head']}")
    print(header)
    for name, s in summary.items():
        change = (s["head_median"] / s["base_median"] - 1.0) * 100 if s["base_median"] else 0.0
        raw = ""
        if "base_unscaled_median" in s:
            raw = (f", unscaled base {s['base_unscaled_median']:.6g} | head "
                   f"{s['head_unscaled_median']:.6g}")
        print(f"  {name:12s} base {s['base_median']:.6g} | head {s['head_median']:.6g} "
              f"{s['unit']} ({change:+.1f} %){raw}, base IQR {s['base_iqr']:.3g}, "
              f"head better in {s['head_wins']} of {s['pairs']} ({s['better']} is better)")


def paired(pairs: int, run) -> list:
    """`pairs` pairs of reports, `run(side)` making each, in `order`."""
    reports = []
    for k, sides in enumerate(order(pairs)):
        pair = {}
        for side in sides:
            pair[side] = run(side)
            values = {n: m["value"] for n, m in pair[side]["metrics"].items()}
            print(f"pair {k} {side}: {json.dumps(values)}", flush=True)
        reports.append(pair)
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--head", required=True, help="the revision under test")
    parser.add_argument("--workload",
                        help="a workload, or all that the head's BENCHMARK.json lists")
    parser.add_argument("--direct", action="store_true",
                        help="time --call for both sides in one fresh process instead of "
                             "perfbench")
    parser.add_argument("--call", default=DIRECT_CALL,
                        help="with --direct, the Python statement timed, with the package "
                             "bound to vs (default: criterion 5's run over seeds 0-2)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs")
    parser.add_argument("--seed", type=int, default=0, help="perfbench's --seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench's --seconds")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the git repository holding both revisions")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.direct == (args.workload is not None):
        parser.error("give exactly one of --workload and --direct")

    results = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            checkout(args.repo, getattr(args, side), roots[side])
        if args.direct:
            runs = iter(run_same_process(roots, args.call,
                                         [side for sides in order(args.pairs) for side in sides]))
            reports = paired(args.pairs, lambda side: next(runs))
            results["direct"] = summarize(reports, DIRECT_METRICS)
            _print_summary("direct", results["direct"], reports)
        else:
            benchmark = json.loads((roots["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
            workloads = ([w["name"] for w in benchmark["workloads"]] if args.workload == "all"
                         else [args.workload])
            for workload in workloads:
                reports = paired(args.pairs, lambda side: run_side(
                    roots[side], workload, args.seed, args.seconds))
                results[workload] = summarize(reports, benchmark["end_to_end"])
                _print_summary(f"workload {workload}", results[workload], reports)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
