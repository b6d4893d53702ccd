"""Paired perfbench runs of two revisions of this repository.

    python tools/ab.py --base REV --head REV --workload shekel --pairs 10
    python tools/ab.py --base HEAD~1 --head HEAD --workload all --pairs 5 --seconds 20

Each revision is unpacked with `git archive` into a fresh temporary
directory as the siblings `base/` and `head/`, whose paths have equal
length. An archive holds committed files only, so neither side starts with
a `__pycache__`, and the runs set PYTHONDONTWRITEBYTECODE so none is
written. Pair k runs the base first when k is even and the head first when
k is odd. Each run is that side's own, unchanged
`perfbench/run.py --workload W --seed S --seconds T`, and its last stdout
line is read as perfbench's JSON report. For every end-to-end metric the
head's BENCHMARK.json names, the tool prints both sides' medians, the
base's interquartile range and the number of pairs the head won (ties
count for neither side). The last line printed is the summary as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("base", "head")


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


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return last_json(proc.stdout)


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(reports: list, end_to_end: list) -> dict:
    """Per metric, from `reports` (one {"base": report, "head": report}
    per pair): each side's median, the base's interquartile range, and the
    pairs the head won."""
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
    return summary


def _print_summary(workload: str, summary: dict, reports: list) -> None:
    failed = {side: sum(r[side]["failed"] for r in reports) for side in SIDES}
    attempted = {side: sum(r[side]["attempted"] for r in reports) for side in SIDES}
    incorrect = {side: sum(not r[side]["correct"] for r in reports) for side in SIDES}
    print(f"workload {workload}: {len(reports)} pairs; failed base {failed['base']}/"
          f"{attempted['base']}, head {failed['head']}/{attempted['head']}; runs not "
          f"correct base {incorrect['base']}, head {incorrect['head']}")
    for name, s in summary.items():
        change = (s["head_median"] / s["base_median"] - 1.0) * 100 if s["base_median"] else 0.0
        print(f"  {name:12s} base {s['base_median']:.6g} | head {s['head_median']:.6g} "
              f"{s['unit']} ({change:+.1f} %), base IQR {s['base_iqr']:.3g}, "
              f"head better in {s['head_wins']} of {s['pairs']} ({s['better']} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--head", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True,
                        help="a workload, or all that the head's BENCHMARK.json lists")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of runs")
    parser.add_argument("--seed", type=int, default=0, help="perfbench's --seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench's --seconds")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the git repository holding both revisions")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    results = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            checkout(args.repo, getattr(args, side), roots[side])
        benchmark = json.loads((roots["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = ([w["name"] for w in benchmark["workloads"]] if args.workload == "all"
                     else [args.workload])
        for workload in workloads:
            reports = []
            for k, sides in enumerate(order(args.pairs)):
                pair = {}
                for side in sides:
                    pair[side] = run_side(roots[side], workload, args.seed, args.seconds)
                    values = {n: m["value"] for n, m in pair[side]["metrics"].items()}
                    print(f"pair {k} {side}: {json.dumps(values)}", flush=True)
                reports.append(pair)
            results[workload] = summarize(reports, benchmark["end_to_end"])
            _print_summary(workload, results[workload], reports)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
