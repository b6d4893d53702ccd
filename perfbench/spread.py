"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload shekel --seeds 1-10 [--trace 1]

Each run's result line is appended to perfbench/results/<workload>.jsonl
(traced runs: <workload>.trace.jsonl). For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the quartile
distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--workers", default="2")
    args = parser.parse_args(argv)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = ".trace.jsonl" if args.trace == "1" else ".jsonl"
    out_path = out_dir / f"{args.workload}{'' if args.workers == '2' else '.m' + args.workers}{suffix}"
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
             "--workers", args.workers],
            stdout=subprocess.PIPE, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)

    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:28s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.2%}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
