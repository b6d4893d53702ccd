"""Benchmark entry point: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload shekel --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # the four, one after another

The workload runs in a fresh worker process (worker.py), so its peak
resident memory is its own. Set-up is measured in that process and in
SETUP_SAMPLES - 1 more that stop after the warm-up; the median is
reported. Times are scaled to a reference machine speed (calibrate.py);
the unscaled ones are printed next to them. The last stdout line is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import locate

locate.pin_native_threads()

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "evals/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "time_to_target_s": "s",
    "evals_to_target": "evals",
    "engine.scout_evals": "count",
    "engine.scout_eval_s": "s",
    "engine.move_random_s": "s",
    "core.fold_s": "s",
    "engine.rebalance_calls": "count",
    "engine.rebalance_s": "s",
    "engine.bursts": "count",
    "engine.burst_s": "s",
    "engine.useful_burst_ratio": "ratio",
    "local_search.burst_evals": "count",
    "local_search.burst_eval_s": "s",
    "local_search.de_self_s": "s",
    "harness.worker_run_s": "s",
    "harness.thread_overlap": "ratio",
    "schema_lab.ga_steps": "count",
    "schema_lab.ga_step_s": "s",
    "schema_lab.bound_s": "s",
    "schema_lab.count_s": "s",
    "schema_lab.fitness_rows": "count",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def run_worker(args: list, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=locate.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def bench(args, workload: str, shekel_max) -> int:
    """Measure one workload and print its metrics; the JSON line last."""
    worker_args = [
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workers", str(args.workers),
    ]
    if args.smoke:
        worker_args.append("--smoke")
    if workload in ("shekel", "shekel-grid"):
        worker_args += ["--shekel-max", repr(shekel_max)]
    try:
        setups = [run_worker(worker_args + ["--setup-only"], 60)
                  for _ in range(SETUP_SAMPLES - 1)]
        report = run_worker(worker_args, 150)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(report)
    for key in ("setup_s", "raw_setup_s"):
        report[key] = statistics.median(s[key] for s in setups)

    print(f"workload {workload}, seed {args.seed}: {report['attempted']} "
          f"operations in {report['rounds']} untraced rounds, "
          f"{report['failed']} failed, {report['check_failures']} failed a check")
    for name in END_TO_END:
        raw = report.get("raw_" + name)
        note = f"   (unscaled {raw:.6g})" if raw is not None else ""
        print(f"  {name:28s} {report[name]:.6g} {END_TO_END[name]}{note}")
    for name in ("time_to_target_s", "evals_to_target", "target_hits", "target_runs"):
        if name in report:
            print(f"  {name:28s} {report[name]:.6g}")
    if args.trace:
        layers = dict(report["layers"])
        layers["time_to_target_s"] = report.get("time_to_target_s", 0.0)
        layers["evals_to_target"] = report.get("evals_to_target", 0.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, metric in metrics.items():
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": report["check_failures"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the operations' seeds (see README)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--workers", type=int, default=2,
                        help="m for rosenbrock-split (1 gives the serial baseline)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        vs = locate.import_program()
    except locate.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shekel_max = None
    if {"shekel", "shekel-grid"} & set(names):
        import oracles

        _, shekel_max = oracles.shekel_reference(
            vs.benchmarks.SHEKEL_A, vs.benchmarks.SHEKEL_C
        )
    return max(bench(args, name, shekel_max) for name in names)


if __name__ == "__main__":
    sys.exit(main())
