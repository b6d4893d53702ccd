"""One workload in a fresh process: set-up, warm-up, then timed rounds.

Started by run.py. Prints one JSON object on its last stdout line. With
--setup-only it stops after the warm-up and reports only the set-up time.

Every time it reports is scaled to the reference machine speed: it is
multiplied by calibrate.REFERENCE_S over the calibration kernel's time
measured around it. Unscaled figures are reported next to them as raw_*.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import locate  # noqa: E402

locate.pin_native_threads()

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_LAYERS = (
    "engine.scout_evals",
    "engine.rebalance_calls",
    "engine.bursts",
    "local_search.burst_evals",
    "schema_lab.ga_steps",
    "schema_lab.fitness_rows",
)
TIME_LAYERS = (
    "engine.scout_eval_s",
    "engine.move_random_s",
    "core.fold_s",
    "engine.rebalance_s",
    "engine.burst_s",
    "local_search.burst_eval_s",
    "harness.worker_run_s",
    "schema_lab.ga_step_s",
    "schema_lab.count_s",
)


def run_rounds(workload, recorder, seconds: float, traced: bool) -> list:
    """Whole rounds of the workload's operations until `seconds` would be
    exceeded (at least one round; with `traced`, at least one untraced and
    one traced round, alternating). Returns [(traced, [OpResult])]."""
    ops = workload.ops()
    probe = calibrate.SpeedProbe()
    rounds = []
    begin = time.perf_counter()
    while True:
        trace_this = traced and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        results = []
        # traced rounds sample only between operations, so that no kernel
        # time lands inside a layer's span
        recorder.probe = None if trace_this else probe
        with recorder.installed() if trace_this else nullcontext():
            for i, op in enumerate(ops):
                probe.poll()
                probe.open_window()
                result = run_op(workload, op)
                # sampling inside the operation is not the program's time
                if result.hit_s is not None:
                    result.hit_s -= probe.spent(until=result.started_at + result.hit_s)
                result.wall_s -= probe.spent()
                probe.poll(force=i == len(ops) - 1)
                result.scale = calibrate.REFERENCE_S / probe.speed()
                results.append(result)
        rounds.append((trace_this, results))
        last = time.perf_counter() - round_start
        done = time.perf_counter() - begin
        if (not traced or len(rounds) >= 2) and done + last > seconds:
            return rounds


def run_op(workload, op):
    start = time.perf_counter()
    try:
        return workload.run_op(op)
    except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
        traceback.print_exc()
        return workloads.OpResult(
            op=op, started_at=start, wall_s=time.perf_counter() - start, rows=0,
            fingerprint=("raised", repr(exc)), errors=[f"raised {exc!r}"], raised=True,
        )


def check_repeats(rounds) -> None:
    """Seeded operations must repeat bit for bit in every round."""
    first = rounds[0][1]
    for _, results in rounds[1:]:
        for ref, res in zip(first, results):
            if res.fingerprint != ref.fingerprint:
                res.errors.append(f"operation {res.op!r} did not repeat its first result")


def round_summary(results, has_target: bool) -> dict:
    wall = sum(r.wall_s * r.scale for r in results)
    summary = {
        "wall_s": wall,
        "raw_wall_s": sum(r.wall_s for r in results),
        "evals_per_s": sum(r.rows for r in results) / wall,
    }
    if has_target:
        summary.update(expected_running_time(results))
    return summary


def expected_running_time(results) -> dict:
    """COCO expected running time: the cost of all runs, each counted up to
    its hit or in full when it missed, over the number of hits. With no hit
    at all the total cost is reported, a lower bound."""
    hits = [r for r in results if r.hit_rows is not None]
    seconds = sum((r.hit_s if r.hit_rows is not None else r.wall_s) * r.scale
                  for r in results)
    rows = sum(r.hit_rows if r.hit_rows is not None else r.rows for r in results)
    n = max(len(hits), 1)
    return {"time_to_target_s": seconds / n, "evals_to_target": rows / n,
            "target_hits": len(hits), "target_runs": len(results)}


def layer_summary(results) -> dict:
    """Per-layer totals over one traced round; seconds scaled per op."""
    def seconds(name):
        return sum(t.seconds[name] * r.scale for r in results for t in r.tallies)

    def count(name):
        return sum(t.counts[name] for r in results for t in r.tallies)

    layers = {name: seconds(name) for name in TIME_LAYERS}
    layers.update({name: count(name) for name in COUNT_LAYERS})
    layers["local_search.de_self_s"] = (
        seconds("local_search.de_s") - seconds("local_search.burst_eval_s"))
    layers["schema_lab.bound_s"] = (
        seconds("schema_lab.bound_s") - seconds("schema_lab.count_in_bound_s"))
    bursts = count("engine.bursts")
    layers["engine.useful_burst_ratio"] = count("engine.useful_bursts") / bursts if bursts else 0.0
    parallel_wall = sum(r.wall_s * r.scale for r in results
                        if any(t.config is not None for t in r.tallies))
    layers["harness.thread_overlap"] = (
        layers["harness.worker_run_s"] / parallel_wall if parallel_wall else 0.0)
    layers["other_s"] = sum(r.other_s * r.scale for r in results)
    layers["trace.wall_s"] = sum(r.wall_s * r.scale for r in results)
    return layers


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shekel-max", type=float)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    vs = locate.import_program()
    recorder = tracing.Recorder()
    workload = workloads.build(
        args.workload, vs, recorder, args.seed, smoke=args.smoke,
        shekel_max=args.shekel_max, workers=args.workers,
    )
    warm = workloads.build(
        args.workload, vs, recorder, args.seed, smoke=True,
        shekel_max=args.shekel_max, workers=args.workers,
    )
    warm.run_op(warm.ops()[0])
    raw_setup_s = time.perf_counter() - _STARTED
    setup = {
        "setup_s": raw_setup_s * calibrate.REFERENCE_S / calibrate.sample(5),
        "raw_setup_s": raw_setup_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    rounds = run_rounds(workload, recorder, args.seconds, bool(args.trace))
    check_repeats(rounds)
    results = [r for _, rs in rounds for r in rs]
    for r in results:
        for error in r.errors:
            print(f"{args.workload} op {r.op!r}: {error}", file=sys.stderr)

    has_target = workload.target is not None
    plain = [round_summary(rs, has_target) for traced, rs in rounds if not traced]
    report = dict(
        setup,
        peak_rss_mb=peak_rss_mb(),
        attempted=len(results),
        failed=sum(1 for r in results if r.errors),
        check_failures=sum(1 for r in results if r.errors and not r.raised),
        rounds=len(plain),
    )
    for key in plain[0]:
        report[key] = median_of(plain, key)
    if args.trace:
        traced = [layer_summary(rs) for is_traced, rs in rounds if is_traced]
        layers = {key: median_of(traced, key) for key in traced[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - report["wall_s"]
        report["layers"] = layers
    print(json.dumps(report))
    return 0


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory. VmHWM starts anew
    at exec, unlike ru_maxrss, which keeps the parent's peak from the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
