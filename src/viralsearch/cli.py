"""Command-line front end: run / bench / trace / schema subcommands.

Exit codes: 0 success, 1 configuration error, 2 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .benchmarks import make_benchmark
from .core import ConfigurationError, ViralSearchError, make_rng
from .engine import VSConfig
from .harness import (
    _result_row,
    builtin_specs,
    display_value,
    parallel_run,
    run_experiment,
    trace_export,
    value_name,
    write_rows,
)
from .schema_lab import (
    GAParams,
    NoInstancesError,
    onemax_fitness,
    random_population,
    schema_growth_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", required=True, help="benchmark name")
    p.add_argument("--ni", type=int, required=True, help="number of scouts")
    p.add_argument("--ng", type=int, required=True, help="number of generations")
    p.add_argument("--niv", type=int, required=True, help="burst population size")
    p.add_argument("--ngv", type=int, required=True, help="burst generations")
    p.add_argument("--nc", type=int, default=0, help="centers per axis (0 = off)")
    p.add_argument("--rho", type=float, default=0.05, help="burst cube half-width fraction")
    p.add_argument("--step", type=float, default=0.1, help="walk step fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel", type=int, default=1, metavar="M",
                   help="split the box into M sub-boxes, each searched by its own "
                        "engine one after another (more diversity, not faster)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="viralsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single optimization run")
    _add_run_options(p_run)
    p_run.add_argument("--out", help="write a one-row report here: JSON when the "
                       "name ends in .json, else CSV")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a built-in sweep")
    p_bench.add_argument("--spec", required=True,
                         help=f"one of: {', '.join(sorted(builtin_specs()))}")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True,
                         help="report path: JSON when the name ends in .json, else CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser("trace", help="run and export the generation trace")
    _add_run_options(p_trace)
    p_trace.add_argument("--out", required=True, help="trace CSV path")
    p_trace.set_defaults(func=cmd_trace)

    p_schema = sub.add_parser("schema", help="schema growth experiment")
    p_schema.add_argument("--schema", required=True, metavar="PATTERN",
                          help="string over 0, 1, * (e.g. '1*0**')")
    p_schema.add_argument("--pc", type=float, required=True, help="crossover probability")
    p_schema.add_argument("--pm", type=float, required=True, help="per-bit mutation probability")
    p_schema.add_argument("--generations", type=int, required=True)
    p_schema.add_argument("--trials", type=int, required=True)
    p_schema.add_argument("--pop", type=int, default=100, help="population size")
    p_schema.add_argument("--seed", type=int, default=0)
    p_schema.set_defaults(func=cmd_schema)

    return parser


def _run_from_args(args):
    bench = make_benchmark(args.function)
    if args.ni < 20 * bench.arity:
        print(
            f"warning: ni={args.ni} is small for {bench.arity} parameters; "
            f"consider at least {20 * bench.arity} scouts",
            file=sys.stderr,
        )
    cfg = VSConfig(
        n_generations=args.ng,
        n_viral_generations=args.ngv,
        n_individuals=args.ni,
        n_viral_individuals=args.niv,
        centers_per_axis=args.nc,
        epidemic_radius_fraction=args.rho,
        walk_step_fraction=args.step,
        seed=args.seed,
    )
    result = parallel_run(bench.objective, bench.bounds, cfg, m=args.parallel)
    return bench, result


def _print_summary(bench, result) -> None:
    if result.best_point is None:
        print("no evaluations performed (ng=0)")
        return
    coords = ", ".join(f"{v:.6f}" for v in result.best_point)
    label = "maximized value" if value_name(bench) == "val" else "value"
    print(f"best point: ({coords})  {label}: {display_value(bench, result.best_value):.6f}")
    print(
        f"epidemics: {result.epidemic_count}  "
        f"wall time: {result.wall_time_ms / 1e3:.3f}s"
    )


def cmd_run(args) -> int:
    bench, result = _run_from_args(args)
    _print_summary(bench, result)
    if args.out:
        row = _result_row(bench, {}, result.best_point, result.best_value,
                          result.wall_time_ms, args.seed)
        write_rows([row], args.out, bench)
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    specs = builtin_specs()
    if args.spec not in specs:
        raise ConfigurationError(
            f"unknown spec {args.spec!r}; valid: {', '.join(sorted(specs))}"
        )
    spec = replace(
        specs[args.spec],
        repeat=args.repeat,
        seed_base=args.seed,
        out_path=args.out,
    )
    rows = run_experiment(spec)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_trace(args) -> int:
    bench, result = _run_from_args(args)
    _print_summary(bench, result)
    trace_export(result, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_schema(args) -> int:
    pattern = args.schema
    params = GAParams(p_c=args.pc, p_m=args.pm, seed=args.seed)
    rng = make_rng(args.seed)
    pop0 = random_population(args.pop, len(pattern), onemax_fitness, rng)
    try:
        report = schema_growth_experiment(
            pop0, pattern, params, generations=args.generations, trials=args.trials
        )
    except (ValueError, NoInstancesError) as exc:
        raise ConfigurationError(str(exc)) from exc
    print(f"schema {report.schema}  trials={report.trials}")
    for g in range(report.generations):
        bound = report.mean_bounds[g]
        observed = report.mean_observed_next[g]
        if np.isnan(bound):
            print(f"gen {g:3d}: schema extinct, bound undefined")
            continue
        mark = "ok" if report.generation_pass[g] else "MISS"
        print(f"gen {g:3d}: mean next count {observed:8.3f}  bound {bound:8.3f}  {mark}")
    print(
        f"generations meeting the bound: {report.frac_generations_pass:.1%}  "
        f"(cells: {report.frac_cells_pass:.1%})"
    )
    return 0


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ViralSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
