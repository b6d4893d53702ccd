"""Viral search: global optimization by random-walking scouts that fire
localized differential-evolution bursts wherever they find improvement."""

from .benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkSpec,
    Optimum,
    make_benchmark,
    rosenbrock,
    schaffer,
    shekel,
    sphere,
    two_well,
)
from .core import (
    Bounds,
    ConfigurationError,
    EvaluationError,
    Objective,
    ViralSearchError,
    child_seed,
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
)
from .engine import (
    EngineState,
    RunResult,
    TraceRow,
    VSConfig,
    init_state,
    move_random,
    rebalance,
    run,
    step,
    trigger_epidemic,
)
from .harness import (
    ExperimentSpec,
    ReportRow,
    builtin_specs,
    parallel_run,
    run_experiment,
    split_bounds,
    trace_export,
)
from .local_search import de_optimize
from .schema_lab import (
    BinaryPopulation,
    CompiledSchema,
    GAParams,
    GrowthReport,
    NoInstancesError,
    classic_ga_step,
    compile_schema,
    count_matches,
    defining_length,
    expected_count_bound,
    onemax_fitness,
    random_population,
    schema_fitness,
    schema_growth_experiment,
)

__version__ = "0.1.0"
