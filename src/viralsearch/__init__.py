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
    clamp_to_bounds,
    make_rng,
    random_init,
    reflect_into_bounds,
    stratified_init,
    uniform_sample,
)
from .engine import (
    EngineState,
    RunResult,
    TraceRow,
    VSConfig,
    burst_config,
    init_state,
    make_centers,
    move_random,
    nearest_center,
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
from .local_search import DEConfig, de_optimize
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
    matches,
    onemax_fitness,
    order,
    random_population,
    schema_fitness,
    schema_growth_experiment,
)

__version__ = "0.1.0"
