"""Reproduction of "Coz: Finding Code that Counts with Causal Profiling".

The package has four layers:

* :mod:`repro.sim` — a deterministic discrete-event execution simulator
  (virtual threads, cores, synchronization, per-thread IP sampling): the
  substrate standing in for Linux + perf_event + pthreads;
* :mod:`repro.core` — the causal profiler itself: performance experiments,
  sampled virtual speedups with counter-based delay coordination, progress
  points (throughput and latency), phase correction, profile analysis;
* :mod:`repro.plan` — pluggable experiment planners: the default static
  round-robin schedule, and an adaptive successive-halving planner with
  variance-aware early stopping;
* :mod:`repro.baselines` — gprof- and perf-style conventional profilers;
* :mod:`repro.apps` + :mod:`repro.harness` — the paper's evaluation:
  simulated Memcached, SQLite, and PARSEC workloads with their
  pre/post-optimization variants, and the machinery regenerating every
  table and figure.

Quickstart::

    from repro import CausalProfiler, CozConfig, ProgressPoint
    from repro.apps.example import build_example

    spec = build_example()
    profiler = CausalProfiler(CozConfig(scope=spec.scope), spec.progress_points)
    spec.build(seed=0).run(hook=profiler)
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.core": (
        "CausalProfile",
        "CausalProfiler",
        "CozConfig",
        "LatencySpec",
        "LineProfile",
        "ProfileData",
        "ProgressPoint",
        "build_causal_profile",
        "predict_program_speedup",
        "render_line_graph",
        "render_profile",
        "summarize",
        "to_coz_format",
        "top_line",
    ),
    "repro.harness.comparison": ("compare_app",),
    "repro.harness.request": ("ExecutionConfig", "ResilienceConfig"),
    "repro.harness.runner": (
        "ProfileOutcome",
        "ProfileRequest",
        "profile_app",
        "profile_program",
        "run_profile_session",
    ),
    "repro.plan": (
        "AdaptivePlanner",
        "ExperimentPlan",
        "PlanConfig",
        "Planner",
        "PlanReport",
        "StaticPlanner",
    ),
    "repro.sim": (
        "MS",
        "SEC",
        "US",
        "Engine",
        "Program",
        "RunResult",
        "Scope",
        "SimConfig",
        "SourceLine",
        "VThread",
        "line",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "AdaptivePlanner",
    "CausalProfile",
    "CausalProfiler",
    "CozConfig",
    "ExecutionConfig",
    "ExperimentPlan",
    "LatencySpec",
    "LineProfile",
    "PlanConfig",
    "PlanReport",
    "Planner",
    "ProfileData",
    "ProfileOutcome",
    "ProfileRequest",
    "ProgressPoint",
    "ResilienceConfig",
    "StaticPlanner",
    "compare_app",
    "profile_app",
    "profile_program",
    "run_profile_session",
    "build_causal_profile",
    "predict_program_speedup",
    "render_line_graph",
    "render_profile",
    "summarize",
    "to_coz_format",
    "top_line",
    "MS",
    "SEC",
    "US",
    "Engine",
    "Program",
    "RunResult",
    "Scope",
    "SimConfig",
    "SourceLine",
    "VThread",
    "line",
    "__version__",
]
