"""The causal profiler: the paper's primary contribution.

Public surface:

* :class:`~repro.core.profiler.CausalProfiler` — the profiler hook; install
  it on a :class:`~repro.sim.program.Program` run;
* :class:`~repro.core.config.CozConfig` — all tunables (sampling, experiment
  pacing, speedup grid, overhead model);
* :class:`~repro.core.progress.ProgressPoint` / :class:`~repro.core.progress.
  LatencySpec` — throughput and latency progress points;
* :func:`~repro.core.profile_data.build_causal_profile` — turn raw
  experiments into ranked line graphs;
* :mod:`~repro.core.analysis` / :mod:`~repro.core.report` — interpretation
  and rendering.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.core.analysis": ("Opportunity", "predict_program_speedup", "summarize", "top_line"),
    "repro.core.config": ("DEFAULT_SPEEDUPS", "CozConfig"),
    "repro.core.experiment": ("ExperimentResult",),
    "repro.core.profile_data": (
        "CausalProfile",
        "LatencyPoint",
        "LineProfile",
        "ProfileData",
        "ProfilePoint",
        "RunFailure",
        "RunInfo",
        "build_causal_profile",
        "build_latency_profile",
        "build_line_profile",
    ),
    "repro.core.profiler": ("CausalProfiler",),
    "repro.core.progress": ("LatencySpec", "ProgressPoint"),
    "repro.core.report": ("render_line_graph", "render_profile", "to_coz_format", "to_csv"),
    "repro.core.speedup": ("DelayEngine",),
})

__all__ = [
    "Opportunity",
    "predict_program_speedup",
    "summarize",
    "top_line",
    "DEFAULT_SPEEDUPS",
    "CozConfig",
    "ExperimentResult",
    "CausalProfile",
    "LatencyPoint",
    "LineProfile",
    "ProfileData",
    "ProfilePoint",
    "RunFailure",
    "RunInfo",
    "build_causal_profile",
    "build_latency_profile",
    "build_line_profile",
    "CausalProfiler",
    "LatencySpec",
    "ProgressPoint",
    "render_line_graph",
    "render_profile",
    "to_coz_format",
    "to_csv",
    "DelayEngine",
]
