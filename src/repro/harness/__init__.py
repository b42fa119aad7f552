"""Evaluation harness: profiling runs, before/after comparisons, overhead
breakdowns, and prediction-accuracy studies — the machinery behind every
table and figure in the paper's evaluation (§4).

Multi-run sessions share the process-parallel executor in
:mod:`repro.harness.parallel`: pass ``jobs=N`` (or ``jobs=0`` for
cpu-count-aware auto sizing) to fan independent runs out over worker
processes with results bit-identical to serial execution."""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.harness.comparison": ("compare_app", "compare_builds", "measure_runtimes"),
    "repro.harness.journal": ("JournalError", "SessionJournal"),
    "repro.harness.overhead": ("OverheadBreakdown", "measure_overhead"),
    "repro.harness.parallel": (
        "AUTO_JOBS",
        "ParallelExecutionWarning",
        "RetryPolicy",
        "RunOutput",
        "RunTask",
        "Watchdog",
        "execute_tasks",
        "resolve_jobs",
    ),
    "repro.harness.request": ("ExecutionConfig", "ResilienceConfig"),
    "repro.harness.runner": (
        "ProfileOutcome",
        "ProfileRequest",
        "profile_app",
        "profile_program",
        "run_profile_session",
        "session_fingerprint",
    ),
})

__all__ = [
    "AUTO_JOBS",
    "ExecutionConfig",
    "JournalError",
    "OverheadBreakdown",
    "ParallelExecutionWarning",
    "ProfileOutcome",
    "ProfileRequest",
    "ResilienceConfig",
    "RetryPolicy",
    "RunOutput",
    "RunTask",
    "SessionJournal",
    "Watchdog",
    "compare_app",
    "compare_builds",
    "execute_tasks",
    "measure_overhead",
    "measure_runtimes",
    "profile_app",
    "profile_program",
    "resolve_jobs",
    "run_profile_session",
    "session_fingerprint",
]
