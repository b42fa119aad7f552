"""Before/after optimization comparison (Table 3 methodology).

The paper runs each benchmark ten times before and after the optimization,
defines speedup as ``(t0 - t_opt) / t0``, computes the standard error with
Efron's bootstrap, and checks significance with the one-tailed Mann-Whitney
U test at alpha = 0.001.  :func:`compare_builds` does exactly that on two
app specs (no profiler installed: these are plain runs), reusing the
process-parallel executor when ``jobs != 1``; :func:`compare_app` is the
registry-addressed form.  Registry-built specs run in pool workers, which
rebuild them from their refs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

from repro.apps.spec import AppSpec
from repro.core.config import CozConfig
from repro.harness.journal import SessionJournal, canonical, program_identity
from repro.harness.parallel import (
    ParallelExecutionWarning,
    RunTask,
    execute_tasks,
)
from repro.sim.faults import FaultPlan
from repro.stats.bootstrap import SpeedupStats, speedup_stats


def measure_runtimes(
    spec: AppSpec,
    runs: int = 10,
    base_seed: int = 0,
    jobs: int = 1,
    coz_config: Optional[CozConfig] = None,
    audit_report=None,
    faults: Optional[FaultPlan] = None,
    journal: Optional[SessionJournal] = None,
    segment: str = "runtimes",
) -> List[int]:
    """Virtual runtimes of ``runs`` fresh executions of ``spec``'s program.

    ``coz_config=None`` times plain runs; a config times each run under
    the profiler.  ``audit_report`` (an
    :class:`~repro.core.audit.AuditReport`) turns on the executor's
    parallel-serial-identity spot check and collects the per-run audits
    of an auditing config.  ``journal`` (an open
    :class:`~repro.harness.journal.SessionJournal`) checkpoints each run
    under ``segment`` and replays runs the journal already holds.  Runs
    that fail deterministically are dropped from the returned list with a
    warning — the measurement degrades instead of dying.
    """
    tasks = [
        RunTask(index=i, seed=base_seed + i, spec=spec, coz_config=coz_config, faults=faults)
        for i in range(runs)
    ]
    outputs = {}
    if journal is not None:
        for idx, out in journal.completed(segment).items():
            if idx < runs:
                outputs[idx] = out
    remaining = [t for t in tasks if t.index not in outputs]
    for out in execute_tasks(
        remaining, jobs=jobs,
        audit_report=audit_report if jobs != 1 else None,
        on_output=journal.hook(segment) if journal is not None else None,
    ):
        outputs[out.index] = out

    # an output can be absent outright — a journal recorded for fewer runs
    # resumed against a larger ``runs``, or an executor task lost after retry
    # exhaustion — so index with .get and count the hole as a failed run
    # rather than dying on KeyError
    runtimes = []
    failed = []
    absent = []
    for i in range(runs):
        out = outputs.get(i)
        if out is None:
            absent.append(i)
        elif out.failed:
            failed.append(out.run_failure())
        else:
            runtimes.append(out.run["runtime_ns"])
            if audit_report is not None and out.audit_json is not None:
                audit_report.merge(out.audit_report())
    if failed or absent:
        if failed:
            first = (
                f"run {failed[0].index}, "
                f"{failed[0].error_type}: {failed[0].message}"
            )
        else:
            first = f"run {absent[0]} produced no output"
        warnings.warn(
            f"{len(failed) + len(absent)} of {runs} runs failed and were "
            f"dropped from the runtime measurement (first: {first})",
            ParallelExecutionWarning,
            stacklevel=2,
        )
    return runtimes


@dataclass
class Comparison:
    """A Table 3 row: baseline vs optimized runtimes and their statistics."""

    name: str
    baseline_ns: List[int]
    optimized_ns: List[int]
    stats: SpeedupStats

    @property
    def speedup_pct(self) -> float:
        return self.stats.speedup_pct

    def row(self) -> str:
        sig = "yes" if self.stats.significant() else "NO"
        return (
            f"{self.name:<14} {self.stats.speedup_pct:>7.2f}% "
            f"± {self.stats.se_pct:.2f}%   p={self.stats.p_value:<9.2g} "
            f"significant(a=0.001)={sig}"
        )


def compare_builds(
    name: str,
    baseline: AppSpec,
    optimized: AppSpec,
    runs: int = 10,
    base_seed: int = 0,
    jobs: int = 1,
    audit_report=None,
    faults: Optional[FaultPlan] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
) -> Comparison:
    """Run both programs ``runs`` times and compute Table 3 statistics.

    With ``journal=`` the baseline and optimized measurements checkpoint
    into one journal file as segments ``baseline`` / ``optimized``;
    ``resume=`` replays a previous journal's completed runs first.
    """
    jr: Optional[SessionJournal] = None
    if journal is not None or resume is not None:
        fingerprint = {
            "kind": "compare-session",
            "name": name,
            "runs": runs,
            "base_seed": base_seed,
            "baseline": program_identity(baseline),
            "optimized": program_identity(optimized),
            "faults": canonical(faults),
        }
        if resume is not None:
            jr = SessionJournal.resume(resume, fingerprint)
        else:
            jr = SessionJournal.create(journal, fingerprint)
    try:
        baseline_ns = measure_runtimes(
            baseline, runs=runs, base_seed=base_seed, jobs=jobs,
            audit_report=audit_report, faults=faults,
            journal=jr, segment="baseline",
        )
        optimized_ns = measure_runtimes(
            optimized, runs=runs, base_seed=base_seed + runs, jobs=jobs,
            audit_report=audit_report, faults=faults,
            journal=jr, segment="optimized",
        )
    finally:
        if jr is not None:
            jr.close()
    if not baseline_ns or not optimized_ns:
        empty = "baseline" if not baseline_ns else "optimized"
        raise ValueError(
            f"compare '{name}': every {empty} run failed; no runtimes to "
            f"compare (the journal, if any, records each failure)"
        )
    stats = speedup_stats(baseline_ns, optimized_ns, seed=base_seed)
    return Comparison(
        name=name,
        baseline_ns=baseline_ns,
        optimized_ns=optimized_ns,
        stats=stats,
    )


def compare_app(
    name: str,
    runs: int = 10,
    base_seed: int = 0,
    jobs: int = 1,
    audit_report=None,
    faults: Optional[FaultPlan] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    **build_kwargs,
) -> Comparison:
    """Registry-addressed :func:`compare_builds`: baseline vs optimized
    variant of a bundled app, parallelizable via worker-side rebuild."""
    from repro.apps import registry

    return compare_builds(
        name,
        registry.build(name, **build_kwargs),
        registry.build(name, optimized=True, **build_kwargs),
        runs=runs,
        base_seed=base_seed,
        jobs=jobs,
        audit_report=audit_report,
        faults=faults,
        journal=journal,
        resume=resume,
    )
