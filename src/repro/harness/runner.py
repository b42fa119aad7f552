"""Profiling runner: execute an experiment plan, merge profiles.

Coz accumulates profile data across program executions; dense causal
profiles come from many short runs.  :class:`ProfileRequest` describes one
such multi-run session (how many runs, seeding, profiler configuration,
parallelism, fault injection, journaling, planning) and
:func:`run_profile_session` executes it as a **propose → execute →
observe loop**: the request's :class:`~repro.plan.base.Planner` proposes
batches of :class:`~repro.plan.base.ExperimentPlan`\\ s, the runner
executes each batch (fanning out over the process-parallel executor when
``jobs != 1``), and the merged :class:`~repro.core.experiment.
ExperimentResult`\\ s feed back to the planner before it proposes the next
batch.  The default :class:`~repro.plan.StaticPlanner` proposes every run
free in a single batch, which is byte-identical to the historical
schedule; the adaptive planner interleaves analysis between batches.

Per-run seeds are ``base_seed + index`` on both paths and results merge in
schedule order, so a parallel session produces a merged
:class:`ProfileData` bit-identical to the serial one.

Resilience: a run that fails deterministically (deadlock, injected fault)
becomes a :class:`~repro.core.profile_data.RunFailure` record and the
session completes *degraded* rather than dying.  With ``journal=`` set,
every completed run is fsync'd to a crash-safe JSONL journal
(:mod:`repro.harness.journal`); ``resume=`` replays a previous journal's
completed runs and executes only the remaining schedule.  Planner
decisions are a pure function of observed data, so a resumed session —
adaptive included — re-derives the identical plan sequence from the
replayed runs; the planner configuration is fingerprinted so a journal
cannot be resumed under a different planner.

:func:`profile_app` and :func:`profile_program` remain as thin
keyword-style wrappers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.apps.spec import AppSpec
from repro.core.config import CozConfig
from repro.core.profile_data import CausalProfile, ProfileData, build_causal_profile
from repro.harness.journal import DEFAULT_SEGMENT, SessionJournal, canonical, run_identity
from repro.harness.parallel import RunOutput, RunTask, execute_tasks
from repro.harness.request import (
    ExecutionConfig,
    ProfileRequest,
    ResilienceConfig,
)
from repro.plan import PlanConfig, make_planner
from repro.plan.base import ExperimentPlan, PlannerState, PlanReport
from repro.sim.faults import FaultPlan
from repro.sim.program import RunResult

__all__ = [
    "ExecutionConfig",
    "ProfileOutcome",
    "ProfileRequest",
    "ResilienceConfig",
    "profile_app",
    "profile_program",
    "run_profile_session",
    "session_fingerprint",
]


@dataclass
class ProfileOutcome:
    """Merged result of a multi-run profiling session."""

    data: ProfileData
    profile: CausalProfile
    #: one engine-free summary per merged run, in run order
    run_results: List[RunResult] = field(default_factory=list)
    #: merged invariant-audit report (``None`` unless ``CozConfig.audit``)
    audit: Optional[object] = None
    #: how the planner spent the session (always present; the static
    #: planner reports one round of uniform spend)
    plan: Optional[PlanReport] = None
    #: the session's :attr:`~repro.harness.request.ExecutionConfig.
    #: deadline_s` passed before every scheduled run completed; the
    #: outcome holds only the completed prefix (a journaled session is
    #: resumable from exactly this point)
    deadline_exceeded: bool = False

    @property
    def experiment_count(self) -> int:
        return len(self.data.experiments)

    @property
    def degraded(self) -> bool:
        """True when at least one scheduled run produced no data."""
        return self.data.degraded


def session_fingerprint(
    spec: AppSpec, request: "ProfileRequest", coz_config: CozConfig
) -> dict:
    """Everything that determines a session's results, canonicalized.

    Execution-only knobs (``jobs``, checkpoint fast-forward,
    the observational ``audit`` flag) are excluded: a session
    may be resumed with a different worker count and still merge
    bit-identically.  The per-run seed overrides the config's ``seed``
    field, so that is normalized out too.  The plan configuration *is*
    included — replaying a journal under a different planner would feed a
    different decision process.
    """
    return {
        "kind": "profile-session",
        **run_identity(spec, coz_config, request.resilience.faults),
        "runs": request.runs,
        "base_seed": request.base_seed,
        "min_speedup_amounts": request.min_speedup_amounts,
        "plan": canonical(request.plan),
    }


def run_profile_session(
    spec: AppSpec,
    request: Optional[ProfileRequest] = None,
) -> ProfileOutcome:
    """Profile an app spec per ``request``: the propose → execute →
    observe loop.

    With ``request.execution.jobs != 1`` each batch executes in worker
    processes; specs built by :func:`repro.apps.registry.build` are rebuilt
    worker-side from their :class:`~repro.apps.registry.AppRef`; an
    unregistered spec ships by value, and runs serially with a warning
    when its ``build`` does not pickle.  Deterministically failed runs are
    recorded in ``outcome.data.failures`` and the session completes
    degraded.
    """
    request = request or ProfileRequest()
    execution, resilience = request.execution, request.resilience
    coz_config = request.coz_config or CozConfig()
    if coz_config.scope.files is None and spec.scope.files is not None:
        coz_config = replace(coz_config, scope=spec.scope)
    audit_report = None
    if coz_config.audit:
        from repro.core.audit import AuditReport

        audit_report = AuditReport()

    # Checkpoint fast-forward: only registry-referenced apps have a stable
    # identity to key the store by, and audited sessions always run cold
    # (the auditor keeps shadow books the snapshot cannot carry).  The
    # store is only an address (fingerprint, cache directory), so every
    # run task carries this one object.
    store = None
    if (
        execution.checkpoint
        and spec.registry_ref is not None
        and audit_report is None
    ):
        from repro.harness.checkpoint import CheckpointStore, checkpoint_fingerprint

        key = checkpoint_fingerprint(spec, coz_config, resilience.faults)
        store = CheckpointStore(key, directory=execution.checkpoint_dir)

    def make_task(plan: ExperimentPlan) -> RunTask:
        # Directed runs carry a one-off config (fixed line + probe
        # schedule) whose checkpoint fingerprint no later run would ever
        # hit, so they always simulate cold; free runs share the session
        # store, and whichever process executes the run looks it up.
        return RunTask(
            index=plan.index,
            seed=request.base_seed + plan.index,
            spec=spec,
            coz_config=plan.apply(coz_config),
            faults=resilience.faults,
            checkpoint=None if plan.is_directed else store,
        )

    journal: Optional[SessionJournal] = None
    replayed: Dict[int, RunOutput] = {}
    if resilience.resume is not None:
        fingerprint = session_fingerprint(spec, request, coz_config)
        journal = SessionJournal.resume(resilience.resume, fingerprint)
        replayed = journal.completed(DEFAULT_SEGMENT)
    elif resilience.journal is not None:
        fingerprint = session_fingerprint(spec, request, coz_config)
        journal = SessionJournal.create(resilience.journal, fingerprint)

    planner = make_planner(request.plan, default_runs=request.runs)
    on_output = journal.hook(DEFAULT_SEGMENT) if journal is not None else None
    data = ProfileData()
    run_results: List[RunResult] = []
    outputs: Dict[int, RunOutput] = {}
    merged = 0
    #: non-replayed runs the session may still execute (None = unlimited)
    fresh_budget = resilience.stop_after_runs
    stopped = False
    deadline_exceeded = False
    deadline_monotonic = None
    if execution.deadline_s is not None:
        deadline_monotonic = time.monotonic() + execution.deadline_s

    def _deadline_passed() -> bool:
        return (
            deadline_monotonic is not None
            and time.monotonic() >= deadline_monotonic
        )

    try:
        while not stopped and not planner.done():
            state = PlannerState(
                data=data,
                primary_progress=spec.primary_progress,
                coz_config=coz_config,
                min_speedup_amounts=request.min_speedup_amounts,
                runs_completed=merged,
            )
            plans = planner.propose(state)
            if not plans:
                break
            batch = [make_task(p) for p in plans]
            fresh = [t for t in batch if t.index not in replayed]
            if fresh_budget is not None:
                fresh = fresh[:fresh_budget]
                fresh_budget -= len(fresh)
            executed = execute_tasks(
                fresh,
                jobs=execution.jobs,
                audit_report=audit_report if execution.jobs != 1 else None,
                on_output=on_output,
                deadline_monotonic=deadline_monotonic,
                batch_runs=execution.batch_runs,
            )
            for out in executed:
                outputs[out.index] = out

            batch_results = []
            for plan in plans:
                out = outputs.get(plan.index) or replayed.get(plan.index)
                if out is None:
                    # stop_after_runs exhausted mid-batch, or the deadline
                    # cut the batch short: return the partial session (the
                    # journal has what completed)
                    stopped = True
                    if _deadline_passed():
                        deadline_exceeded = True
                    continue
                merged += 1
                if out.failed:
                    data.add_failure(out.run_failure())
                    continue
                run_data = out.profile_data()
                batch_results.extend(run_data.experiments)
                data.merge(run_data)
                run_results.append(out.run_result())
                if audit_report is not None:
                    per_run = out.audit_report()
                    if per_run is not None:
                        audit_report.merge(per_run)
            planner.observe(batch_results)
            if fresh_budget is not None and fresh_budget <= 0:
                stopped = True
    finally:
        if journal is not None:
            journal.close()

    if audit_report is not None:
        from repro.core.audit import audit_profile_data, run_accounting_check

        audit_report.merge(audit_profile_data(data))
        audit_report.add(run_accounting_check(merged, data))
    profile = build_causal_profile(
        data,
        spec.primary_progress,
        min_speedup_amounts=request.min_speedup_amounts,
        phase_correction=coz_config.phase_correction,
    )
    return ProfileOutcome(
        data=data,
        profile=profile,
        run_results=run_results,
        audit=audit_report,
        plan=planner.report(),
        deadline_exceeded=deadline_exceeded,
    )


def profile_program(
    program_factory,
    progress_points,
    primary_progress: str,
    runs: int = 5,
    coz_config: Optional[CozConfig] = None,
    latency_specs=(),
    min_speedup_amounts: int = 2,
    base_seed: int = 0,
    jobs: int = 1,
    faults: Optional[FaultPlan] = None,
    plan: Optional[PlanConfig] = None,
) -> ProfileOutcome:
    """Profile ``runs`` fresh programs from ``program_factory(seed)``.

    ``jobs`` fans runs out to worker processes when the factory is
    picklable (module-level functions are; closures degrade to serial).
    """
    spec = AppSpec(
        name="<program>",
        build=program_factory,
        progress_points=list(progress_points),
        primary_progress=primary_progress,
        scope=(coz_config or CozConfig()).scope,
        latency_specs=list(latency_specs),
    )
    request = ProfileRequest(
        runs=runs,
        base_seed=base_seed,
        coz_config=coz_config,
        min_speedup_amounts=min_speedup_amounts,
        execution=ExecutionConfig(jobs=jobs),
        resilience=ResilienceConfig(faults=faults),
        plan=plan,
    )
    return run_profile_session(spec, request)


def profile_app(
    spec: AppSpec,
    runs: int = 5,
    coz_config: Optional[CozConfig] = None,
    min_speedup_amounts: int = 2,
    base_seed: int = 0,
    jobs: int = 1,
    faults: Optional[FaultPlan] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    plan: Optional[PlanConfig] = None,
) -> ProfileOutcome:
    """Profile an app spec with its own scope and progress points."""
    request = ProfileRequest(
        runs=runs,
        base_seed=base_seed,
        coz_config=coz_config,
        min_speedup_amounts=min_speedup_amounts,
        execution=ExecutionConfig(jobs=jobs),
        resilience=ResilienceConfig(faults=faults, journal=journal, resume=resume),
        plan=plan,
    )
    return run_profile_session(spec, request)
