"""The profiling-session request surface: one value grouped by concern.

:class:`ProfileRequest` holds the session-level knobs (run count, seeds,
profiler config) plus three sub-configs grouped by concern:

* :class:`ExecutionConfig` — *how* runs execute (workers, timeouts,
  checkpoint fast-forward).  Execution-only: never part of the session
  fingerprint, because results are bit-identical across these settings.
* :class:`ResilienceConfig` — fault injection and crash recovery (chaos
  plan, journal/resume paths, the stop-early testing hook).  The fault
  plan *is* fingerprinted (it changes results); the journal paths are not.
* :class:`~repro.plan.base.PlanConfig` — which experiment planner drives
  the session and with what budget.  Fingerprinted: replaying a journal
  under a different planner would feed a different decision process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import CozConfig
from repro.plan.base import PlanConfig
from repro.sim.faults import FaultPlan


@dataclass(frozen=True)
class ExecutionConfig:
    """How a session's runs execute (never affects *what* they compute)."""

    #: worker processes: 1 = serial, 0/None = auto (cpu-count-aware)
    jobs: int = 1
    #: per-run timeout in seconds when running in worker processes
    #: (``None`` = the executor's watchdog deadline)
    timeout: Optional[float] = None
    #: runs shipped per worker dispatch (:class:`~repro.harness.parallel.
    #: RunBatch`); ``None`` = auto-sized from the run count and ``jobs``,
    #: ``1`` = classic one-future-per-run dispatch.  Execution-only: the
    #: merged profile is bit-identical for every batch size.
    batch_runs: Optional[int] = None
    #: checkpoint fast-forward (:mod:`repro.harness.checkpoint`): resume
    #: runs from stored prefix snapshots when bit-identical ones exist and
    #: record snapshots when they don't.  Ignored for unregistered specs,
    #: audited sessions, and planner-directed runs (their one-off configs
    #: key a snapshot no later run could reuse).
    checkpoint: bool = True
    #: optional on-disk checkpoint cache shared across processes/sessions;
    #: ``None`` = in-memory only
    checkpoint_dir: Optional[str] = None
    #: soft wall-clock budget for the whole session, in seconds: once it
    #: passes, no new run starts, parallel waits are clamped to the
    #: remainder, and the session returns the completed prefix with
    #: :attr:`~repro.harness.runner.ProfileOutcome.deadline_exceeded` set.
    #: Execution-only — a journaled session cut off at its deadline resumes
    #: bit-identically.  The profiling service uses this to propagate each
    #: job's deadline into the executor watchdog.
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault injection and crash recovery."""

    #: fault-injection plan (:class:`~repro.sim.faults.FaultPlan`); part of
    #: the session fingerprint, so a resumed chaos session re-injects the
    #: same faults
    faults: Optional[FaultPlan] = None
    #: path to write a crash-safe session journal to (fsync'd per run)
    journal: Optional[str] = None
    #: path of a journal to resume from; replays its completed runs and
    #: continues appending to the same file
    resume: Optional[str] = None
    #: testing hook: execute at most this many (non-replayed) runs, then
    #: return the partial session — simulates dying mid-session without a
    #: SIGKILL, for checkpoint/resume tests
    stop_after_runs: Optional[int] = None


@dataclass
class ProfileRequest:
    """Everything tunable about one multi-run profiling session.

    The single keyword surface shared by :func:`~repro.harness.runner.
    profile_app`, :func:`~repro.harness.runner.profile_program`, and the
    CLI; construct once, reuse across apps::

        ProfileRequest(runs=8, execution=ExecutionConfig(jobs=4),
                       plan=PlanConfig(planner="adaptive", budget=6))

    A sub-config passed as ``None`` means that group's defaults.
    """

    #: number of profiling runs to merge (the static schedule's length and
    #: the default planner budget)
    runs: int = 5
    #: run ``i`` is seeded ``base_seed + i`` (serial and parallel alike)
    base_seed: int = 0
    #: profiler configuration; ``None`` = defaults (scope filled from spec)
    coz_config: Optional[CozConfig] = None
    #: discard lines measured at fewer distinct speedups than this
    min_speedup_amounts: int = 2
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)

    def __post_init__(self) -> None:
        # call sites forward optional sub-configs; fingerprints and the
        # runner must only ever see concrete ones
        self.execution = self.execution or ExecutionConfig()
        self.resilience = self.resilience or ResilienceConfig()
        self.plan = self.plan or PlanConfig()
