"""Process-parallel execution of independent simulation runs.

Coz builds dense causal profiles by merging many short runs; each run is an
independent deterministic simulation, so the harness can fan them out over
a :class:`~concurrent.futures.ProcessPoolExecutor` without changing any
result.  Three properties make that safe:

* **seed assignment** — tasks carry the exact per-run seed the serial loop
  would have used (``base_seed + i``); workers never draw seeds themselves;
* **worker-side rebuild** — app specs hold closures that do not pickle, so
  tasks reference apps by :class:`~repro.apps.registry.AppRef` and workers
  rebuild them from :mod:`repro.apps.registry`.  Arbitrary picklable
  program factories are also accepted (the :func:`profile_program` path);
* **ordered merge** — results are reassembled in task-index order no matter
  which worker finished first, so the merged profile is bit-identical to
  the serial one.

Resilience model (typed by :mod:`repro.sim.errors`):

* **Deterministic run failures** — a run that raises
  :class:`~repro.sim.errors.SimulationError` (deadlock, injected thread
  crash, stuck lock-holder) fails identically on every retry, so it is
  *never* retried: :func:`_run_task` converts it into a
  :class:`~repro.core.profile_data.RunFailure` record carried home in the
  task's :class:`RunOutput`.  The session completes degraded instead of
  dying.
* **Environmental worker failures** — a worker that raises, dies
  (``SIGKILL`` → ``BrokenProcessPool``), or exceeds its deadline gets a
  typed :class:`~repro.sim.errors.WorkerCrashError` /
  :class:`~repro.sim.errors.WorkerHungError`.  These are retried under a
  :class:`RetryPolicy`: capped exponential backoff with seeded jitter,
  bounded in-pool attempts (a broken pool is rebuilt a bounded number of
  times), and an in-parent execution as the last resort — so the session
  completes whenever a serial session would.
* **Watchdog** — with no explicit ``timeout``, each wait is bounded by a
  deadline derived from the running median of healthy worker wall-times
  (:class:`Watchdog`), so a hung worker can never hang the session.  Hung
  futures cannot be ``cancel()``-ed and ``shutdown(wait=False)`` merely
  orphans the processes, so the first hang terminates the pool outright
  and the remaining tasks run in the parent.
* **Circuit breaker** — after ``RetryPolicy.breaker_threshold``
  *consecutive* worker failures the pool is evidently unhealthy: the
  breaker opens and every remaining task runs serially in the parent
  (one warning, not one per task).

``KeyboardInterrupt``/``SystemExit`` are never swallowed: the pool's
processes are terminated and the interrupt re-raised, and because the
session journal (:mod:`repro.harness.journal`) fsyncs every record as it
is written, a Ctrl-C'd session is immediately resumable.

Auditing: with ``coz_config.audit`` set, each task's worker attaches a
:class:`~repro.core.audit.DelayAuditor` and ships the resulting
:class:`~repro.core.audit.AuditReport` home in its wire format
(``audit_json``).  ``execute_tasks(..., audit_report=...)`` additionally
re-executes a sampled subset of worker runs in the parent and checks
bit-identity (the *parallel-serial-identity* invariant).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import random
import signal
import time
import warnings
from bisect import insort
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import CozConfig
from repro.core.profile_data import ProfileData, RunFailure
from repro.core.profiler import CausalProfiler
from repro.sim.errors import SimulationError, WorkerCrashError, WorkerHungError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.program import Program, RunResult

if TYPE_CHECKING:
    from repro.harness.checkpoint import CheckpointStore

#: cancelled futures raise this; BaseException on modern Pythons, so a bare
#: ``except Exception`` would miss it after a pool termination
_FutureCancelled = concurrent.futures.CancelledError

#: ``jobs`` value meaning "pick a worker count from the machine":
#: ``min(task count, os.cpu_count())``.
AUTO_JOBS = 0


class ParallelExecutionWarning(UserWarning):
    """A parallel batch degraded (fallback to serial, or a retried run)."""


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Turn a ``jobs`` request into a concrete worker count.

    ``None`` or :data:`AUTO_JOBS` (0) means cpu-count-aware auto sizing;
    explicit values are clamped to the number of tasks.
    """
    if jobs is None or jobs == AUTO_JOBS:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, min(jobs, n_tasks))


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor retries environmental worker failures.

    Deterministic run failures (:class:`~repro.sim.errors.SimulationError`)
    are never retried — same seed, same fault — so this policy governs only
    worker crashes, pool breakage, and watchdog timeouts.
    """

    #: worker-process attempts per task before falling back to the parent
    pool_attempts: int = 2
    #: first backoff sleep; doubles per attempt up to :attr:`backoff_cap_s`
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: fraction of each backoff randomized away (seeded, deterministic)
    jitter: float = 0.5
    #: jitter stream seed
    seed: int = 0
    #: consecutive worker failures that open the circuit breaker
    breaker_threshold: int = 3
    #: times a broken pool is rebuilt before giving up on pooling
    pool_recreations: int = 1

    def backoff_s(self, attempt: int, task_seed: int) -> float:
        """Capped exponential backoff with seeded jitter for one retry."""
        base = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
        rng = random.Random(
            (self.seed << 32) ^ task_seed ^ (attempt << 8) ^ 0xBACC
        )
        return base * (1.0 - self.jitter * rng.random())


class Watchdog:
    """Per-run deadline from a running median of healthy wall-times.

    Until :attr:`min_samples` healthy runs have reported, the deadline is
    the generous absolute cap; after that it is
    ``factor * median + grace_s`` (still capped).  Only healthy worker
    runs feed the median — failed or faulted runs do not shrink it.
    """

    def __init__(
        self,
        factor: float = 8.0,
        grace_s: float = 2.0,
        min_samples: int = 3,
        max_deadline_s: float = 300.0,
    ) -> None:
        self.factor = factor
        self.grace_s = grace_s
        self.min_samples = min_samples
        self.max_deadline_s = max_deadline_s
        self._walls: List[float] = []

    def observe(self, wall_s: float) -> None:
        if wall_s > 0:
            insort(self._walls, wall_s)

    @property
    def median_s(self) -> Optional[float]:
        if not self._walls:
            return None
        n = len(self._walls)
        mid = n // 2
        if n % 2:
            return self._walls[mid]
        return (self._walls[mid - 1] + self._walls[mid]) / 2.0

    def deadline_for(self, n_runs: int) -> float:
        """Deadline for a wait covering ``n_runs`` batched runs."""
        if len(self._walls) < self.min_samples:
            return self.max_deadline_s
        bound = self.factor * self.median_s * max(1, n_runs) + self.grace_s
        return min(self.max_deadline_s, bound)


@dataclass
class RunTask:
    """One simulation run: what to build, how to seed it, what to measure.

    Exactly one of ``app_ref`` / ``program_factory`` should be set.  With
    ``coz_config`` set the run happens under a :class:`CausalProfiler`
    seeded ``replace(coz_config, seed=seed)`` — the serial loop's exact
    recipe; with ``coz_config=None`` it is a plain (unprofiled) run, as
    used by the comparison and overhead harnesses.  ``faults`` carries the
    session's :class:`~repro.sim.faults.FaultPlan` into the run (sim-level
    faults) and the worker (kill/hang faults).  A task holds no snapshot,
    so it pickles for a pool worker in about a kilobyte or less.
    """

    index: int
    seed: int
    coz_config: Optional[CozConfig] = None
    #: picklable registry reference (:class:`repro.apps.registry.AppRef`)
    app_ref: Optional[object] = None
    #: direct factory; must be picklable to cross process boundaries
    program_factory: Optional[Callable[[int], Program]] = None
    progress_points: Tuple = ()
    latency_specs: Tuple = ()
    #: fault-injection plan for this run (``None`` = no injection)
    faults: Optional[FaultPlan] = None
    #: checkpoint fast-forward: the session's store (``None`` = run cold,
    #: record nothing).  The process that executes the task looks the
    #: run's snapshot up in it; the task never carries a snapshot
    checkpoint: Optional[CheckpointStore] = None


@dataclass
class RunOutput:
    """One run's record, in the one form every path uses: a run summary
    plus (for profiled runs) the profiler's data in the
    :meth:`ProfileData.to_bytes` wire format.

    Pool workers, the serial loop and in-parent retries all return it, and
    the session journal (:mod:`repro.harness.journal`) writes and replays
    it.  A task that failed deterministically carries a ``failure`` record
    (:meth:`RunFailure.to_dict` wire form) instead of run data.
    """

    index: int
    seed: int
    run: Dict[str, Any] = field(default_factory=dict)
    #: the profile document as bytes (``None`` for unprofiled runs)
    data_bin: Optional[bytes] = field(default=None, repr=False)
    #: per-run invariant audit (wire format), when the config asked for one
    audit_json: Optional[str] = None
    #: RunFailure wire dict when the run produced no data
    failure: Optional[Dict[str, Any]] = None
    #: worker-measured execution seconds (feeds the watchdog median);
    #: wall-clock, so excluded from equality
    wall_s: float = field(default=0.0, compare=False)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def run_failure(self) -> Optional[RunFailure]:
        if self.failure is None:
            return None
        return RunFailure.from_dict(self.failure)

    def profile_data(self) -> Optional[ProfileData]:
        if self.data_bin is None:
            return None
        return ProfileData.from_bytes(self.data_bin)

    def run_result(self) -> Optional[RunResult]:
        """The run summary as an engine-free :class:`RunResult`."""
        if self.failed:
            return None
        return RunResult(engine=None, **self.run)

    def audit_report(self):
        """The run's :class:`~repro.core.audit.AuditReport`, if audited."""
        if self.audit_json is None:
            return None
        from repro.core.audit import AuditReport

        return AuditReport.from_json(self.audit_json)


def _summarize(result: RunResult) -> Dict[str, Any]:
    """The picklable subset of a RunResult (everything but the engine)."""
    return {
        "runtime_ns": result.runtime_ns,
        "cpu_ns": result.cpu_ns,
        "profiler_cpu_ns": result.profiler_cpu_ns,
        "delay_ns": result.delay_ns,
        "progress_counts": dict(result.progress_counts),
        "thread_count": result.thread_count,
        "sample_count": result.sample_count,
        "events_processed": result.events_processed,
    }


def _resolve_factory(task: RunTask):
    """(factory, progress_points, latency_specs) for a task, rebuilding
    registry-referenced apps by name.

    Registry rebuilds go through the process-global spec memo
    (:func:`repro.apps.registry.cached_build`): a warm pool worker builds
    each app of a session once, not once per task.
    """
    if task.app_ref is not None:
        from repro.apps.registry import cached_build

        spec = cached_build(task.app_ref)
        return spec.build, tuple(spec.progress_points), tuple(spec.latency_specs)
    if task.program_factory is None:
        raise ValueError("RunTask needs an app_ref or a program_factory")
    return task.program_factory, task.progress_points, task.latency_specs


def _run_task(task: RunTask) -> RunOutput:
    """Execute one run; mirrors the serial loop body exactly.

    Deterministic simulation failures (deadlock, injected crash, stuck
    lock-holder) become a failure-record output — they would fail
    identically on any retry, so the run is marked lost and the session
    carries on degraded.  Checkpointed tasks go through
    :func:`repro.harness.checkpoint.execute_run`, which resumes from the
    deepest stored snapshot when one exists and records fresh checkpoints
    when it doesn't — bit-identical either way, including reproducing a
    deterministic failure from a snapshot taken before the fault fired.
    """
    factory, points, latency = _resolve_factory(task)

    def build():
        profiler = None
        if task.coz_config is not None:
            cfg = replace(task.coz_config, seed=task.seed)
            profiler = CausalProfiler(cfg, points, latency)
        program = factory(task.seed)
        run_config = None
        if task.faults is not None and task.faults.any_sim_faults:
            run_config = replace(program.config, faults=task.faults)
        return program, profiler, run_config

    try:
        if task.checkpoint is not None and task.coz_config is not None:
            from repro.harness.checkpoint import execute_run

            result, profiler = execute_run(build, task.seed, task.checkpoint)
        else:
            program, profiler, run_config = build()
            result = program.run(hook=profiler, config=run_config)
    except SimulationError as exc:
        failure = RunFailure.from_error(task.index, task.seed, exc)
        return RunOutput(index=task.index, seed=task.seed, failure=failure.to_dict())
    out = RunOutput(index=task.index, seed=task.seed, run=_summarize(result))
    if profiler is not None:
        out.data_bin = profiler.data.to_bytes()
        if profiler.auditor is not None:
            out.audit_json = profiler.auditor.report().to_json()
    return out


def _enact_worker_faults(task: RunTask, attempt: int) -> None:
    """Make the *worker process* fail, when the plan says so.

    Fires only inside pool workers (never in the parent) and only on a
    task's first attempt — the attempt number is folded into the fault
    RNG — so the executor's recovery paths are exercised and the retry
    then succeeds.
    """
    plan = task.faults
    if plan is None or not (plan.worker_kill or plan.worker_hang):
        return
    if multiprocessing.parent_process() is None:
        return
    inj = FaultInjector(plan, task.seed, attempt=attempt)
    if inj.worker_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    elif inj.worker_hang:
        time.sleep(plan.worker_hang_s)


def _run_task_in_worker(task: RunTask, attempt: int = 0) -> RunOutput:
    """Worker entry point: the run's output plus measured wall time."""
    _enact_worker_faults(task, attempt)
    start = time.perf_counter()
    out = _run_task(task)
    out.wall_s = time.perf_counter() - start
    return out


def _run_batch_in_worker(
    tasks: List[RunTask],
    attempts: List[int],
    deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    """Worker entry point for one :class:`RunBatch`: outputs in task order.

    Worker faults are enacted per member task — a kill mid-batch loses the
    whole batch's future and the parent's split-on-retry isolates the
    poisoned run.  With a session deadline the worker stops *between* runs
    once it passes and returns the completed prefix (monotonic clocks are
    system-wide on the supported platforms; a skewed clock merely shifts
    work back to the parent's deadline handling).
    """
    outs: List[RunOutput] = []
    for task, attempt in zip(tasks, attempts):
        if (
            deadline_monotonic is not None
            and outs
            and time.monotonic() >= deadline_monotonic
        ):
            break
        outs.append(_run_task_in_worker(task, attempt))
    return outs


def _run_serial(
    tasks: List[RunTask],
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    outputs = []
    for t in tasks:
        if deadline_monotonic is not None and time.monotonic() >= deadline_monotonic:
            break  # deadline passed: return what completed
        out = _run_task(t)
        if on_output is not None:
            on_output(t, out)
        outputs.append(out)
    return outputs


def _warn(message: str) -> None:
    warnings.warn(message, ParallelExecutionWarning, stacklevel=3)


def _picklable(task: RunTask) -> bool:
    """Whether ``task`` can cross a process boundary.

    Pickles the task itself: it holds no snapshot, only plain fields and
    a checkpoint-store address, so this costs tens of microseconds per
    task.  Closure-based program factories fail it.
    """
    try:
        pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


#: auto batch sizing: a worker should see a handful of batches (so the
#: watchdog's median and straggler rebalancing still work), capped so one
#: lost batch never costs too much recomputation
_BATCH_OVERSUBSCRIBE = 4
_MAX_BATCH = 16


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def auto_batch_size(n_tasks: int, jobs: int) -> int:
    """Runs per IPC task when the caller didn't pin ``batch_runs``.

    Aims for :data:`_BATCH_OVERSUBSCRIBE` batches per worker so finishing
    order can still rebalance stragglers.  When the machine cannot actually
    run ``jobs`` workers concurrently (fewer usable cores than workers),
    finer slicing buys no load balance — only IPC — so batches grow to
    ``ceil(n/jobs)`` instead.
    """
    if n_tasks <= 1 or jobs <= 1:
        return 1
    if jobs > _effective_cores():
        per = -(-n_tasks // jobs)
    else:
        per = n_tasks // (jobs * _BATCH_OVERSUBSCRIBE)
    return max(1, min(_MAX_BATCH, per))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung workers included.

    ``Future.cancel()`` is a no-op once a task is running and
    ``shutdown(wait=False)`` merely abandons the worker processes, which
    keep grinding (and keep queued tasks starved) until they finish on
    their own.  The only way to reclaim a hung worker is to terminate its
    process.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)


def _audit_identity(tasks, outputs, audit_report) -> None:
    """Parallel-serial-identity: re-run a sampled subset in the parent.

    Re-executes the first and last task in-process and compares its
    output byte-for-byte (run summary, profile and audit documents,
    failure record) with what the worker shipped home.  Appends the result
    to ``audit_report``.
    """
    from repro.core.audit import InvariantCheck

    by_index = {t.index: t for t in tasks}
    sample = [tasks[0].index, tasks[-1].index] if len(tasks) > 1 else [tasks[0].index]
    checked = 0
    failures = 0
    detail = ""
    for idx in dict.fromkeys(sample):
        out = outputs.get(idx)
        if out is None:
            continue
        checked += 1
        if _run_task(by_index[idx]) != out:
            failures += 1
            if not detail:
                detail = (
                    f"run {idx} (seed {out.seed}) differs between the worker "
                    f"and an in-parent re-execution"
                )
    audit_report.add(InvariantCheck(
        name="parallel-serial-identity",
        passed=failures == 0,
        checked=checked,
        failures=failures,
        detail=detail,
    ))


@dataclass
class RunBatch:
    """A contiguous slice of a session's tasks shipped as one IPC unit.

    The pool's unit of dispatch and retry: one future per batch.  On a
    worker failure a multi-run batch is split chunk-token style — halved
    and resubmitted — so one poisoned run cannot keep sinking its
    siblings; singletons fall back to the per-task retry ladder.
    """

    bid: int
    tasks: List[RunTask]


class _PoolSession:
    """Mutable state of one parallel session: pool, batches, retry ledger."""

    def __init__(
        self,
        tasks: List[RunTask],
        jobs: int,
        retry: RetryPolicy,
        batch_size: int = 1,
        deadline_monotonic: Optional[float] = None,
    ) -> None:
        self.tasks = tasks
        self.jobs = jobs
        self.retry = retry
        self.deadline_monotonic = deadline_monotonic
        self.pool: Optional[ProcessPoolExecutor] = None
        #: one future per live batch, keyed by batch id
        self.futures: Dict[int, concurrent.futures.Future] = {}
        self.attempts: Dict[int, int] = {t.index: 0 for t in tasks}
        self.outputs: Dict[int, RunOutput] = {}
        self.consecutive_failures = 0
        self.recreations = 0
        #: pool unusable (terminated after a hang, or unrecoverably broken)
        self.dead = False
        #: breaker open: run everything remaining in the parent
        self.breaker_open = False
        self._next_bid = 0
        self.batches: Dict[int, RunBatch] = {}
        self._task_batch: Dict[int, int] = {}
        for i in range(0, len(tasks), max(1, batch_size)):
            self._new_batch(tasks[i:i + batch_size])

    def _new_batch(self, tasks: List[RunTask]) -> RunBatch:
        batch = RunBatch(bid=self._next_bid, tasks=tasks)
        self._next_bid += 1
        self.batches[batch.bid] = batch
        for t in tasks:
            self._task_batch[t.index] = batch.bid
        return batch

    def batch_of(self, index: int) -> RunBatch:
        return self.batches[self._task_batch[index]]

    def replace_batch(
        self, batch: RunBatch, groups: List[List[RunTask]]
    ) -> List[RunBatch]:
        """Retire ``batch`` and re-cover its unfinished tasks with ``groups``."""
        self.batches.pop(batch.bid, None)
        self.futures.pop(batch.bid, None)
        return [self._new_batch(g) for g in groups if g]

    def submit(self, batch: RunBatch) -> None:
        self.futures[batch.bid] = self.pool.submit(
            _run_batch_in_worker,
            batch.tasks,
            [self.attempts[t.index] for t in batch.tasks],
            self.deadline_monotonic,
        )

    def submit_unfinished(self) -> None:
        for bid in sorted(self.batches):
            batch = self.batches[bid]
            if bid in self.futures:
                continue
            if any(t.index not in self.outputs for t in batch.tasks):
                self.submit(batch)

    def harvest_done(self) -> None:
        """Collect every already-finished future (before a pool teardown)."""
        for fut in list(self.futures.values()):
            if not fut.done():
                continue
            try:
                outs = fut.result(timeout=0)
            except (KeyboardInterrupt, SystemExit):
                raise
            except (_FutureCancelled, Exception):
                continue  # it failed; the main loop will handle its tasks
            for out in outs:
                if out.index not in self.outputs:
                    self.outputs[out.index] = out

    def shutdown(self, now: bool = False) -> None:
        if self.pool is None:
            return
        if now:
            _terminate_pool(self.pool)
        else:
            self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = None

    def note_worker_failure(self) -> bool:
        """Count a worker failure; returns True when the breaker opens."""
        self.consecutive_failures += 1
        if (
            not self.breaker_open
            and self.consecutive_failures >= self.retry.breaker_threshold
        ):
            self.breaker_open = True
            _warn(
                f"{self.consecutive_failures} consecutive worker failures: "
                f"circuit breaker open, running remaining runs serially in "
                f"the parent"
            )
        return self.breaker_open

    def rebuild_pool(self) -> bool:
        """Replace a broken pool, bounded by the retry policy."""
        if self.recreations >= self.retry.pool_recreations:
            return False
        self.recreations += 1
        try:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = ProcessPoolExecutor(max_workers=self.jobs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            _warn(f"could not rebuild process pool ({exc!r})")
            self.pool = None
            return False
        self.futures.clear()
        self.submit_unfinished()
        return True


def execute_tasks(
    tasks: List[RunTask],
    jobs: int = 1,
    timeout: Optional[float] = None,
    audit_report=None,
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
    batch_runs: Optional[int] = None,
) -> List[RunOutput]:
    """Run every task, parallel when asked and possible, serial otherwise.

    Outputs come back in task order regardless of completion order.
    Tasks ship to the pool in :class:`RunBatch` groups of ``batch_runs``
    (auto-sized from the run count and ``jobs`` when ``None``) so one IPC
    round trip amortizes over several runs; a failed multi-run batch is
    split in half and resubmitted, so a single poisoned run degrades to a
    singleton instead of sinking its batch-mates.
    Worker failures retry per a default :class:`RetryPolicy`:
    in-pool with capped exponential backoff first, in the parent last, with
    a circuit breaker that degrades the whole batch to in-parent serial
    execution after repeated consecutive failures.  Waits are bounded by
    ``timeout`` when given (scaled by the number of runs still pending in
    the awaited batch), else by a :class:`Watchdog` deadline (running
    median of healthy wall-times); the first hang terminates the pool's
    processes (hung workers cannot be cancelled) and the remaining tasks
    run in the parent.  A pool that cannot start degrades the whole batch
    to serial with a warning.

    ``deadline_monotonic`` (a ``time.monotonic()`` timestamp) bounds the
    whole batch: once it passes, no further task starts, in-flight waits
    are clamped to the remaining time, the pool is torn down, and the
    completed prefix is returned — so the returned list may be *shorter*
    than ``tasks``.  The profiling service uses this to propagate a job's
    deadline into the executor's watchdog.  Without a deadline every task
    produces an output, exactly as before.

    ``on_output`` is invoked once per task with its final output, as soon
    as that output is known — the journal hook.  With an ``audit_report``
    (an :class:`~repro.core.audit.AuditReport`), a sampled subset of worker
    runs is re-executed in the parent and checked for bit-identity.
    """
    jobs = resolve_jobs(jobs, len(tasks))
    retry = RetryPolicy()

    def remaining_s() -> Optional[float]:
        if deadline_monotonic is None:
            return None
        return deadline_monotonic - time.monotonic()

    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, on_output, deadline_monotonic)

    if not all(_picklable(t) for t in tasks):
        _warn(
            "profiling tasks are not picklable (closure-based program factory "
            "not in the app registry); running serially"
        )
        return _run_serial(tasks, on_output, deadline_monotonic)

    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # no fork support, no semaphores, ...
        _warn(f"could not start process pool ({exc!r}); running serially")
        return _run_serial(tasks, on_output, deadline_monotonic)

    if batch_runs is not None and batch_runs >= 1:
        batch_size = batch_runs
    else:
        batch_size = auto_batch_size(len(tasks), jobs)
    session = _PoolSession(
        tasks, jobs, retry,
        batch_size=batch_size,
        deadline_monotonic=deadline_monotonic,
    )
    session.pool = pool
    watchdog = Watchdog()

    def finish(task: RunTask, out: RunOutput) -> None:
        session.outputs[task.index] = out
        if on_output is not None:
            on_output(task, out)

    def run_in_parent(task: RunTask, err: Optional[Exception] = None) -> None:
        if err is not None:
            _warn(
                f"run {task.index} (seed {task.seed}) failed in worker "
                f"({type(err).__name__}: {err}); retrying in parent"
            )
        finish(task, _run_task(task))

    def fail_batch(
        batch: RunBatch,
        pending: List[RunTask],
        exc: BaseException,
        err: Exception,
        current: RunTask,
    ) -> None:
        """React to a worker failure that took down a whole batch future.

        Multi-run batches are halved and resubmitted (chunk-token style) so
        a single poisoned run converges to a singleton; singletons follow
        the classic per-task ladder: in-pool retries, then the parent.
        """
        if len(pending) < len(batch.tasks):
            batch = session.replace_batch(batch, [pending])[0]
        for t in pending:
            session.attempts[t.index] += 1
        if session.note_worker_failure():
            return  # breaker just opened; the loop falls to the parent
        attempt = session.attempts[current.index] - 1
        broken = isinstance(exc, (BrokenProcessPool, _FutureCancelled))
        if len(pending) > 1:
            _warn(
                f"a batch of {len(pending)} runs failed in a worker "
                f"({type(exc).__name__}: {exc}); splitting it and retrying"
            )
            mid = (len(pending) + 1) // 2
            halves = session.replace_batch(
                batch, [pending[:mid], pending[mid:]]
            )
            time.sleep(retry.backoff_s(attempt, current.seed))
            if broken:
                # a SIGKILL-ed worker breaks every outstanding future:
                # rebuild the pool (bounded) and resubmit all unfinished
                # work, halves included
                if not session.rebuild_pool():
                    session.dead = True
                    run_in_parent(current, err)
            else:
                for half in halves:
                    session.submit(half)
            return
        if broken:
            time.sleep(retry.backoff_s(attempt, current.seed))
            if not session.rebuild_pool():
                session.dead = True
                run_in_parent(current, err)
            return
        if session.attempts[current.index] < retry.pool_attempts:
            time.sleep(retry.backoff_s(attempt, current.seed))
            session.submit(batch)
            return
        run_in_parent(current, err)

    expired = False
    try:
        session.submit_unfinished()
        for task in tasks:
            while task.index not in session.outputs:
                rem = remaining_s()
                if rem is not None and rem <= 0:
                    # deadline passed: keep what finished, reclaim the
                    # workers, and hand the partial batch back
                    expired = True
                    session.harvest_done()
                    session.shutdown(now=True)
                    session.dead = True
                    break
                if session.dead or session.breaker_open:
                    run_in_parent(task)
                    break
                batch = session.batch_of(task.index)
                if batch.bid not in session.futures:
                    session.submit(batch)
                fut = session.futures[batch.bid]
                pending = [
                    t for t in batch.tasks if t.index not in session.outputs
                ]
                if timeout is not None:
                    wait_s = timeout * len(pending)
                else:
                    wait_s = watchdog.deadline_for(len(pending))
                if rem is not None:
                    wait_s = min(wait_s, rem)
                try:
                    outs = fut.result(timeout=wait_s)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except (_FutureTimeout, TimeoutError):
                    rem = remaining_s()
                    if rem is not None and rem <= 0:
                        # the wait was clamped to the deadline, not the
                        # watchdog bound: this is expiry, not a hang
                        continue
                    err = WorkerHungError(
                        f"worker exceeded its {wait_s:.1f}s deadline",
                        deadline_s=wait_s,
                    )
                    session.note_worker_failure()
                    # a hung worker cannot be cancelled: harvest what
                    # finished, reclaim the processes, finish in the parent
                    session.harvest_done()
                    session.shutdown(now=True)
                    session.dead = True
                    run_in_parent(task, err)
                except (_FutureCancelled, Exception) as exc:
                    err = WorkerCrashError(
                        f"worker failed ({type(exc).__name__}: {exc})",
                        cause=exc,
                    )
                    fail_batch(batch, pending, exc, err, task)
                else:
                    session.futures.pop(batch.bid, None)
                    got = {o.index: o for o in outs}
                    delivered = [t for t in pending if t.index in got]
                    if delivered:
                        session.consecutive_failures = 0
                    for done_task in delivered:
                        out = got[done_task.index]
                        if not out.failed:
                            watchdog.observe(out.wall_s)
                        finish(done_task, out)
                    missing = [t for t in pending if t.index not in got]
                    if missing:
                        rem = remaining_s()
                        if rem is not None and rem <= 0:
                            continue  # deadline truncation; loop top expires
                        # the worker returned early with time still on the
                        # clock: treat the undelivered tail as a crash so
                        # it retries instead of resubmitting forever
                        exc = RuntimeError(
                            f"worker returned {len(got)}/{len(pending)} "
                            f"batch runs before the session deadline"
                        )
                        err = WorkerCrashError(str(exc), cause=exc)
                        fail_batch(batch, missing, exc, err, task)
            if expired:
                break
    except (KeyboardInterrupt, SystemExit):
        # never swallow an interrupt — reclaim the workers and re-raise;
        # journaled records are already fsync'd, so the session is resumable
        session.shutdown(now=True)
        session.dead = True
        raise
    finally:
        if not session.dead:
            session.shutdown(now=False)
    if audit_report is not None:
        _audit_identity(tasks, session.outputs, audit_report)
    return [session.outputs[t.index] for t in tasks if t.index in session.outputs]
