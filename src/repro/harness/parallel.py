"""Process-parallel execution of independent simulation runs.

Coz builds dense causal profiles by merging many short runs; each run is an
independent deterministic simulation, so the harness can fan them out over
a :class:`~concurrent.futures.ProcessPoolExecutor` without changing any
result.  Three properties make that safe:

* **seed assignment** — tasks carry the exact per-run seed the serial loop
  would have used (``base_seed + i``); workers never draw seeds themselves;
* **worker-side rebuild** — a task names its program by its
  :class:`~repro.apps.spec.AppSpec`.  A registry-built spec's ``build`` is
  a closure that does not pickle, so the task ships the spec's
  :class:`~repro.apps.registry.AppRef` and the worker rebuilds the spec
  from :mod:`repro.apps.registry`.  An unregistered spec ships by value,
  which works when its ``build`` pickles (the :func:`profile_program`
  path);
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
  :class:`~repro.sim.errors.WorkerHungError`.  There is one remedy: the
  batch's undelivered runs run in the parent.  Every run is a
  deterministic simulation, so the parent's output is the bytes the worker
  would have sent, and the session completes whenever a serial session
  would.  A worker that raised leaves the pool serving the other batches.
* **Stopping the pool** — a broken pool (a killed worker), a hang, or
  :data:`BREAKER_THRESHOLD` *consecutive* worker failures stop the pool:
  every batch that already finished is delivered, the worker processes
  are terminated (hung futures cannot be ``cancel()``-ed and
  ``shutdown(wait=False)`` merely orphans the processes), and the
  remaining runs run in the parent.  Each wait is bounded by a
  :class:`Watchdog` deadline (running median of healthy worker
  wall-times), so a hung worker can never hang the session.

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
import signal
import time
import warnings
from bisect import insort
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.apps.spec import AppSpec
from repro.core.config import CozConfig
from repro.core.profile_data import ProfileData, RunFailure
from repro.core.profiler import CausalProfiler
from repro.harness import wallclock
from repro.sim.errors import SimulationError, WorkerCrashError, WorkerHungError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.program import RunResult

if TYPE_CHECKING:
    from repro.harness.checkpoint import CheckpointStore

#: cancelled futures raise this; BaseException on modern Pythons, so a bare
#: ``except Exception`` would miss it after a pool termination
_FutureCancelled = concurrent.futures.CancelledError

#: ``jobs`` value meaning "pick a worker count from the machine":
#: ``min(task count, os.cpu_count())``.
AUTO_JOBS = 0

#: consecutive worker failures that stop the pool; every remaining run
#: then runs in the parent
BREAKER_THRESHOLD = 3


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


#: healthy runs the watchdog must see before it trusts their median
WATCHDOG_MIN_SAMPLES = 3
#: a wait may take this many times the median run wall-time per run ...
WATCHDOG_FACTOR = 8.0
#: ... plus this many seconds
WATCHDOG_GRACE_S = 2.0
#: the cap on every wait, and the bound before the median is trusted
WATCHDOG_MAX_DEADLINE_S = 300.0


class Watchdog:
    """Per-run deadline from a running median of healthy wall-times.

    The one bound on a wait for a worker.  Until
    :data:`WATCHDOG_MIN_SAMPLES` healthy runs have reported, the deadline
    is the generous absolute cap :data:`WATCHDOG_MAX_DEADLINE_S`; after
    that it is ``WATCHDOG_FACTOR * median + WATCHDOG_GRACE_S`` (still
    capped).  Only healthy worker runs feed the median — failed or
    faulted runs do not shrink it.
    """

    def __init__(self) -> None:
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
        if len(self._walls) < WATCHDOG_MIN_SAMPLES:
            return WATCHDOG_MAX_DEADLINE_S
        bound = WATCHDOG_FACTOR * self.median_s * max(1, n_runs) + WATCHDOG_GRACE_S
        return min(WATCHDOG_MAX_DEADLINE_S, bound)


@dataclass
class RunTask:
    """One simulation run: what to build, how to seed it, what to measure.

    ``spec`` names the program.  With ``coz_config`` set the run happens
    under a :class:`CausalProfiler` seeded ``replace(coz_config,
    seed=seed)`` — the serial loop's exact recipe; with ``coz_config=None``
    it is a plain (unprofiled) run, as used by the comparison and overhead
    harnesses.  ``faults`` carries the session's
    :class:`~repro.sim.faults.FaultPlan` into the run (sim-level faults) and
    the worker (kill/hang faults).  A task holds no snapshot, and a
    registry-built spec pickles as its ref, so a task pickles for a pool
    worker in about a kilobyte or less.
    """

    index: int
    seed: int
    spec: AppSpec
    coz_config: Optional[CozConfig] = None
    #: fault-injection plan for this run (``None`` = no injection)
    faults: Optional[FaultPlan] = None
    #: checkpoint fast-forward: the session's store (``None`` = run cold,
    #: record nothing).  The process that executes the task looks the
    #: run's snapshot up in it; the task never carries a snapshot
    checkpoint: Optional[CheckpointStore] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        if self.spec.registry_ref is not None:
            state["spec"] = self.spec.registry_ref
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if not isinstance(state["spec"], AppSpec):
            # through the process-global spec memo: a warm pool worker
            # builds each app of a session once, not once per task
            from repro.apps.registry import cached_build

            state["spec"] = cached_build(state["spec"])
        self.__dict__.update(state)


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
    spec = task.spec

    def build():
        profiler = None
        if task.coz_config is not None:
            cfg = replace(task.coz_config, seed=task.seed)
            profiler = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
        program = spec.build(task.seed)
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


def _enact_worker_faults(task: RunTask) -> None:
    """Make the *worker process* fail, when the plan says so.

    Fires only inside pool workers, never in the parent, so the run the
    parent executes in the worker's place succeeds.
    """
    plan = task.faults
    if plan is None or not (plan.worker_kill or plan.worker_hang):
        return
    if multiprocessing.parent_process() is None:
        return
    inj = FaultInjector(plan, task.seed)
    if inj.worker_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    elif inj.worker_hang:
        time.sleep(plan.worker_hang_s)


def _run_batch_in_worker(
    tasks: List[RunTask], deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    """Worker entry point for one batch: outputs in task order, each with
    its measured wall time.

    Worker faults are enacted per member task — a kill mid-batch loses the
    whole batch's future, and its runs finish in the parent.  With a
    session deadline (a :func:`wallclock.now` reading) the worker stops
    *between* runs once it passes and returns the completed prefix; a
    forked worker reads a patched ``wallclock.now`` as its copy at fork
    time.  ``wall_s`` stays a ``perf_counter`` duration: it feeds the
    watchdog median, which a frozen patched clock would read as zero.
    """
    outs: List[RunOutput] = []
    for task in tasks:
        if outs and wallclock.passed(deadline_monotonic):
            break
        _enact_worker_faults(task)
        start = time.perf_counter()
        out = _run_task(task)
        out.wall_s = time.perf_counter() - start
        outs.append(out)
    return outs


def _submit(
    pool: ProcessPoolExecutor, tasks: List[RunTask], deadline_monotonic: Optional[float],
) -> concurrent.futures.Future:
    """Hand one batch to the pool: the executor's only dispatch."""
    return pool.submit(_run_batch_in_worker, tasks, deadline_monotonic)


def _for_worker(task: RunTask, forks: bool) -> RunTask:
    """``task`` as a pool worker receives it.

    A worker looks a run's checkpoint up in its in-memory cache, which
    only a forked worker inherits warm, then in the store's directory.  A
    spawn or forkserver worker whose store has no directory can only miss,
    and records nothing there, so it gets the task without the store and
    runs cold without importing the checkpoint code.
    """
    store = task.checkpoint
    if forks or store is None or store.directory is not None:
        return task
    return replace(task, checkpoint=None)


def _run_serial(
    tasks: List[RunTask],
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    outputs = []
    for t in tasks:
        if wallclock.passed(deadline_monotonic):
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
    task.  An unregistered spec whose ``build`` is a closure fails it.
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


def execute_tasks(
    tasks: List[RunTask],
    jobs: int = 1,
    audit_report=None,
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
    batch_runs: Optional[int] = None,
) -> List[RunOutput]:
    """Run every task, parallel when asked and possible, serial otherwise.

    Outputs come back in task order regardless of completion order.
    Tasks ship to the pool in batches of ``batch_runs`` contiguous runs
    (auto-sized from the run count and ``jobs`` when ``None``), one future
    per batch, so one IPC round trip amortizes over several runs.  When a
    worker fails, the batch's undelivered runs run in the parent.  Each
    wait is bounded by a :class:`Watchdog` deadline.  A broken pool, a hang,
    or :data:`BREAKER_THRESHOLD` consecutive worker failures stop the
    pool: finished batches are delivered, the worker processes are
    terminated, and the remaining runs run in the parent.  A pool that
    cannot start degrades the whole session to serial with a warning.

    ``deadline_monotonic`` (a :func:`wallclock.now` reading) bounds the
    whole batch: once it passes, no further task starts, in-flight waits
    are clamped to the remaining time, the pool is stopped, and the
    completed runs are returned — so the returned list may be *shorter*
    than ``tasks``.  The profiling service uses this to propagate a job's
    deadline into the executor's watchdog.  Without a deadline every task
    produces an output.

    ``on_output`` is invoked once per task with its final output, as soon
    as that output is known — the journal hook.  With an ``audit_report``
    (an :class:`~repro.core.audit.AuditReport`), a sampled subset of worker
    runs is re-executed in the parent and checked for bit-identity.
    """
    jobs = resolve_jobs(jobs, len(tasks))
    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, on_output, deadline_monotonic)

    if not all(_picklable(t) for t in tasks):
        _warn(
            "profiling tasks are not picklable (an unregistered spec whose "
            "build does not pickle); running serially"
        )
        return _run_serial(tasks, on_output, deadline_monotonic)

    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except Exception as exc:  # no fork support, no semaphores, ...
        _warn(f"could not start process pool ({exc!r}); running serially")
        return _run_serial(tasks, on_output, deadline_monotonic)

    size = batch_runs if batch_runs and batch_runs >= 1 else auto_batch_size(len(tasks), jobs)
    batches = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    forks = multiprocessing.get_start_method() == "fork"
    outputs: Dict[int, RunOutput] = {}
    futures: List[concurrent.futures.Future] = []
    watchdog = Watchdog()
    failures = 0  # consecutive worker failures
    live = True  # the pool is serving batches
    expired = False

    def finish(task: RunTask, out: RunOutput) -> None:
        outputs[task.index] = out
        if on_output is not None:
            on_output(task, out)

    def deliver(batch: List[RunTask], outs: List[RunOutput]) -> None:
        for task, out in zip(batch, outs):
            if not out.failed:
                watchdog.observe(out.wall_s)
            finish(task, out)

    def stop_pool() -> None:
        """Terminate the workers, then deliver every batch that finished."""
        nonlocal live
        live = False
        _terminate_pool(pool)
        for batch, fut in zip(batches, futures):
            if (
                fut.done()
                and not fut.cancelled()
                and fut.exception() is None
                and batch[0].index not in outputs
            ):
                deliver(batch, fut.result())

    def expire() -> None:
        """The session deadline passed: keep what finished, run nothing more."""
        nonlocal expired
        expired = True
        if live:
            stop_pool()

    def worker_failed(batch: List[RunTask], err: Exception, broken: bool) -> None:
        """Leave ``batch`` to the parent; stop the pool if it is unusable."""
        nonlocal failures
        failures += 1
        first, last = batch[0].index, batch[-1].index
        runs = f"run {first}" if first == last else f"runs {first}-{last}"
        _warn(
            f"{runs} failed in a worker ({type(err).__name__}: {err}); "
            f"retrying in parent"
        )
        if broken:
            stop_pool()
        elif failures >= BREAKER_THRESHOLD:
            _warn(
                f"{failures} consecutive worker failures: circuit breaker "
                f"open, running remaining runs serially in the parent"
            )
            stop_pool()

    def await_batch(batch: List[RunTask], fut: concurrent.futures.Future) -> None:
        """Deliver ``batch`` from its worker, or leave it to the parent."""
        nonlocal failures
        wait_s = watchdog.deadline_for(len(batch))
        if deadline_monotonic is not None:
            wait_s = min(wait_s, max(0.0, deadline_monotonic - wallclock.now()))
        try:
            outs = fut.result(timeout=wait_s)
        except (_FutureTimeout, TimeoutError):
            # the wait was clamped to the deadline: expiry, not a hang
            if wallclock.passed(deadline_monotonic):
                expire()
            else:
                err = WorkerHungError(
                    f"worker exceeded its {wait_s:.1f}s deadline", deadline_s=wait_s,
                )
                worker_failed(batch, err, broken=True)
            return
        except (_FutureCancelled, Exception) as exc:
            err = WorkerCrashError(f"worker failed ({type(exc).__name__}: {exc})", cause=exc)
            worker_failed(batch, err, isinstance(exc, (BrokenProcessPool, _FutureCancelled)))
            return
        deliver(batch, outs)
        if outs:
            failures = 0
        if len(outs) == len(batch):
            return
        if wallclock.passed(deadline_monotonic):
            expire()
        else:  # the worker stopped early with time still on the clock
            exc = RuntimeError(
                f"worker returned {len(outs)}/{len(batch)} batch runs before the "
                f"session deadline"
            )
            worker_failed(batch[len(outs):], WorkerCrashError(str(exc), cause=exc), False)

    try:
        for batch in batches:
            shipped = [_for_worker(t, forks) for t in batch]
            futures.append(_submit(pool, shipped, deadline_monotonic))
        for batch, fut in zip(batches, futures):
            if live:
                await_batch(batch, fut)
            for task in batch:
                if expired or task.index in outputs:
                    continue
                if wallclock.passed(deadline_monotonic):
                    expire()
                    continue
                finish(task, _run_task(task))
            if expired:
                break
    except BaseException:
        # never swallow an interrupt — reclaim the workers and re-raise;
        # journaled records are already fsync'd, so the session is resumable
        if live:
            _terminate_pool(pool)
        raise
    if live:
        pool.shutdown(wait=True, cancel_futures=True)
    if audit_report is not None:
        _audit_identity(tasks, outputs, audit_report)
    return [outputs[t.index] for t in tasks if t.index in outputs]
