"""The profiling-service daemon: bounded workers, dedup, recovery.

One :class:`ServiceDaemon` owns a state directory::

    <state_dir>/
        daemon.sock          Unix socket the wire protocol is spoken over
        queue.jsonl          crash-safe queue journal (fsync'd per event)
        jobs/<fp>.jsonl      per-job session journals (repro.harness.journal)
        results/<fp>.json    content-addressed completed results
        checkpoints/<key16>/<key>-<seed>.ckpt
                             shared CheckpointStore disk caches

and runs two thread groups: an accept loop handing each connection to a
short-lived handler thread, and ``workers`` long-lived worker threads
draining the :class:`~repro.harness.service.jobs.JobQueue`.  Sessions
execute through the ordinary :func:`~repro.harness.runner.
run_profile_session` machinery — journaled, checkpointed, deadline-aware —
so every robustness property the harness already has (bit-identical
resume, typed fault taxonomy, retry/watchdog) is inherited rather than
reimplemented.

Every durable byte under the state directory goes through
:mod:`repro.storage`: both journal kinds are
:class:`~repro.storage.AppendLog` files, and the result and checkpoint
files are :func:`~repro.storage.write_once` writes.

**Admission order** at submit is deliberate: circuit breaker first (a
quarantined tenant is shed even for cached results, so its traffic stops
entirely until the half-open probe), then result-store cache, then
in-flight dedup coalescing (free: no quota or rate token consumed), then
queue-depth quota, then the rate limit.  Only submissions that enqueue
*new* work pay capacity.  The fingerprint is reserved in the dedup index
*inside* the admission critical section (before the queue journal fsync),
so two racing duplicates can never both enqueue; and a half-open breaker
probe that resolves without running a job — cache hit, capacity shed, or
a verdict-less terminal state — returns its probe slot rather than
leaving the tenant quarantined with no outcome ever coming.

**Recovery**: every accepted job is journaled to ``queue.jsonl`` before it
enqueues and again when it settles.  On restart, jobs with a ``submit``
event but no terminal event re-enqueue (``recovered=True``); their
session journals replay completed runs, so a daemon SIGKILL'd mid-job
resumes the job from its last fsync'd run and produces a bit-identical
result.  A torn final queue event (the kill landed mid-append) is
dropped and truncated before the next event is appended; an undecodable
event anywhere else is corruption and stops the daemon from starting.

**Graceful degradation**: a chaos-faulted session completes ``degraded``
(partial profile + typed failure records) rather than erroring; repeated
degraded/failed jobs open the tenant's breaker and shed that tenant with
:class:`~repro.sim.errors.ServiceOverloadError` while other tenants keep
their workers.  ``KeyboardInterrupt``/``SystemExit`` in a worker are never
swallowed: the job is marked failed, the daemon stops, and the exception
re-raises in ``run_forever``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.harness.journal import JournalError
from repro.harness.request import (
    ExecutionConfig,
    ProfileRequest,
    ResilienceConfig,
)
from repro.harness.service.jobs import Job, JobQueue
from repro.harness.service.results import ResultStore
from repro.harness.service.tenants import AdmissionController, TenantPolicy
from repro.harness.service.wire import (
    WIRE_VERSION,
    JobSpec,
    WireError,
    job_fingerprint,
    read_doc,
    send_doc,
)
from repro.sim.errors import DeadlineExceededError, ServiceOverloadError
from repro.storage import AppendLog

__all__ = ["ServiceConfig", "ServiceDaemon"]

#: queue-latency samples kept for the status percentiles
_LATENCY_WINDOW = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon instance needs to run."""

    #: directory holding socket, journals, results, and checkpoints
    state_dir: str
    #: worker threads draining the job queue
    workers: int = 2
    #: admission-control policy applied per tenant
    policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: executor worker *processes* per session (1 = in-process serial)
    session_jobs: int = 1
    #: worker-queue poll interval (shutdown responsiveness), seconds
    poll_s: float = 0.2
    #: socket path override (default ``<state_dir>/daemon.sock``)
    socket_path: Optional[str] = None

    @property
    def sock(self) -> str:
        return self.socket_path or os.path.join(self.state_dir, "daemon.sock")


class ServiceDaemon:
    """Long-running multi-tenant profiling service over a Unix socket."""

    def __init__(
        self,
        config: ServiceConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not hasattr(socket, "AF_UNIX"):
            raise OSError("the profiling service needs AF_UNIX sockets, "
                          "which this platform does not provide")
        self.config = config
        self._clock = clock
        os.makedirs(config.state_dir, exist_ok=True)
        self.jobs_dir = os.path.join(config.state_dir, "jobs")
        self.checkpoints_dir = os.path.join(config.state_dir, "checkpoints")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.queue_journal = os.path.join(config.state_dir, "queue.jsonl")
        self._queue_log = AppendLog(self.queue_journal, error=JournalError)

        self.queue = JobQueue()
        self.results = ResultStore(os.path.join(config.state_dir, "results"))
        self.admission = AdmissionController(config.policy, clock)

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._fatal: Optional[BaseException] = None
        self._threads: List[threading.Thread] = []
        self._busy = [False] * config.workers
        self._dead = [False] * config.workers
        self._listener: Optional[socket.socket] = None
        self._started_monotonic: Optional[float] = None
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._dedup_coalesced = 0
        self._recovered_jobs = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Recover journaled jobs, bind the socket, spawn threads."""
        self._started_monotonic = self._clock()
        self._recover()
        sock_path = self.config.sock
        if os.path.exists(sock_path):
            os.unlink(sock_path)  # stale socket from a killed daemon
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(sock_path)
        self._listener.listen(16)
        self._listener.settimeout(self.config.poll_s)
        accept = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for idx in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, args=(idx,),
                name=f"service-worker-{idx}", daemon=True,
            )
            t.start()
            self._threads.append(t)

    def run_forever(self) -> None:
        """Start and block until :meth:`stop` (or a fatal error, which
        re-raises here in the main thread — KeyboardInterrupt included)."""
        self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(self.config.poll_s)
        except (KeyboardInterrupt, SystemExit):
            self.stop()
            raise
        self.stop()
        if self._fatal is not None:
            raise self._fatal

    def stop(self) -> None:
        self._stop.set()
        self.queue.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        try:
            os.unlink(self.config.sock)
        except OSError:
            pass
        self._queue_log.close()

    # ------------------------------------------------------------- recovery

    def _journal_event(self, doc: Dict[str, Any]) -> None:
        """Append one fsync'd event to the crash-safe queue journal."""
        self._queue_log.append(doc)

    def _recover(self) -> None:
        """Re-enqueue journaled jobs that never reached a terminal state.

        The job's session journal (``jobs/<fp>.jsonl``) holds every run
        that completed before the crash; re-execution replays it and runs
        only the remainder, so the recovered result is bit-identical to an
        uninterrupted one.
        """
        pending: Dict[str, Dict[str, Any]] = {}  # fingerprint -> submit
        for doc in self._queue_log.replay():
            if not isinstance(doc, dict) or not doc.get("fingerprint"):
                continue
            if doc.get("kind") == "submit":
                pending[doc["fingerprint"]] = doc
            elif doc.get("kind") == "terminal":
                pending.pop(doc["fingerprint"], None)
        for fp, doc in sorted(pending.items()):
            try:
                spec = JobSpec.from_wire(doc["spec"])
            except (KeyError, WireError):
                continue  # unparseable historical record: drop, don't die
            job = Job(
                job_id=self.queue.next_job_id(fp),
                fingerprint=fp,
                spec=spec,
                tenants=list(doc.get("tenants") or [spec.tenant]),
                submitted_monotonic=self._clock(),
                recovered=True,
            )
            # re-arm the wall-clock budget the original submission carried
            # (or the policy default) — without this a recovered job runs
            # unbounded after a restart
            deadline_s = spec.deadline_s
            if deadline_s is None:
                deadline_s = self.config.policy.default_deadline_s
            if deadline_s is not None:
                job.deadline_monotonic = time.monotonic() + deadline_s
            with self._lock:
                for tenant in job.tenants:
                    self.admission.tenant(tenant).active += 1
            self.queue.put(job)
            self._recovered_jobs += 1

    # ------------------------------------------------------------ admission

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Admit one submission; raises ServiceOverloadError on shed."""
        fp = job_fingerprint(spec)
        with self._lock:
            state = self.admission.tenant(spec.tenant)
            state.counters["submitted"] += 1
            # 1. breaker: a quarantined tenant gets nothing, cached or not.
            # A consumed half-open probe must be given back on every path
            # that resolves without running a job, or the breaker would be
            # stuck half-open (shedding) with no probe outcome ever coming.
            probe = self.admission.check_breaker(state)
            # 2. completed before: serve the content-addressed result
            cached = self.results.get(fp)
            if cached is not None:
                if probe:
                    state.breaker.release_probe()
                state.counters["cache_hits"] += 1
                return {
                    "ok": True,
                    "fingerprint": fp,
                    "state": cached.get("state", "done"),
                    "cached": True,
                    "result": cached,
                }
            # 3. in flight: coalesce (free — no quota, no rate token).  The
            # probe stays consumed here: this tenant joins the job's
            # subscriber list, so its settle feeds the breaker a verdict.
            active = self.queue.active(fp)
            if active is not None:
                active.dedup_count += 1
                self._dedup_coalesced += 1
                if spec.tenant not in active.tenants:
                    active.tenants.append(spec.tenant)
                    state.active += 1
                state.counters["dedup_hits"] += 1
                return {
                    "ok": True,
                    "fingerprint": fp,
                    "job_id": active.job_id,
                    "state": active.state,
                    "dedup": True,
                }
            # 4. + 5. genuinely new work: pay quota and rate
            try:
                self.admission.check_capacity(state)
            except ServiceOverloadError:
                if probe:
                    state.breaker.release_probe()
                raise
            job = Job(
                job_id=self.queue.next_job_id(fp),
                fingerprint=fp,
                spec=spec,
                tenants=[spec.tenant],
                submitted_monotonic=self._clock(),
            )
            deadline_s = spec.deadline_s
            if deadline_s is None:
                deadline_s = state.policy.default_deadline_s
            if deadline_s is not None:
                job.deadline_monotonic = time.monotonic() + deadline_s
            state.active += 1
            # reserve the fingerprint before releasing the lock: a
            # concurrent duplicate arriving during the journal fsync below
            # coalesces onto this job instead of enqueueing a second
            # execution of the same session journal
            self.queue.reserve(job)
        try:
            self._journal_event({
                "kind": "submit",
                "fingerprint": fp,
                "spec": spec.to_wire(),
                "tenants": job.tenants,
            })
        except BaseException:
            with self._lock:
                roll = self.admission.tenant(spec.tenant)
                roll.active = max(0, roll.active - 1)
                if probe:
                    roll.breaker.release_probe()
                self.queue.unreserve(job)
            raise
        self.queue.enqueue(job)
        return {
            "ok": True,
            "fingerprint": fp,
            "job_id": job.job_id,
            "state": "queued",
        }

    # ------------------------------------------------------------ execution

    def _worker_loop(self, idx: int) -> None:
        try:
            while not self._stop.is_set():
                job = self.queue.take(timeout=self.config.poll_s)
                if job is None:
                    continue
                self._busy[idx] = True
                try:
                    self._execute_job(job)
                finally:
                    self._busy[idx] = False
        except BaseException as exc:  # noqa: BLE001 — deliberate: see below
            # KeyboardInterrupt / SystemExit (and anything else fatal) must
            # stop the daemon, not silently kill one worker thread
            self._fatal = exc
            self._dead[idx] = True
            self._stop.set()
            raise

    def _execute_job(self, job: Job) -> None:
        start = self._clock()
        job.queue_latency_s = max(0.0, start - job.submitted_monotonic)
        self._latencies.append(job.queue_latency_s)

        if (
            job.deadline_monotonic is not None
            and time.monotonic() >= job.deadline_monotonic
        ):
            self._settle(job, "shed", error=_error_doc(DeadlineExceededError(
                f"job {job.job_id} spent its whole deadline queued",
                deadline_s=job.spec.deadline_s,
            )), breaker_failure=False, shed_reason="deadline")
            return

        try:
            outcome = self._run_session(job)
        except (KeyboardInterrupt, SystemExit):
            self._settle(job, "failed",
                         error={"error": "Interrupted", "message": "daemon stopping"},
                         breaker_failure=False)
            raise
        except Exception as exc:
            self._settle(job, "failed", error=_error_doc(exc),
                         breaker_failure=True)
            return
        job.execute_s = self._clock() - start

        doc = self._result_doc(job, outcome)
        if outcome.deadline_exceeded:
            # partial truth for the waiter, but never cached: a resubmit
            # must resume the journal and finish the session
            doc["partial"] = True
            self._settle(job, "shed", result=doc, breaker_failure=False,
                         shed_reason="deadline")
            return
        self.results.put(job.fingerprint, doc)
        state = "degraded" if outcome.degraded else "done"
        self._settle(job, state, result=doc,
                     breaker_failure=outcome.degraded)

    def _run_session(self, job: Job):
        """Execute one job's profiling session (monkeypatch point for
        tests that need deterministic session behavior)."""
        from repro.harness.checkpoint import checkpoint_fingerprint
        from repro.harness.runner import run_profile_session

        spec_obj, cfg, (faults, plan) = job.spec.build_session()
        journal_path = os.path.join(self.jobs_dir, f"{job.fingerprint}.jsonl")
        ckpt_key = checkpoint_fingerprint(spec_obj, cfg, faults)
        ckpt_dir = os.path.join(self.checkpoints_dir, ckpt_key[:16])

        remaining_s = None
        if job.deadline_monotonic is not None:
            remaining_s = max(0.01, job.deadline_monotonic - time.monotonic())

        def request(resume: bool) -> ProfileRequest:
            return ProfileRequest(
                runs=job.spec.runs,
                base_seed=job.spec.base_seed,
                coz_config=cfg,
                execution=ExecutionConfig(
                    jobs=self.config.session_jobs,
                    checkpoint_dir=ckpt_dir,
                    deadline_s=remaining_s,
                ),
                resilience=ResilienceConfig(
                    faults=faults,
                    journal=None if resume else journal_path,
                    resume=journal_path if resume else None,
                ),
                plan=plan,
            )

        if os.path.exists(journal_path):
            try:
                return run_profile_session(spec_obj, request(resume=True))
            except JournalError:
                # empty or headerless journal (killed between create and
                # first fsync): start the session over from nothing
                os.unlink(journal_path)
        return run_profile_session(spec_obj, request(resume=False))

    def _settle(self, job: Job, state: str,
                result: Optional[Dict[str, Any]] = None,
                error: Optional[Dict[str, Any]] = None,
                breaker_failure: bool = False,
                shed_reason: Optional[str] = None) -> None:
        with self._lock:
            # retire the dedup entry inside the same critical section that
            # unwinds quota accounting: a submit between the decrement and
            # the entry's removal would coalesce onto this settled job and
            # increment an active count nothing would ever decrement
            self.queue.retire(job)
            for tenant in job.tenants:
                tstate = self.admission.tenant(tenant)
                tstate.active = max(0, tstate.active - 1)
                if state in ("done", "degraded"):
                    tstate.counters["completed"] += 1
                if state == "degraded":
                    tstate.counters["degraded"] += 1
                if state == "failed":
                    tstate.counters["failed"] += 1
                if shed_reason == "deadline":
                    tstate.counters["shed_deadline"] += 1
                if breaker_failure:
                    tstate.breaker.record_failure()
                elif state in ("done", "degraded"):
                    tstate.breaker.record_success()
                else:
                    # shed or interrupted: no verdict on tenant health —
                    # if this job was the half-open probe, return the slot
                    # so the tenant is not quarantined forever
                    tstate.breaker.release_probe()
        # journal the terminal state BEFORE releasing waiters: once a
        # client sees the job settle, a restart must not re-run it
        self._journal_event({
            "kind": "terminal",
            "fingerprint": job.fingerprint,
            "state": state,
        })
        self.queue.settle(job, state, result=result, error=error)

    def _result_doc(self, job: Job, outcome) -> Dict[str, Any]:
        """Wire-shaped result document — pure content, no timestamps, so
        byte equality between two docs is a determinism proof."""
        metrics = {
            "virtual_ns": sum(r.runtime_ns for r in outcome.run_results),
            "samples": sum(r.sample_count for r in outcome.run_results),
            "events": sum(r.events_processed for r in outcome.run_results),
        }
        top = [
            {
                "line": str(lp.line),
                "progress_point": lp.progress_point,
                "slope": round(lp.slope, 6),
            }
            for lp in outcome.profile.ranked()[:5]
        ]
        return {
            "schema": "service-result/v1",
            "fingerprint": job.fingerprint,
            "app": job.spec.app,
            "runs": job.spec.runs,
            "state": "degraded" if outcome.degraded else "done",
            "degraded": outcome.degraded,
            "experiments": outcome.experiment_count,
            "failures": [f.to_dict() for f in outcome.data.failures],
            "metrics": metrics,
            "top": top,
            "profile_data": json.loads(outcome.data.to_json()),
        }

    # --------------------------------------------------------------- status

    def status(self) -> Dict[str, Any]:
        """The ``/healthz``-style status document."""
        alive = sum(
            1 for t in self._threads
            if t.name.startswith("service-worker") and t.is_alive()
        )
        latencies = sorted(self._latencies)
        latency_avg = sum(latencies) / len(latencies) if latencies else 0.0
        latency_p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
        breaker_open = any(
            s.breaker.state != "closed" for s in self.admission.tenants.values()
        )
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for j in jobs:
            by_state[j.state] = by_state.get(j.state, 0) + 1
        degraded = alive < self.config.workers or breaker_open
        uptime = 0.0
        if self._started_monotonic is not None:
            uptime = self._clock() - self._started_monotonic
        return {
            "schema": "service-status/v1",
            "status": "degraded" if degraded else "ok",
            "pid": os.getpid(),
            "uptime_s": round(uptime, 3),
            "workers": {
                "configured": self.config.workers,
                "alive": alive,
                "busy": sum(self._busy),
            },
            "queue": {
                "depth": self.queue.depth,
                "running": self.queue.running,
                "latency_avg_s": round(latency_avg, 6),
                "latency_p95_s": round(latency_p95, 6),
            },
            "cache": {
                **self.results.counters(),
                "dedup_coalesced": self._dedup_coalesced,
            },
            "jobs": {
                "total": len(jobs),
                "recovered": self._recovered_jobs,
                "by_state": by_state,
            },
            "tenants": self.admission.snapshot(),
        }

    # ---------------------------------------------------------------- wire

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed during shutdown
            threading.Thread(
                target=self._handle_conn, args=(conn,), daemon=True
            ).start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            with conn:
                fh = conn.makefile("r", encoding="utf-8")
                try:
                    doc = read_doc(fh)
                except WireError as exc:
                    send_doc(conn, {"ok": False, "error": "WireError",
                                    "message": str(exc)})
                    return
                if doc is None:
                    return
                send_doc(conn, self._dispatch(doc))
        except OSError:
            pass  # client went away mid-response

    def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        if doc.get("wire") != WIRE_VERSION:
            return {
                "ok": False,
                "error": "WireError",
                "message": f"wire version {doc.get('wire')!r} != {WIRE_VERSION}",
            }
        op = doc.get("op")
        try:
            if op == "ping":
                return {"ok": True, "wire": WIRE_VERSION, "pid": os.getpid()}
            if op == "submit":
                response = self.submit(JobSpec.from_wire(doc.get("spec")))
                wait_s = doc.get("wait_s")
                if wait_s is not None and response.get("job_id"):
                    return self._wait(response["job_id"], float(wait_s))
                return response
            if op == "status":
                return {"ok": True, "status": self.status()}
            if op == "job":
                job = self.queue.by_id.get(doc.get("job_id", ""))
                if job is None:
                    return {"ok": False, "error": "UnknownJob",
                            "message": f"no job {doc.get('job_id')!r}"}
                return {"ok": True, "job": job.snapshot()}
            if op == "wait":
                return self._wait(doc.get("job_id", ""),
                                  float(doc.get("timeout_s", 60.0)))
            if op == "result":
                fp = doc.get("fingerprint", "")
                cached = self.results.get(fp)
                if cached is None:
                    return {"ok": False, "error": "UnknownResult",
                            "message": f"no stored result for {fp[:16]}..."}
                return {"ok": True, "result": cached}
            if op == "shutdown":
                self._stop.set()
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": "WireError",
                    "message": f"unknown op {op!r}"}
        except ServiceOverloadError as exc:
            return {
                "ok": False,
                "error": "ServiceOverloadError",
                "message": str(exc),
                "tenant": exc.tenant,
                "reason": exc.reason,
            }
        except WireError as exc:
            return {"ok": False, "error": "WireError", "message": str(exc)}
        except Exception as exc:  # typed taxonomy crosses as (type, message)
            return {"ok": False, "error": type(exc).__name__, "message": str(exc)}

    def _wait(self, job_id: str, timeout_s: float) -> Dict[str, Any]:
        job = self.queue.by_id.get(job_id)
        if job is None:
            return {"ok": False, "error": "UnknownJob",
                    "message": f"no job {job_id!r}"}
        if not job.done_event.wait(timeout=timeout_s):
            return {"ok": False, "error": "WaitTimeout",
                    "message": f"job {job_id} still {job.state} "
                               f"after {timeout_s:g}s"}
        return {"ok": True, "job": job.snapshot(), "result": job.result}


def _error_doc(exc: BaseException) -> Dict[str, Any]:
    return {"error": type(exc).__name__, "message": str(exc)}
