"""The daemon's job model and thread-safe queue with in-flight dedup.

A :class:`Job` is one unit of profiling work keyed by its canonical
fingerprint (:func:`~repro.harness.service.wire.job_fingerprint`).  The
queue indexes *active* (queued or running) jobs by fingerprint so a
duplicate submission — same work, any tenant — coalesces onto the
existing job instead of executing twice: the duplicate's tenant is added
to the job's subscriber list and both submissions resolve when the one
execution finishes.

States move strictly forward::

    queued -> running -> done | degraded | failed | shed

``done`` is a clean full-session result, ``degraded`` a completed session
with recorded run failures (chaos tenants get their partial truth, not an
exception), ``failed`` an error before any result existed, and ``shed`` a
deadline-expired job returned as a partial.  Terminal states set
``done_event`` so waiters (``repro submit --wait``) unblock.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness.service.wire import JobSpec

__all__ = ["Job", "JobQueue"]


@dataclass
class Job:
    """One fingerprinted unit of profiling work and its lifecycle."""

    job_id: str
    fingerprint: str
    spec: JobSpec
    state: str = "queued"
    #: every tenant whose submission coalesced onto this execution
    tenants: List[str] = field(default_factory=list)
    #: submissions beyond the first that coalesced here (dedup hits)
    dedup_count: int = 0
    #: monotonic clock reading at submit (queue-latency accounting)
    submitted_monotonic: float = 0.0
    #: absolute ``time.monotonic()`` deadline (None = no deadline); expired
    #: while queued = shed, expired while running = partial result
    deadline_monotonic: Optional[float] = None
    #: wall seconds spent queued before a worker picked the job up
    queue_latency_s: Optional[float] = None
    #: wall seconds the session executed (None until terminal)
    execute_s: Optional[float] = None
    #: re-enqueued from the queue journal after a daemon restart
    recovered: bool = False
    #: terminal result document (wire-shaped; see ResultStore)
    result: Optional[Dict[str, Any]] = None
    #: terminal error, as ``{"error": <type>, "message": <str>}``
    error: Optional[Dict[str, Any]] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def finish(self, state: str, result: Optional[Dict[str, Any]] = None,
               error: Optional[Dict[str, Any]] = None) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.done_event.set()

    def snapshot(self) -> Dict[str, Any]:
        """Status-document view of the job (no result payload)."""
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "tenants": list(self.tenants),
            "dedup_count": self.dedup_count,
            "queue_latency_s": self.queue_latency_s,
            "execute_s": self.execute_s,
            "recovered": self.recovered,
            "error": self.error,
        }


class JobQueue:
    """FIFO of :class:`Job`\\ s with fingerprint-keyed in-flight dedup.

    All mutation happens under one condition variable; workers block in
    :meth:`take` until a job (or shutdown) arrives.  ``by_fingerprint``
    holds only *active* jobs — a terminal job leaves the index, so the
    same work submitted later is a result-store hit, not a coalesce.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._fifo: deque = deque()
        self._closed = False
        self.by_id: Dict[str, Job] = {}
        self.by_fingerprint: Dict[str, Job] = {}
        self._seq = 0

    def next_job_id(self, fingerprint: str) -> str:
        with self._cond:
            self._seq += 1
            return f"j{self._seq:04d}-{fingerprint[:10]}"

    def active(self, fingerprint: str) -> Optional[Job]:
        """The queued-or-running job for this fingerprint, if any."""
        with self._cond:
            return self.by_fingerprint.get(fingerprint)

    def reserve(self, job: Job) -> None:
        """Register a job in the dedup indexes without making it runnable.

        The daemon reserves inside its admission critical section — after
        the ``active()`` check, before releasing its state lock — so a
        concurrent duplicate submission coalesces onto this job instead of
        enqueueing a second execution while the queue journal is still
        being fsync'd.  :meth:`enqueue` (called once the journal record is
        durable) hands the job to the workers.
        """
        with self._cond:
            self.by_id[job.job_id] = job
            self.by_fingerprint[job.fingerprint] = job

    def enqueue(self, job: Job) -> None:
        """Make a reserved job runnable (workers may now take it)."""
        with self._cond:
            self._fifo.append(job)
            self._cond.notify()

    def unreserve(self, job: Job) -> None:
        """Roll back a reservation whose submission failed before enqueue."""
        with self._cond:
            if self.by_fingerprint.get(job.fingerprint) is job:
                del self.by_fingerprint[job.fingerprint]
            self.by_id.pop(job.job_id, None)

    def put(self, job: Job) -> None:
        self.reserve(job)
        self.enqueue(job)

    def retire(self, job: Job) -> None:
        """Drop the job's dedup index entry ahead of settling it.

        The daemon retires inside the same critical section that unwinds
        the job's tenant quota accounting, so no submission can coalesce
        onto a job whose active counts have already been decremented (the
        coalesce would increment a count nothing would ever decrement).
        """
        with self._cond:
            if self.by_fingerprint.get(job.fingerprint) is job:
                del self.by_fingerprint[job.fingerprint]

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the next queued job; ``None`` on shutdown/timeout."""
        with self._cond:
            while not self._fifo and not self._closed:
                if not self._cond.wait(timeout=timeout):
                    return None
            if self._fifo:
                job = self._fifo.popleft()
                job.state = "running"
                return job
            return None

    def settle(self, job: Job, state: str,
               result: Optional[Dict[str, Any]] = None,
               error: Optional[Dict[str, Any]] = None) -> None:
        """Move a job to a terminal state and drop its dedup index entry."""
        with self._cond:
            job.finish(state, result=result, error=error)
            if self.by_fingerprint.get(job.fingerprint) is job:
                del self.by_fingerprint[job.fingerprint]

    def close(self) -> None:
        """Wake all blocked workers for shutdown."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._fifo)

    @property
    def running(self) -> int:
        with self._cond:
            return sum(1 for j in self.by_fingerprint.values() if j.state == "running")

    def jobs(self) -> List[Job]:
        with self._cond:
            return list(self.by_id.values())
