"""Profiler hook and observer interfaces.

The engine exposes two integration surfaces:

* :class:`ProfilerHook` — the single *active* profiler (Coz).  It may inject
  behaviour: pauses before/after scheduling edges and extra CPU cost for
  sample processing.  This is the moral equivalent of Coz's LD_PRELOAD
  runtime: it sees every sample batch, every blocking/waking call, thread
  creation/exit, and progress-point visits.

* :class:`Observer` — passive listeners (gprof/perf baselines, metrics
  collectors).  They receive events but cannot perturb execution, except for
  a fixed per-call instrumentation cost the engine charges on their behalf
  (``call_overhead_ns``), which is how the gprof baseline models its probe
  effect.

* :class:`AuditHook` — the invariant-audit callback surface.  The delay
  engine and the profiler narrate every delay-accounting event (hits
  credited, pauses paid, credits granted, experiment boundaries) to an
  attached audit hook, which cross-checks the bookkeeping algebra
  (:mod:`repro.core.audit`).  Audit hooks are strictly observational: they
  must not draw randomness, charge cost, or touch scheduling, so attaching
  one can never change a profiling result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sampler import ColumnarBuf, Sample
    from repro.sim.source import SourceLine
    from repro.sim.thread import VThread


@dataclass
class HookAction:
    """What a profiler asks the engine to do after a sample batch.

    ``pause_ns``  — take the thread off-CPU for this long (delay insertion).
    ``cpu_ns``    — charge this much on-CPU time (sample-processing cost;
                    this is profiler-induced *overhead*, visible in wall
                    time but attributed to the runtime pseudo-line).
    """

    pause_ns: int = 0
    cpu_ns: int = 0


NO_ACTION = HookAction()


class ProfilerHook:
    """Base class for the active profiler. Every method is optional."""

    def attach(self, engine) -> None:
        """Called when installed on an engine, before the run starts."""

    def on_run_start(self, engine) -> None:
        """Called at virtual time zero, before the main thread runs."""

    def on_run_end(self, engine) -> None:
        """Called when the simulation finishes."""

    def on_thread_created(self, thread: "VThread", parent: Optional["VThread"]) -> None:
        """A thread was spawned (parent is None for the main thread)."""

    def on_thread_exit(self, thread: "VThread") -> None:
        """A thread's generator finished (after its pre-exit delays ran)."""

    def on_samples(self, thread: "VThread", samples: "ColumnarBuf") -> HookAction:
        """A batch of IP samples from ``thread`` is ready for processing.

        Called in the context of the sampled thread at a chunk boundary,
        exactly like Coz processing its perf_event ring buffer.  The returned
        action is applied to the thread before it continues.  ``samples``
        is a :class:`~repro.sim.sampler.ColumnarBuf`: it has ``len`` and
        iterates as :class:`~repro.sim.sampler.Sample` tuples, and its
        run-length segments can be read directly without expanding them.
        """
        return NO_ACTION

    def before_block(self, thread: "VThread") -> int:
        """Thread is about to execute a potentially blocking call (Table 2).

        Return pause ns to insert *before* the call (pending delays).
        """
        return 0

    def before_wake_op(self, thread: "VThread") -> int:
        """Thread is about to execute a potentially waking call (Table 1).

        Return pause ns to insert *before* the call (pending delays).
        """
        return 0

    def on_unblock(self, thread: "VThread", waker: Optional["VThread"]) -> int:
        """Thread resumed from a blocking op.

        ``waker`` is the thread responsible (credit its delays — return 0 and
        skip), or ``None`` for timed wakeups (sleep/IO) where accumulated
        delays must be paid: return the pause ns to insert now.
        """
        return 0

    def on_progress(self, thread: "VThread", name: str) -> None:
        """Thread visited a source-level progress point."""

    def on_line_visit(self, thread: "VThread", line: "SourceLine") -> None:
        """Thread began executing a Work op on a registered breakpoint line.

        Only fired for lines previously registered via
        ``engine.watch_line(line)`` (breakpoint progress points).
        """


class AuditHook:
    """Callback surface for the delay-accounting invariant audit.

    The :class:`~repro.core.speedup.DelayEngine` reports every counter
    mutation; the :class:`~repro.core.profiler.CausalProfiler` reports run
    boundaries.  Implementations (see
    :class:`repro.core.audit.DelayAuditor`) rebuild the accounting from
    these events alone and compare against what the profiler booked, so a
    leak in either place shows up as a disagreement.

    Every method is optional, and none may perturb the run.
    """

    def on_delay_begin(self, delays, delay_ns: int, threads: List["VThread"]) -> None:
        """An experiment's delay protocol started (``begin``)."""

    def on_delay_hits(self, thread: "VThread", hits: int) -> None:
        """``hits`` self-credited samples were added to a thread's local count."""

    def on_delay_pause(
        self, thread: "VThread", count_delta: int, required_ns: int, inserted_ns: int
    ) -> None:
        """A thread caught up with the global count by pausing.

        ``count_delta`` delays were owed; ``required_ns`` is the nominal
        pause (count x delay) and ``inserted_ns`` the pause actually taken
        after nanosleep excess/jitter adjustment.
        """

    def on_delay_credit(self, thread: "VThread", count_delta: int) -> None:
        """A thread was credited ``count_delta`` delays without pausing."""

    def on_delay_inherit(self, thread: "VThread", local_count: int) -> None:
        """A new thread started with an inherited local count (§3.4)."""

    def on_delay_end(self, count: int, delay_ns: int) -> None:
        """The delay protocol stopped (``end``) with this final global count.

        Fires for *every* ``end`` — completed and partial experiments alike —
        so the audit's per-run expected delay total is independent of the
        profiler's own bookkeeping.
        """

    def on_profiler_run_end(self, profiler, engine) -> None:
        """The profiler finished recording a run's :class:`RunInfo`."""


class Observer:
    """Base class for passive listeners. Every method is optional."""

    #: CPU ns the engine charges to a thread on every PushFrame while this
    #: observer is installed (gprof's per-call instrumentation overhead).
    call_overhead_ns: int = 0

    def on_run_start(self, engine) -> None: ...

    def on_run_end(self, engine) -> None: ...

    def on_thread_created(self, thread: "VThread", parent: Optional["VThread"]) -> None: ...

    def on_thread_exit(self, thread: "VThread") -> None: ...

    def on_sample(self, sample: "Sample") -> None:
        """One IP sample was taken (before batch processing)."""

    def on_sample_batch(self, batch: "ColumnarBuf") -> None:
        """A flushed sample batch (observers that set ``wants_samples``).

        ``batch`` is a :class:`~repro.sim.sampler.ColumnarBuf`.  The
        default forwards each sample to :meth:`on_sample` (iterating the
        buffer materializes it); override to aggregate per segment.
        """
        for s in batch:
            self.on_sample(s)

    def on_call(self, thread: "VThread", func: str, caller: str) -> None:
        """Thread entered ``func`` from ``caller`` (PushFrame)."""

    def on_work(self, thread: "VThread", line: "SourceLine", func: str, nominal_ns: int) -> None:
        """Exact accounting: ``nominal_ns`` of CPU ran on ``line``/``func``."""

    def on_progress(self, thread: "VThread", name: str) -> None: ...

    def on_block(self, thread: "VThread", obj: object) -> None:
        """``thread`` suspended on a synchronization object.

        ``obj`` is the primitive it blocked on — a :class:`~repro.sim.sync.
        Mutex`, :class:`~repro.sim.sync.CondVar`, :class:`~repro.sim.sync.
        Barrier`, :class:`~repro.sim.sync.Semaphore`, or the joined
        :class:`~repro.sim.thread.VThread`.  Timed suspensions (sleep, I/O,
        profiler-inserted pauses) are *not* blocking edges and never fire
        this.  Only observers that override :meth:`on_block` or
        :meth:`on_unblock` pay the (purely observational) notification cost;
        the engine's scheduling is unchanged either way.
        """

    def on_unblock(
        self, thread: "VThread", waker: Optional["VThread"], blocked_ns: int
    ) -> None:
        """``thread`` resumed from a blocking edge after ``blocked_ns``.

        ``waker`` is the thread whose waking op (Table 1) released it — the
        unlocker, signaller, last barrier arrival, semaphore poster, or
        exiting joinee.  Every :meth:`on_block` is matched by exactly one
        :meth:`on_unblock` (threads never finish blocked; deadlocks abort
        the run), and at notification time the waker's callchain still
        points at its waking call site — which is how the GAPP baseline
        attributes serialization to lock-holder code.
        """
