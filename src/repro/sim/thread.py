"""Virtual threads.

A :class:`VThread` wraps a generator coroutine plus all scheduler state the
engine needs: run state, the operation currently being executed, per-thread
CPU-time clock, the call stack used for sample attribution, and Coz's two
per-thread delay counters (`coz_local`, `coz_excess`), which the profiler's
:class:`~repro.core.speedup.DelayEngine` owns.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.ops import PushFrame
from repro.sim.sampler import ColumnarBuf
from repro.sim.source import RUNTIME_LINE, SourceLine


class ThreadState(enum.Enum):
    """Scheduler state of a virtual thread."""

    READY = "ready"        # runnable, waiting for a core
    RUNNING = "running"    # executing a chunk on a core
    BLOCKED = "blocked"    # suspended on a sync primitive or join
    SLEEPING = "sleeping"  # timed suspension (sleep, I/O, inserted pause)
    FINISHED = "finished"  # generator exhausted


class VThread:
    """A simulated thread of execution."""

    # thread attributes are read and written on the engine's innermost loop;
    # __slots__ makes those accesses index-based and keeps instances compact
    __slots__ = (
        "tid", "name", "parent", "state", "gen",
        "send_value", "current_op", "activity_remaining", "activity_line",
        "activity_memory_bound", "chunk_start", "chunk_nominal", "chunk_rate",
        "chunk_token", "chain_key", "continuation", "woken_by", "spinning",
        "blocked_on",
        "cpu_ns", "profiler_cpu_ns", "pause_ns", "sample_accum",
        "sample_buffer", "pending_pause_ns", "pending_cpu_ns",
        "stack", "chain_cache", "coz_local", "coz_excess", "joiners",
        "exit_value",
    )

    #: fallback tid source for threads constructed outside an engine (tests);
    #: the engine always passes an explicit per-engine ``tid`` so that thread
    #: ids — and everything downstream of them, like the iteration order of
    #: the running set — do not depend on how many runs this process already
    #: executed
    _COUNTER = 0

    def __init__(
        self,
        body,
        name: Optional[str] = None,
        parent: Optional["VThread"] = None,
        tid: Optional[int] = None,
    ) -> None:
        if tid is None:
            tid = VThread._COUNTER
            VThread._COUNTER += 1
        self.tid = tid
        self.name = name or f"thread-{self.tid}"
        self.parent = parent
        self.state = ThreadState.READY
        self.gen: Generator = body(self)

        # --- scheduler state -------------------------------------------------
        #: value to send into the generator on next advance
        self.send_value: Any = None
        #: the op currently being executed (cost/work in progress)
        self.current_op: Any = None
        #: remaining *nominal* ns of the current activity
        self.activity_remaining: int = 0
        #: source line the current activity is attributed to
        self.activity_line: SourceLine = RUNTIME_LINE
        #: is the current activity subject to interference scaling?
        self.activity_memory_bound: bool = False
        #: chunk bookkeeping: (start_time, nominal_ns, rate) of in-flight chunk
        self.chunk_start: int = 0
        self.chunk_nominal: int = 0
        self.chunk_rate: float = 1.0
        #: token to invalidate stale completion events after a rescale
        self.chunk_token: int = 0
        #: heap tie-break key of the thread's current chunk *chain* (run of
        #: back-to-back chunks since the last dispatch from the ready queue);
        #: 0 = no chain established.  See Engine._push_event.
        self.chain_key: int = 0
        #: what to do when the current activity's time elapses
        self.continuation: Any = None
        #: thread that woke us from the last blocking op (None = timer/IO)
        self.woken_by: Optional["VThread"] = None
        #: is this thread marked as busy-spinning (interference source)?
        self.spinning: bool = False
        #: what the thread is blocked on, for deadlock diagnostics
        self.blocked_on: Optional[str] = None

        # --- accounting -------------------------------------------------------
        #: total nominal on-CPU nanoseconds executed
        self.cpu_ns: int = 0
        #: nominal CPU ns charged by the profiler (sample processing cost)
        self.profiler_cpu_ns: int = 0
        #: total pause ns inserted by the profiler (virtual-speedup delays)
        self.pause_ns: int = 0
        #: per-thread sample accumulator (ns of CPU since last sample)
        self.sample_accum: int = 0
        #: buffered samples awaiting batch processing
        self.sample_buffer: ColumnarBuf = ColumnarBuf()
        #: profiler-requested pause to insert before the thread continues
        self.pending_pause_ns: int = 0
        #: profiler-requested CPU cost to charge before the thread continues
        self.pending_cpu_ns: int = 0

        # --- attribution -------------------------------------------------------
        #: call stack, innermost last: each frame is the (interned)
        #: :class:`~repro.sim.ops.PushFrame` op that entered it
        self.stack: List[PushFrame] = []
        #: memoized callchain() tuple; invalidated by the engine whenever the
        #: activity line or the frame stack changes
        self.chain_cache: Optional[Tuple[SourceLine, ...]] = None

        # --- Coz delay counters (owned by core.speedup.DelayEngine) ------------
        #: pauses this thread executed or was credited (its local count)
        self.coz_local: int = 0
        #: nanosleep overshoot not yet subtracted from a later pause
        self.coz_excess: int = 0

        # --- lifecycle ---------------------------------------------------------
        self.joiners: List["VThread"] = []
        self.exit_value: Any = None

    # -- callchain -------------------------------------------------------------

    def callchain(self) -> Tuple[SourceLine, ...]:
        """Current callchain, innermost line first (like a perf callstack).

        The innermost entry is the line of the activity in flight; outer
        entries are the callsites recorded by :class:`~repro.sim.ops.
        PushFrame` markers.  The tuple is memoized (``chain_cache``); the
        engine clears the cache on PushFrame/PopFrame and whenever the
        activity line changes, so repeated sampling of one activity reuses
        the same tuple object.
        """
        cached = self.chain_cache
        if cached is not None:
            return cached
        chain = [self.activity_line]
        for frame in reversed(self.stack):
            if frame.callsite is not None:
                chain.append(frame.callsite)
        result = tuple(chain)
        self.chain_cache = result
        return result

    def current_func(self) -> str:
        """Name of the innermost function frame ('' at top level)."""
        return self.stack[-1].func if self.stack else ""

    # -- predicates --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state is ThreadState.FINISHED

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.FINISHED

    def __repr__(self) -> str:
        return f"VThread({self.name}, {self.state.value})"

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other: object) -> bool:
        return self is other
