"""The simulated instruction set.

A virtual thread body is a Python generator that *yields* operation objects;
the engine interprets each one, advances virtual time, and ``send()``s the
operation's result back into the generator.  A thread body therefore reads
like ordinary threaded code::

    def worker(rt):
        yield Work(line("worker.c:10"), US(50))       # on-CPU computation
        yield Lock(table_mutex)                        # may block
        yield Work(line("worker.c:12"), US(5))
        yield Unlock(table_mutex)
        yield Progress("request-done")                 # progress point

Operations are split into the categories Coz cares about (paper Tables 1-2):

* **blocking** ops can suspend the thread waiting on another thread
  (``Lock``, ``CondWait``, ``BarrierWait``, ``Join``, ``SemWait``) — a
  profiler must execute pending delays *before* these, and credit delays
  after being woken by another thread;
* **waking** ops can resume a suspended thread (``Unlock``, ``Signal``,
  ``Broadcast``, ``BarrierWait``, ``SemPost``, thread exit) — a profiler
  must execute pending delays *before* these;
* **timed** suspensions (``Sleep``, ``IO``) where the thread is *not* woken
  by a peer, so accumulated delays are paid after resuming.

Ops are immutable values: the engine, the profiler and the checkpoint
recorder only ever read them, so one op object may be yielded any number of
times, by any number of threads, in any number of runs.  App models rely on
this to build their constant ops once per program and yield the same object
from every loop iteration (``push_frame`` and ``POP_FRAME`` are the shared
frame markers)::

    step = Work(line("worker.c:10"), US(50))
    enter, leave = push_frame("step"), POP_FRAME

    def worker(rt):
        for _ in range(n):
            yield enter
            yield step
            yield leave
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple

from repro.sim.source import SourceLine


class Op:
    """Base class for everything a thread generator may yield."""


    #: does this op potentially suspend the thread waiting on a peer?
    blocking = False
    #: does this op potentially wake a suspended peer?
    waking = False


@dataclass(slots=True)
class Work(Op):
    """Execute on a CPU for ``duration`` nominal nanoseconds.

    ``line`` is the source line the instruction pointer sits on for the whole
    duration (samples taken during this op attribute to it).

    ``memory_bound`` work is subject to the engine's interference model: its
    real duration is scaled by ``1 + coeff * interference_level``, modelling
    cache-coherence traffic caused by spinning threads.
    """


    line: SourceLine
    duration: int
    memory_bound: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative work duration: {self.duration}")


@dataclass(slots=True)
class Lock(Op):
    """Acquire a mutex, blocking if held (pthread_mutex_lock)."""

    blocking = True

    mutex: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class TryLock(Op):
    """Try to acquire a mutex; never blocks; result is True/False."""


    mutex: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class Unlock(Op):
    """Release a mutex, waking one waiter (pthread_mutex_unlock)."""

    waking = True

    mutex: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class CondWait(Op):
    """Wait on a condition variable; atomically releases ``mutex``."""

    blocking = True
    waking = True  # releasing the mutex can wake a lock waiter

    cond: Any
    mutex: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class Signal(Op):
    """Wake one condition-variable waiter (pthread_cond_signal)."""

    waking = True

    cond: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class Broadcast(Op):
    """Wake all condition-variable waiters (pthread_cond_broadcast)."""

    waking = True

    cond: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class BarrierWait(Op):
    """Wait at a barrier; the last arrival wakes everyone.

    Result is ``True`` for the serial (last-arriving) thread, like
    ``PTHREAD_BARRIER_SERIAL_THREAD``.
    """

    blocking = True
    waking = True

    barrier: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class SemWait(Op):
    """Decrement a semaphore, blocking at zero (sem_wait)."""

    blocking = True

    sem: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class SemPost(Op):
    """Increment a semaphore, waking one waiter (sem_post)."""

    waking = True

    sem: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class Join(Op):
    """Wait for another thread to finish (pthread_join)."""

    blocking = True

    thread: Any
    line: Optional[SourceLine] = None


@dataclass(slots=True)
class Sleep(Op):
    """Leave the CPU for ``duration`` ns (timed suspension, nanosleep)."""


    duration: int


@dataclass(slots=True)
class IO(Op):
    """Block on I/O for ``duration`` ns.

    Like ``Sleep`` for scheduling purposes, but kept distinct so workloads
    and tests can distinguish device waits from voluntary sleeps.
    """


    duration: int


@dataclass(slots=True)
class Spawn(Op):
    """Create a new thread running ``body``; result is the new VThread.

    ``body`` is a callable taking the new thread's :class:`~repro.sim.thread.
    VThread` and returning a generator.
    """


    body: Callable[[Any], Generator]
    name: Optional[str] = None


@dataclass(slots=True)
class Progress(Op):
    """Visit a named progress point (the COZ_PROGRESS macro)."""


    name: str


@dataclass(slots=True)
class PushFrame(Op):
    """Enter a function: push (func, line-of-callsite) on the call stack.

    Used for callchain attribution (§3.4.2) and by the gprof baseline for
    call counting.  Zero virtual cost unless an observer charges
    instrumentation overhead.
    """


    func: str
    callsite: Optional[SourceLine] = None


@dataclass(slots=True)
class PopFrame(Op):
    """Leave the current function frame."""


#: the one ``PopFrame`` every frame exit yields
POP_FRAME = PopFrame()

_push_frames: dict = {}


def push_frame(func: str, callsite: Optional[SourceLine] = None) -> PushFrame:
    """The interned :class:`PushFrame` for ``(func, callsite)``.

    Meant for the fixed function names of a program's call sites: app
    models call it once per call site when they build their ops.
    """
    key = (func, callsite)
    op = _push_frames.get(key)
    if op is None:
        op = _push_frames[key] = PushFrame(func, callsite)
    return op


@dataclass(slots=True)
class SetSpinning(Op):
    """Mark this thread as busy-spinning (or not).

    Spinning threads raise the engine's global interference level, which
    slows down ``memory_bound`` work in other threads — the cache-coherence
    pathology behind the fluidanimate/streamcluster barrier case studies.
    """


    spinning: bool


def call(func: str, gen: Generator, callsite: Optional[SourceLine] = None) -> Generator:
    """Run ``gen`` inside a named call frame.

    Use as ``result = yield from call("hashtable_search", search(...))`` so
    samples taken inside ``gen`` carry the enclosing function on their
    callchain and the gprof baseline can count the call.
    """
    yield push_frame(func, callsite)
    try:
        result = yield from gen
    except GeneratorExit:
        # the run was abandoned mid-call (errored or faulted engine);
        # yielding the frame pop here would be illegal, and the frame
        # bookkeeping is moot
        raise
    except BaseException:
        yield POP_FRAME
        raise
    yield POP_FRAME
    return result


#: Op classes a profiler must intercept before they may block (paper Table 2).
BLOCKING_OPS: Tuple[type, ...] = (Lock, CondWait, BarrierWait, SemWait, Join)

#: Op classes a profiler must intercept before they may wake a peer (Table 1).
WAKING_OPS: Tuple[type, ...] = (Unlock, Signal, Broadcast, BarrierWait, SemPost, CondWait)
