"""Synchronization primitives for virtual threads.

:class:`Mutex`, :class:`CondVar`, :class:`Barrier` and :class:`Semaphore` are
plain state containers; the engine performs their transitions when it
interprets the corresponding ops, so that every blocking and waking edge is
visible to the installed profiler hook (paper Tables 1 and 2).

:class:`Channel` and :class:`SpinBarrier` are *composites* built from the
primitives — a bounded producer/consumer queue (the pipes between pipeline
stages in dedup/ferret) and a PARSEC-style busy-wait barrier whose spin loop
repeatedly calls ``pthread_mutex_trylock``, the pathology behind the
fluidanimate and streamcluster case studies (§4.2.4-4.2.5).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.sim.clock import US
from repro.sim.ops import (
    CondWait,
    Lock,
    SetSpinning,
    Signal,
    TryLock,
    Unlock,
    Work,
)
from repro.sim.source import SourceLine

_ANON = 0


def _anon(prefix: str) -> str:
    global _ANON
    _ANON += 1
    return f"{prefix}-{_ANON}"


class Mutex:
    """A pthread-style mutex (state only; the engine runs the protocol)."""

    __slots__ = ("name", "owner", "waiters", "acquires", "contended_acquires")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or _anon("mutex")
        self.owner = None
        self.waiters: Deque = deque()
        # statistics, for tests and contention reports
        self.acquires = 0
        self.contended_acquires = 0

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def __repr__(self) -> str:
        return f"Mutex({self.name}, owner={getattr(self.owner, 'name', None)})"


class CondVar:
    """A pthread-style condition variable."""

    __slots__ = ("name", "waiters", "signals", "broadcasts")

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or _anon("cond")
        self.waiters: Deque = deque()
        self.signals = 0
        self.broadcasts = 0

    def __repr__(self) -> str:
        return f"CondVar({self.name}, waiters={len(self.waiters)})"


class Barrier:
    """A blocking barrier (pthread_barrier): the last arrival wakes all."""

    __slots__ = ("name", "n", "arrived", "cycles")

    def __init__(self, n: int, name: Optional[str] = None) -> None:
        if n < 1:
            raise ValueError("barrier needs n >= 1")
        self.name = name or _anon("barrier")
        self.n = n
        self.arrived: List = []
        self.cycles = 0

    def __repr__(self) -> str:
        return f"Barrier({self.name}, {len(self.arrived)}/{self.n})"


class Semaphore:
    """A counting semaphore (sem_t)."""

    __slots__ = ("name", "value", "waiters")

    def __init__(self, value: int = 0, name: Optional[str] = None) -> None:
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self.name = name or _anon("sem")
        self.value = value
        self.waiters: Deque = deque()

    def __repr__(self) -> str:
        return f"Semaphore({self.name}, value={self.value})"


class Channel:
    """A bounded FIFO queue built from a mutex and two condition variables.

    Producers block when full, consumers block when empty — the classic
    pipeline pipe.  ``None`` is a valid item; use :meth:`close` plus the
    ``CLOSED`` sentinel to signal end-of-stream to consumers.
    """

    #: sentinel returned by :meth:`get` once the channel is closed and empty
    CLOSED = object()

    def __init__(self, capacity: int, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name or _anon("chan")
        self.capacity = capacity
        self.items: Deque = deque()
        self.mutex = Mutex(f"{self.name}.mutex")
        self.not_empty = CondVar(f"{self.name}.not_empty")
        self.not_full = CondVar(f"{self.name}.not_full")
        self.closed = False
        self.total_put = 0
        self.total_got = 0
        # source line -> this channel's sync ops on it (see _ops)
        self._line_ops: dict = {}

    def _ops(self, line: Optional[SourceLine]) -> tuple:
        """``(lock, unlock, wait_not_full, wait_not_empty, signal_not_empty,
        signal_not_full)`` on ``line``: built on the first call from each
        line and yielded again by every later one (ops are immutable)."""
        ops = self._line_ops.get(line)
        if ops is None:
            mutex = self.mutex
            ops = self._line_ops[line] = (
                Lock(mutex, line),
                Unlock(mutex, line),
                CondWait(self.not_full, mutex, line),
                CondWait(self.not_empty, mutex, line),
                Signal(self.not_empty, line),
                Signal(self.not_full, line),
            )
        return ops

    def put(self, item: Any, line: Optional[SourceLine] = None) -> Generator:
        """``yield from chan.put(x)`` — block while the channel is full."""
        lock, unlock, wait_not_full, _, signal_not_empty, _ = self._ops(line)
        yield lock
        while len(self.items) >= self.capacity and not self.closed:
            yield wait_not_full
        if self.closed:
            yield unlock
            raise RuntimeError(f"put() on closed channel {self.name}")
        self.items.append(item)
        self.total_put += 1
        yield signal_not_empty
        yield unlock

    def get(self, line: Optional[SourceLine] = None) -> Generator:
        """``yield from chan.get()`` — returns an item or ``Channel.CLOSED``."""
        lock, unlock, _, wait_not_empty, signal_not_empty, signal_not_full = (
            self._ops(line)
        )
        yield lock
        while not self.items and not self.closed:
            yield wait_not_empty
        if self.items:
            item = self.items.popleft()
            self.total_got += 1
            yield signal_not_full
        else:  # closed and drained
            item = Channel.CLOSED
            # let any other blocked consumer observe the close too
            yield signal_not_empty
        yield unlock
        return item

    def close(self, line: Optional[SourceLine] = None) -> Generator:
        """Mark end-of-stream and wake all blocked consumers/producers."""
        lock, unlock, _, _, signal_not_empty, signal_not_full = self._ops(line)
        yield lock
        self.closed = True
        # Broadcast via the engine op would be natural; signal chains also
        # work because get() re-signals on observing the close.
        yield signal_not_empty
        yield signal_not_full
        yield unlock

    def __len__(self) -> int:
        return len(self.items)


class SpinBarrier:
    """A busy-wait barrier modelled on PARSEC's ``parsec_barrier.cpp``.

    Threads that arrive early spin in a loop that calls
    ``pthread_mutex_trylock`` on the barrier's mutex to poll the generation
    counter.  The spin loop:

    * burns CPU on ``spin_line`` (so a causal profiler sees a *hot* line and
      inserts many delays in other threads when it is selected — producing
      the downward-sloping profile of Figure 8), and
    * marks the thread as spinning, raising the engine's interference level,
      which slows memory-bound work elsewhere (the cache-coherence traffic
      that makes the real barrier so costly).
    """

    def __init__(
        self,
        n: int,
        spin_line: SourceLine,
        lock_line: Optional[SourceLine] = None,
        spin_iter_ns: int = US(2),
        trylock_spin: bool = True,
        name: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise ValueError("barrier needs n >= 1")
        self.name = name or _anon("spinbarrier")
        self.n = n
        self.spin_line = spin_line
        self.lock_line = lock_line or spin_line
        self.spin_iter_ns = spin_iter_ns
        #: poll with pthread_mutex_trylock (parsec_barrier style) or with a
        #: plain flag read (ad-hoc synchronization, invisible to a profiler)
        self.trylock_spin = trylock_spin
        self.mutex = Mutex(f"{self.name}.mutex")
        self.generation = 0
        self.arrived = 0
        self.total_spin_iters = 0

    def wait(self) -> Generator:
        """``yield from spin_barrier.wait()`` — returns True for the last arrival."""
        yield Lock(self.mutex, self.lock_line)
        my_gen = self.generation
        self.arrived += 1
        if self.arrived == self.n:
            self.arrived = 0
            self.generation += 1
            yield Unlock(self.mutex, self.lock_line)
            return True
        yield Unlock(self.mutex, self.lock_line)

        # Busy-wait for the generation to advance.  Like parsec_barrier.cpp,
        # the flag check happens while *holding* the trylock'd mutex, so the
        # barrier's own bookkeeping (the last arrival's Lock above) must
        # queue behind spinners — the contention Coz exposes in Figure 8.
        yield SetSpinning(True)
        try:
            while self.generation == my_gen:
                self.total_spin_iters += 1
                if self.trylock_spin:
                    got = yield TryLock(self.mutex, self.spin_line)
                    if got:
                        yield Work(self.spin_line, self.spin_iter_ns)
                        yield Unlock(self.mutex, self.spin_line)
                    else:
                        yield Work(self.spin_line, self.spin_iter_ns)
                else:
                    yield Work(self.spin_line, self.spin_iter_ns)
        finally:
            yield SetSpinning(False)
        return False


class SpinMutex:
    """A busy-wait mutex: trylock in a loop instead of blocking.

    Used by the memcached model for its striped item locks: waiters burn CPU
    on ``spin_line`` and raise the interference level, so a causal profiler
    sees a hot line whose virtual speedup *hurts* — the contention signature
    of §4.2.6.
    """

    def __init__(
        self,
        spin_line: SourceLine,
        spin_iter_ns: int = US(1),
        name: Optional[str] = None,
    ) -> None:
        self.name = name or _anon("spinmutex")
        self.mutex = Mutex(f"{self.name}.inner")
        self.spin_line = spin_line
        self.spin_iter_ns = spin_iter_ns
        self.total_spin_iters = 0

    def lock(self, line: Optional[SourceLine] = None) -> Generator:
        got = yield TryLock(self.mutex, line or self.spin_line)
        if got:
            return
        yield SetSpinning(True)
        try:
            while True:
                self.total_spin_iters += 1
                yield Work(self.spin_line, self.spin_iter_ns)
                got = yield TryLock(self.mutex, self.spin_line)
                if got:
                    return
        finally:
            yield SetSpinning(False)

    def unlock(self, line: Optional[SourceLine] = None) -> Generator:
        yield Unlock(self.mutex, line)
