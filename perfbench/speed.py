"""Host-speed gauge: timings expressed at the host's reference speed.

The benchmark runs in a small VM on a shared host.  Neighbours on the
host slow its vCPUs by 1.3x to 2.3x for stretches of a fraction of a
second to tens of minutes: the same instructions just take longer, and at
times the vCPU is not run at all (steal time, which the guest does not
charge to the thread's CPU time).  Code that reads memory far apart slows
more than code that stays in the nearest caches.  Wall times of identical
work then spread by far more than any regression worth catching.

The gauge measures the slowdown while the work runs.  Every
:data:`PERIOD_S` an interval timer interrupts the main thread, which runs
a fixed pure-Python probe and records its wall time.  The probe mixes the
two kinds of work the interpreter does in a simulation: a loop of integer
arithmetic that stays in the nearest caches, and reads of a float table
of several MiB in a fixed random order.  Their mix, about 70:30 in time
on an unloaded host, was chosen so the probe slows like the benchmark's
sessions do: on a heavily loaded stretch the arithmetic alone slowed
1.8x, the table reads about 2.9x, cold sqlite sessions 2.3x and warm
ferret sessions 2.1x.

A probe during which the guest switched the thread out (read from the
thread's ``schedstat``: another of the benchmark's processes took the
CPU, or the thread gave up the interpreter lock) measured the guest's
scheduler, not the host, and is dropped.  The probe is the benchmark's own
code, so it costs the same on every commit of the program.  A duration is
then reported at reference speed::

    reference_s = wall_s * mean(REF_PROBE_NS / probe_ns)

over the probes taken during that wall interval (at least
:data:`MIN_PROBES`, the nearest ones in time when the interval is short),
which is the work's wall time had every probe taken :data:`REF_PROBE_NS`.
Time spent in ``os.fsync`` (the profiling daemon's journals and result
store) is the exception: the gauge times every fsync while it runs and
scales that part of an interval by the disk's speed instead, the median
of the nearest :data:`MIN_FSYNCS` fsyncs against :data:`REF_FSYNC_S`.
The reference is set so that sessions timed on a loaded stretch read what
they took in wall time on unloaded stretches of the same host.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import random
import signal
import threading
import time
from typing import Iterator, List, Optional, Tuple

#: seconds between probes
PERIOD_S = 0.05
#: arithmetic iterations per probe (~0.6 ms on an unloaded host)
PROBE_ITERS = 10_000
#: table reads per probe (~0.25 ms on an unloaded host)
PROBE_READS = 1_500
#: the table, and the fixed random order it is read in
_rng = random.Random(0)
TABLE = [_rng.random() for _ in range(1 << 17)]
ORDER = [_rng.randrange(len(TABLE)) for _ in range(1 << 15)]
#: the probe's wall time at reference speed: about an unloaded stretch of
#: a 2-vCPU Intel Xeon VM (Python 3.11); see the module docstring
REF_PROBE_NS = 850_000
#: probes behind every factor; short intervals borrow their neighbours'
MIN_PROBES = 10
#: an ``fsync`` at reference speed: the median of the service daemon's
#: journal and result-store fsyncs on an unloaded stretch of the same VM
REF_FSYNC_S = 0.0004
#: fsyncs behind every disk factor
MIN_FSYNCS = 20
#: share of probes dropped at each end before averaging (a probe that
#: paid for a cache refill after a long stretch of other work)
TRIM = 0.1


def probe_ns(start: int, schedstat: Optional[int] = None) -> Optional[int]:
    """Wall nanoseconds the fixed probe takes right now, reading the table
    from ``ORDER[start]`` on, or None if the thread whose ``schedstat``
    file is open as ``schedstat`` was switched out meanwhile (its third
    field counts switch-ins)."""
    before = os.pread(schedstat, 128, 0).split()[2] if schedstat is not None else b""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    total = 0.0
    for j in ORDER[start:start + PROBE_READS]:
        total += TABLE[j]
    ns = time.perf_counter_ns() - t0
    after = os.pread(schedstat, 128, 0).split()[2] if schedstat is not None else b""
    return ns if after == before else None


class Gauge:
    """Probes the host's speed in the background of the main thread.

    Use as ``with gauge.running(): ...``; :meth:`reference_s` converts any
    ``perf_counter`` interval inside that block.  A disabled gauge (traced
    runs, whose timings are not reported) takes no probes and reads wall
    time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.stamps: List[float] = []
        self.probes: List[int] = []
        #: probes dropped because the thread was switched out
        self.dropped = 0
        #: ``perf_counter`` (end, start) of every ``os.fsync`` call, from
        #: any thread, in the order they were recorded
        self.fsyncs: List[Tuple[float, float]] = []
        self._schedstat: Optional[int] = None
        self._busy = False
        self._start = 0

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fired inside a stalled probe
            return
        self._busy = True
        try:
            ns = probe_ns(self._start, self._schedstat)
        finally:
            self._busy = False
        self._start = (self._start + PROBE_READS) % (len(ORDER) - PROBE_READS)
        if ns is None:
            self.dropped += 1
            return
        self.stamps.append(time.perf_counter())
        self.probes.append(ns)

    @contextlib.contextmanager
    def running(self) -> Iterator["Gauge"]:
        if not self.enabled:
            yield self
            return
        path = f"/proc/self/task/{threading.get_native_id()}/schedstat"
        try:
            self._schedstat = os.open(path, os.O_RDONLY)
        except OSError:  # no scheduler statistics: keep every probe
            self._schedstat = None
        real_fsync = os.fsync

        def timed_fsync(fd):
            t0 = time.perf_counter()
            try:
                return real_fsync(fd)
            finally:
                self.fsyncs.append((time.perf_counter(), t0))

        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        os.fsync = timed_fsync
        try:
            self._tick(signal.SIGALRM, None)
            yield self
        finally:
            os.fsync = real_fsync
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if self._schedstat is not None:
                os.close(self._schedstat)
                self._schedstat = None

    @staticmethod
    def _nearest(stamps: List[float], t0: float, t1: float, least: int) -> Tuple[int, int]:
        """Index range of the stamps inside ``[t0, t1]``, widened towards
        the nearer neighbour until it holds ``least`` (or all) of them."""
        lo = bisect.bisect_left(stamps, t0)
        hi = bisect.bisect_right(stamps, t1)
        while hi - lo < min(least, len(stamps)):
            before = t0 - stamps[lo - 1] if lo > 0 else float("inf")
            after = stamps[hi] - t1 if hi < len(stamps) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def cpu_factor(self, t0: float, t1: float) -> float:
        """Mean host speed over ``[t0, t1]`` relative to the reference."""
        lo, hi = self._nearest(self.stamps, t0, t1, MIN_PROBES)
        window = sorted(self.probes[lo:hi])
        if not window:
            raise RuntimeError("the speed gauge took no probes")
        cut = int(len(window) * TRIM)
        kept = window[cut:len(window) - cut]
        return sum(REF_PROBE_NS / ns for ns in kept) / len(kept)

    def reference_s(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` in seconds at reference speed.

        Time spent in ``fsync`` inside the interval is scaled by the disk's
        speed instead of the CPU's: the median of the nearest fsyncs
        against :data:`REF_FSYNC_S`.
        """
        if not self.enabled:
            return t1 - t0
        fsyncs = sorted(self.fsyncs)
        ends = [end for end, _ in fsyncs]
        # the part of each fsync that ends inside the interval
        lo = bisect.bisect_left(ends, t0)
        hi = bisect.bisect_right(ends, t1)
        io_s = min(t1 - t0, sum(end - max(start, t0) for end, start in fsyncs[lo:hi]))
        ref = (t1 - t0 - io_s) * self.cpu_factor(t0, t1)
        if io_s > 0:
            lo, hi = self._nearest(ends, t0, t1, MIN_FSYNCS)
            durations = sorted(end - start for end, start in fsyncs[lo:hi])
            ref += io_s * REF_FSYNC_S / durations[len(durations) // 2]
        return ref

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over ``[t0, t1]``."""
        if not self.enabled:
            return 1.0
        return self.reference_s(t0, t1) / (t1 - t0) if t1 > t0 else self.cpu_factor(t0, t1)

    def summary(self) -> Tuple[int, int, float]:
        """Probes kept, probes dropped and the median probe (ns), for the
        log."""
        xs = sorted(self.probes)
        return len(xs), self.dropped, float(xs[len(xs) // 2]) if xs else 0.0
