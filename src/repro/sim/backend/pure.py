"""The pure-Python engine event loop (reference backend).

This is the engine's inner loop verbatim — it lived on
:class:`repro.sim.engine.Engine` before the backend split and is the
semantic ground truth the compiled core must reproduce bit for bit.  It
operates on the engine's public/underscore state exactly as the methods it
cooperates with (``_drive``, ``_dispatch``, ``_deliver_batch``, …) expect.
"""

from __future__ import annotations

import heapq

from repro.sim.engine import (
    _EV_CHUNK,
    _EV_OVERHEAD,
    _EV_PAUSE,
    _EV_SLEEP,
    BLOCKED,
    READY,
    RUNNING,
    SLEEPING,
)


def event_loop(engine) -> None:
    """Run the event loop to completion (or error) on ``engine``."""
    self = engine
    max_ns = self.cfg.max_virtual_ns
    heap = self._heap
    pop = heapq.heappop
    # Loop-invariant hoists: sampling/observer wiring is fixed once the
    # run has started (on_run_start is the last chance to change it), and
    # the ready/running containers are mutated in place.
    ready = self.ready
    running = self.running
    observers = self.observers
    sampler = self.sampler
    period_ns = sampler.period_ns
    batch_size = sampler.batch_size
    sampling_live = self._sampling_live
    coalesce = self._coalesce
    snap_next = self._snap_next
    events = 0
    while self._alive:
        if not heap:
            self.events_processed += events
            events = 0
            self._raise_deadlock()
        if snap_next is not None and heap[0][0] >= snap_next:
            # virtual time is about to cross a checkpoint-grid boundary
            # and the engine is quiescent (between events): capture.
            # The early events_processed flush keeps the final total
            # identical whether or not this run is ever resumed.
            self.events_processed += events
            events = 0
            snap_next = self._take_checkpoint()
        when, _lp, _sub, _seq, kind, obj, arg = pop(heap)
        if when > self.now:
            self.now = when
        events += 1
        if kind == _EV_CHUNK:
            if obj.chunk_token == arg and obj.state is RUNNING:
                # inlined chunk completion — the most frequent event by
                # far: account the chunk's CPU (the _account_cpu fast
                # path, kept in sync), then requeue for round-robin
                # fairness or keep driving the thread
                nominal = obj.chunk_nominal
                if nominal > 0:
                    obj.activity_remaining -= nominal
                    obj.cpu_ns += nominal
                    self.total_cpu_ns += nominal
                    if observers:
                        func = obj.current_func()
                        for obs in observers:
                            obs.on_work(
                                obj, obj.activity_line, func, nominal
                            )
                    if sampling_live:
                        accum = obj.sample_accum + nominal
                        if (
                            accum < period_ns
                            and obj.sample_buffer.n < batch_size
                        ):
                            obj.sample_accum = accum
                        else:
                            batch = sampler.account(
                                obj, nominal, self.now, True,
                                rate=obj.chunk_rate,
                            )
                            if batch is not None:
                                self._deliver_batch(obj, batch)
                obj.chunk_nominal = 0
                if obj.activity_remaining > 0 and ready:
                    running.discard(obj)
                    obj.state = READY
                    ready.append(obj)
                else:
                    self._drive(obj)
        elif kind == _EV_SLEEP:
            if obj.chunk_token == arg and obj.state is SLEEPING:
                self._sleeping -= 1
                obj.state = BLOCKED  # transit state so _wake() is legal
                self._wake(obj, waker=None)
        elif kind == _EV_PAUSE:
            if obj.chunk_token == arg and obj.state is SLEEPING:
                self._make_ready(obj)
        elif kind == _EV_OVERHEAD:
            if obj.chunk_token == arg and obj.state is RUNNING:
                self._drive(obj)
        else:  # _EV_TIMER
            self._timer_count -= 1
            obj()
            if coalesce:
                # a timer (experiment boundary) may have handed running
                # threads a pending pause/CPU charge; the legacy engine
                # honours those at the next quantum boundary, so pull any
                # in-flight mega-chunk back to its grid
                self._truncate_pending()
        if ready:
            self._dispatch()
        if max_ns is not None and self.now > max_ns:
            self.events_processed += events
            self._raise_overrun()
        if self._alive and not running and not ready:
            if self._sleeping == 0 and self._timer_count == 0:
                self.events_processed += events
                events = 0
                self._raise_deadlock()
    self.events_processed += events
