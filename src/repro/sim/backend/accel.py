"""Eligibility wrapper around the compiled engine core (``_core``).

The compiled loop covers the configurations the benchmarks and profile
sessions actually run: no passive observers (their ``on_work``/``on_block``
fan-out lives in Python), no fault injection, no interference model (so
every chunk's rate is exactly 1.0), and no ``SimConfig.line_speedups``
(unprofiled ground-truth timing runs).  Anything else silently falls back
to the pure loop *for that run* — selection is per ``event_loop`` call, so
one parallel session can mix accel program runs with pure observed runs
and still be bit-identical throughout (the golden-trace matrix pins this).

``Engine.accel_loops`` counts the loops the compiled core actually ran, so
benchmarks and tests can assert the fast path engaged rather than trusting
the backend label.
"""

from __future__ import annotations

import heapq

from repro.sim.backend import accel_module, pure

_ctx = None


def _context():
    """The singleton tuple of interpreter objects the C core needs.

    Built lazily (engine/ops import this package during their own import);
    the C side compares ``ThreadState`` members and the ``Work`` class by
    pointer, so these must be the very objects the engine uses.
    """
    global _ctx
    if _ctx is None:
        from repro.sim import ops as O
        from repro.sim.engine import (
            _SYNC_ATTRS, BLOCKED, READY, RUNNING, SLEEPING,
        )
        from repro.sim.source import RUNTIME_LINE
        from repro.sim.thread import Frame, VThread

        _ctx = (
            READY, RUNNING, BLOCKED, SLEEPING,
            O.Work, RUNTIME_LINE,
            heapq.heappush, heapq.heappop,
            VThread, Frame,
            _SYNC_ATTRS,
        )
    return _ctx


def eligible(engine) -> bool:
    """Can the compiled core run this engine's loop bit-identically?"""
    return (
        not engine.observers
        and engine._faults is None
        and engine.cfg.interference_coeff == 0.0
        and engine._line_speedups is None
    )


def event_loop(engine) -> None:
    """Run the event loop: compiled when eligible, pure otherwise."""
    core = accel_module()
    if core is None or not eligible(engine):
        pure.event_loop(engine)
        return
    engine.accel_loops += 1
    core.event_loop(engine, _context())
