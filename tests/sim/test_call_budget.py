"""Host-cost budgets of the simulator, counted rather than timed.

A wall-clock bound depends on the machine; the number of Python-level
calls the simulator makes per engine event does not.  These tests run a
small profiled sqlite program under ``sys.setprofile`` and count every
call into code under ``src/repro`` (generator resumes included), per
engine event — once plain and once with a checkpoint
``Recorder`` attached, whose op logging is inlined in the engine.

Reference counts for this program (identical on CPython 3.10–3.13): 12.95
calls per event while app models rebuilt their ops every loop iteration
and routed them through per-op helper generators; 5.98 once they build
constant ops once and yield them from flat loops; 5.77 (read on CPython
3.11.7) once a call-stack frame is the interned ``PushFrame`` op itself
rather than a new object.  The budget leaves room
for ordinary engine changes but fails if the per-op tax comes back.

The same counting applies to memory the garbage collector must rescan:
a recorded run's op log holds no Python object per op, so the number of
GC-tracked objects a recorded run leaves alive does not grow with its
length.  It read about 1.9 per engine event while the log kept a
``(tid, send, op)`` tuple (and its serialized twin) per generator send.

Checkpoint restore is counted in bytecode: the opcodes the interpreter
runs in ``repro/sim/snapshot.py`` per replayed op-log entry.  The replay
drives each id-column slice with one tight ``cur[tid] = sends[tid](None)``
loop (13.3 per entry on CPython 3.11.7); it read 53.6 while every entry
went through a tag dispatch, a send-value check and a sync-attribute
lookup.

Replaying re-runs the app model's generators, so restore also costs
Python calls into ``src/repro`` per replayed op-log entry, counted here
on a small ferret program.  They read 2.42 per entry while every pipeline
stage drove throwaway ``Channel.get``/``put`` sub-generators per item and
looked each channel's ops up again per call, and 1.38 (CPython 3.11.7)
once each stage runs in one ``Channel.relay`` frame with its ops bound
once.

Checkpoint size is counted in bytes: a pickled snapshot per op-log entry
it replays.  The id column stores one small integer per entry and the
specials are few, so the ratio stays near 4–5 bytes and falls as the run
grows (4.76 at 150 inserts per thread, 4.20 at 600).  The live id column
is held to the same budget in memory (4.07 bytes per entry at 600), so an
eight-byte id column or a Python list of ids fails it.

Warm resume is counted in engine events: a run resumed from its deepest
default checkpoint re-simulates the events after it, and that tail costs
more per event than replaying the prefix.  On a default profiled run
(seed 3) the tail read 12.2% of ferret's events and 14.7% of sqlite's
while the grid grew x1.25 per point and stopped at 64 captures; it reads
1.3% and 1.6% with the x1.05 grid.  The same runs took 19 and 7 captures
then, 37 and 32 now, and example — long in virtual time, short in
events — 25 then and 5 now that grid points closer than
``MIN_CAPTURE_EVENTS`` engine events are skipped.
"""

from __future__ import annotations

import functools
import gc
import os
import pickle
import sys

import pytest

import repro
from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.sim.clock import MS
from repro.sim.snapshot import Recorder, restore

CALLS_PER_EVENT_BUDGET = 8.0
REPLAY_OPCODES_PER_ENTRY_BUDGET = 20.0
REPLAY_CALLS_PER_ENTRY_BUDGET = 1.8
SNAPSHOT_BYTES_PER_ENTRY_BUDGET = 6.0
RESUMED_TAIL_SHARE_BUDGET = 0.05
CAPTURES_PER_RUN_BUDGET = {"example": 8, "sqlite": 48, "ferret": 48}

_ROOT = os.path.dirname(repro.__file__)


def calls_per_event(spec, seed=1, recorder=None):
    program = spec.build(seed)
    hook = CausalProfiler(
        CozConfig(scope=spec.scope, experiment_duration_ns=MS(10), seed=seed),
        spec.progress_points,
    )
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_ROOT):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = program.run(hook=hook, recorder=recorder)
    finally:
        sys.setprofile(previous)
    return calls / result.events_processed


def test_sqlite_calls_per_event_within_budget():
    spec = registry.build("sqlite", threads=4, inserts_per_thread=150)
    ratio = calls_per_event(spec)
    assert ratio <= CALLS_PER_EVENT_BUDGET, (
        f"{ratio:.2f} Python calls per engine event on sqlite "
        f"(budget {CALLS_PER_EVENT_BUDGET})"
    )


def test_sqlite_calls_per_event_within_budget_while_recording():
    spec = registry.build("sqlite", threads=4, inserts_per_thread=150)
    recorder = Recorder(first_ns=MS(1))  # the run lasts a few virtual ms
    ratio = calls_per_event(spec, recorder=recorder)
    assert recorder.snapshots and not recorder.failed
    assert ratio <= CALLS_PER_EVENT_BUDGET, (
        f"{ratio:.2f} Python calls per engine event on recorded sqlite "
        f"(budget {CALLS_PER_EVENT_BUDGET})"
    )


def _retained_by_recorded_run(inserts_per_thread):
    """GC-tracked objects a recorded sqlite run leaves alive (its
    ``RunResult`` and recorder still referenced), and its engine events."""
    program = registry.build(
        "sqlite", threads=4, inserts_per_thread=inserts_per_thread
    ).build(1)
    gc.collect()
    before = len(gc.get_objects())
    recorder = Recorder(first_ns=MS(1))
    result = program.run(recorder=recorder)
    gc.collect()
    retained = len(gc.get_objects()) - before
    assert recorder.snapshots and not recorder.failed
    return retained, result.events_processed


def test_recorded_run_retains_no_gc_object_per_op():
    short, short_events = _retained_by_recorded_run(200)
    long, long_events = _retained_by_recorded_run(800)
    assert long_events > 3 * short_events
    # flat: well under one retained object per hundred extra events
    assert long - short < 0.01 * (long_events - short_events), (
        f"a recorded sqlite run retains {short} GC-tracked objects at 200 "
        f"inserts per thread and {long} at 800"
    )


def _deepest_snapshot(inserts_per_thread):
    spec = registry.build("sqlite", threads=4, inserts_per_thread=inserts_per_thread)
    recorder = Recorder(first_ns=MS(1))
    spec.build(1).run(recorder=recorder)
    assert recorder.snapshots and not recorder.failed
    return recorder.snapshots[-1]


def test_replay_opcodes_per_entry_within_budget():
    snapshot = _deepest_snapshot(150)
    program = registry.build("sqlite", threads=4, inserts_per_thread=150).build(1)
    target = os.path.join(_ROOT, "sim", "snapshot.py")
    opcodes = 0

    def local(frame, event, _arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, _arg):
        if frame.f_code.co_filename != target:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        restore(snapshot, program)
    finally:
        sys.settrace(previous)
    entries = snapshot.n_ids + snapshot.n_specials
    ratio = opcodes / entries
    assert ratio <= REPLAY_OPCODES_PER_ENTRY_BUDGET, (
        f"{ratio:.1f} opcodes in snapshot.py per replayed op-log entry "
        f"({entries} entries; budget {REPLAY_OPCODES_PER_ENTRY_BUDGET})"
    )


def test_ferret_replay_calls_per_entry_within_budget():
    spec = registry.build("ferret", n_queries=200)
    recorder = Recorder(first_ns=MS(1))
    spec.build(1).run(recorder=recorder)
    assert recorder.snapshots and not recorder.failed
    snapshot = recorder.snapshots[-1]
    program = spec.build(1)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_ROOT):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        restore(snapshot, program)
    finally:
        sys.setprofile(previous)
    entries = snapshot.n_ids + snapshot.n_specials
    ratio = calls / entries
    assert ratio <= REPLAY_CALLS_PER_ENTRY_BUDGET, (
        f"{ratio:.2f} Python calls per replayed op-log entry on ferret "
        f"({entries} entries; budget {REPLAY_CALLS_PER_ENTRY_BUDGET})"
    )


def _pickled_bytes_per_entry(snapshot):
    return len(pickle.dumps(snapshot)) / (snapshot.n_ids + snapshot.n_specials)


def test_snapshot_bytes_per_entry_within_budget():
    short = _deepest_snapshot(150)
    long = _deepest_snapshot(600)
    short_bytes = _pickled_bytes_per_entry(short)
    long_bytes = _pickled_bytes_per_entry(long)
    assert short_bytes <= SNAPSHOT_BYTES_PER_ENTRY_BUDGET, (
        f"{short_bytes:.2f} pickled snapshot bytes per op-log entry on sqlite "
        f"(budget {SNAPSHOT_BYTES_PER_ENTRY_BUDGET})"
    )
    # the fixed part amortizes: a longer run costs no more per entry
    assert long_bytes <= short_bytes, (
        f"{long_bytes:.2f} pickled snapshot bytes per op-log entry at 600 "
        f"inserts per thread, {short_bytes:.2f} at 150"
    )
    # the live id column is as compact as its pickle: a Python list of
    # small ints pickles to ~2 bytes per entry but holds 8 in memory
    resident = sys.getsizeof(long.ids) / len(long.ids)
    assert resident <= SNAPSHOT_BYTES_PER_ENTRY_BUDGET, (
        f"the op-log id column holds {resident:.2f} bytes per entry in memory "
        f"(budget {SNAPSHOT_BYTES_PER_ENTRY_BUDGET})"
    )


def _default_hook(spec, seed):
    cfg = CozConfig(scope=spec.scope, seed=seed)
    return CausalProfiler(cfg, spec.progress_points, spec.latency_specs)


@functools.lru_cache(maxsize=None)
def _default_recorded_run(app, seed=3):
    """A default profiled run of ``app`` under a default-grid recorder that
    keeps every capture; returns (spec, result, snapshots)."""
    spec = registry.build(app)
    recorder = Recorder(keep_all=True)
    result = spec.build(seed).run(hook=_default_hook(spec, seed), recorder=recorder)
    assert recorder.snapshots and not recorder.failed
    return spec, result, recorder.snapshots


@pytest.mark.parametrize("app", ["ferret", "sqlite"])
def test_resumed_tail_within_budget(app):
    spec, cold, snapshots = _default_recorded_run(app)
    engine = restore(snapshots[-1], spec.build(3), hook=_default_hook(spec, 3))
    restored_at = engine.events_processed
    engine.resume_run()
    assert engine.events_processed == cold.events_processed
    share = (engine.events_processed - restored_at) / cold.events_processed
    assert share <= RESUMED_TAIL_SHARE_BUDGET, (
        f"a resumed {app} run re-simulates {share:.1%} of its "
        f"{cold.events_processed} events (budget {RESUMED_TAIL_SHARE_BUDGET:.0%})"
    )


@pytest.mark.parametrize("app", sorted(CAPTURES_PER_RUN_BUDGET))
def test_captures_per_run_within_budget(app):
    _spec, _cold, snapshots = _default_recorded_run(app)
    budget = CAPTURES_PER_RUN_BUDGET[app]
    assert len(snapshots) <= budget, (
        f"a default recorded {app} run took {len(snapshots)} checkpoint "
        f"captures (budget {budget})"
    )
