"""Snapshot/resume bit-identity properties (checkpoint fast-forward).

The core contract of :mod:`repro.sim.snapshot` is that
``restore(capture(engine))`` resumes the simulation *bit-identically*: a
session resumed from any mid-run checkpoint must produce exactly the run
result and profiler wire bytes the cold execution produces — at arbitrary
event boundaries, with an active :class:`~repro.sim.faults.FaultPlan`, with
pending stuck-lock detector timers, and across a pickle round trip (the
parallel executor ships snapshots to workers pickled).
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.sim.clock import MS
from repro.sim.engine import _T_SEND, _T_SPAWN, _T_STOP, Engine, SimConfig
from repro.sim.errors import SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.snapshot import Recorder, SnapshotError, restore


def _build(app, seed, **kwargs):
    """Fresh (spec, program, profiler) triple for one run."""
    spec = registry.build(app, **kwargs)
    cfg = replace(CozConfig(scope=spec.scope), seed=seed)
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    return spec, spec.build(seed), prof


def _fingerprint(result, prof):
    """Everything observable about a completed run."""
    return (
        result.runtime_ns,
        result.cpu_ns,
        result.profiler_cpu_ns,
        result.delay_ns,
        dict(result.progress_counts),
        result.thread_count,
        result.sample_count,
        result.events_processed,
        prof.data.to_json(),
    )


def _cold_with_snapshots(app, seed, grid, config=None, **kwargs):
    spec, program, prof = _build(app, seed, **kwargs)
    recorder = Recorder(grid=grid, keep_all=True)
    result = program.run(hook=prof, config=config, recorder=recorder)
    assert not recorder.failed, "capture disabled itself during the cold run"
    return spec, result, prof, recorder


def _resume(spec, snapshot, seed, config=None):
    # fresh program + profiler, exactly like a warm worker would build them
    cfg = replace(CozConfig(scope=spec.scope), seed=seed)
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    program = spec.build(seed)
    result = program.resume(snapshot, hook=prof, config=config)
    return result, prof


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_resume_is_bit_identical_at_arbitrary_event_boundaries(seed):
    """Property: for any capture instant, resume == cold, bit for bit.

    The grid instants land between whatever events happen to straddle
    them, so each snapshot exercises a different arbitrary boundary:
    threads mid-chunk, blocked in locks/queues, samples half-batched,
    experiments in flight.
    """
    # learn the run length, then spread capture points across it
    spec, program, cold_prof = _build("example", seed, rounds=40)
    cold = program.run(hook=cold_prof)
    grid = [int(cold.runtime_ns * f) for f in (0.1, 0.25, 0.5, 0.75, 0.9)]
    spec, result, prof, recorder = _cold_with_snapshots(
        "example", seed, grid, rounds=40
    )
    want = _fingerprint(result, prof)
    assert want == _fingerprint(cold, cold_prof)
    assert len(recorder.snapshots) == len(grid)
    for snap in recorder.snapshots:
        warm, warm_prof = _resume(spec, snap, seed)
        assert _fingerprint(warm, warm_prof) == want, (
            f"resume from t={snap.when} diverged from the cold run"
        )


def test_resume_is_bit_identical_with_active_fault_plan():
    """Chaos runs checkpoint too: injected faults replay identically."""
    seed = 7
    plan = FaultPlan.chaos(seed=seed, intensity=0.5)
    spec, program, prof = _build("example", seed, rounds=40)
    config = replace(program.config, faults=plan)
    cold = program.run(hook=prof, config=config)
    grid = [int(cold.runtime_ns * f) for f in (0.3, 0.7)]
    spec, result, prof2, recorder = _cold_with_snapshots(
        "example", seed, grid, config=config, rounds=40
    )
    want = _fingerprint(result, prof2)
    for snap in recorder.snapshots:
        warm, warm_prof = _resume(spec, snap, seed, config=config)
        assert _fingerprint(warm, warm_prof) == want


def test_resume_reproduces_pending_stuck_lock_timer():
    """A snapshot straddling an armed stall carries the detector timer.

    The plan forces a stuck lock-holder; the capture instant falls after
    the stall arms but before the in-sim detector deadline, so the
    snapshot's heap holds a pending ``_fault_stall_detect`` timer.  The
    resumed run must fail with exactly the cold run's error, at exactly
    the same virtual time.
    """
    seed = 2
    plan = FaultPlan(
        seed=seed,
        stuck_lock=1.0,
        fault_window_ns=(MS(2), MS(10)),
        stall_ns=MS(500),
        stall_detect_ns=MS(40),
    )
    spec, program, prof = _build("example", seed, rounds=40)
    config = replace(program.config, faults=plan)
    # stall arms in [2ms, 10ms); detector fires <= 50ms later: capture at
    # 20ms is inside the armed-but-undetected window
    recorder = Recorder(grid=[MS(20)], keep_all=True)
    with pytest.raises(SimulationError) as cold_err:
        program.run(hook=prof, config=config, recorder=recorder)
    assert recorder.snapshots, "no checkpoint before the injected failure"
    snap = recorder.snapshots[-1]
    assert any(ev[5] == ("e", "_fault_stall_detect") for ev in snap.heap), (
        "expected a pending stall-detector timer in the captured heap"
    )
    _, program2, prof2 = _build("example", seed, rounds=40)
    with pytest.raises(SimulationError) as warm_err:
        program2.resume(snap, hook=prof2, config=config)
    assert type(warm_err.value) is type(cold_err.value)
    assert str(warm_err.value) == str(cold_err.value)


def test_snapshot_pickle_round_trip_resumes_identically():
    """Workers receive snapshots pickled; the trip must be lossless."""
    seed = 5
    spec, program, prof = _build("example", seed, rounds=40)
    cold = program.run(hook=prof)
    grid = [int(cold.runtime_ns * 0.6)]
    spec, result, prof2, recorder = _cold_with_snapshots(
        "example", seed, grid, rounds=40
    )
    snap = pickle.loads(pickle.dumps(recorder.snapshots[-1]))
    warm, warm_prof = _resume(spec, snap, seed)
    assert _fingerprint(warm, warm_prof) == _fingerprint(result, prof2)


def test_same_snapshot_resumes_twice():
    """Stored snapshots are resumed repeatedly (bench warm trials, LRU)."""
    seed = 9
    spec, program, prof = _build("example", seed, rounds=40)
    cold = program.run(hook=prof)
    grid = [int(cold.runtime_ns * 0.5)]
    spec, result, prof2, recorder = _cold_with_snapshots(
        "example", seed, grid, rounds=40
    )
    snap = recorder.snapshots[-1]
    first = _fingerprint(*_resume(spec, snap, seed))
    second = _fingerprint(*_resume(spec, snap, seed))
    assert first == second == _fingerprint(result, prof2)


def test_keep_all_false_keeps_only_the_deepest_snapshot():
    seed = 1
    spec, program, prof = _build("example", seed, rounds=40)
    cold = program.run(hook=prof)
    grid = [int(cold.runtime_ns * f) for f in (0.2, 0.5, 0.8)]
    spec2, program2, prof2 = _build("example", seed, rounds=40)
    recorder = Recorder(grid=list(grid), keep_all=False)
    program2.run(hook=prof2, recorder=recorder)
    assert len(recorder.snapshots) == 1
    # capture fires as the heap head crosses the grid point; engine.now can
    # trail the point slightly, but the kept snapshot must be the deep one
    assert recorder.snapshots[0].when > grid[-2]


def test_attach_refuses_started_engine_and_double_attach():
    _, program, prof = _build("example", 0, rounds=10)
    result = program.run(hook=prof)
    with pytest.raises(SnapshotError, match="before engine.run"):
        Recorder().attach(result.engine)

    engine = Engine(SimConfig())
    Recorder().attach(engine)
    with pytest.raises(SnapshotError, match="already has a recorder"):
        Recorder().attach(engine)


def test_attach_refuses_observers_and_unaware_hooks():
    engine = Engine(SimConfig())
    engine.observers.append(object())
    with pytest.raises(SnapshotError, match="observers"):
        Recorder().attach(engine)

    engine2 = Engine(SimConfig())
    engine2.hook = object()  # no snapshot_state/restore_state protocol
    with pytest.raises(SnapshotError, match="not snapshot-aware"):
        Recorder().attach(engine2)


def test_restore_rejects_version_mismatch():
    seed = 0
    spec, program, prof = _build("example", seed, rounds=40)
    cold = program.run(hook=prof)
    spec, result, prof2, recorder = _cold_with_snapshots(
        "example", seed, [int(cold.runtime_ns * 0.5)], rounds=40
    )
    snap = replace(recorder.snapshots[-1], version=99)
    _, program2, _ = _build("example", seed, rounds=40)
    with pytest.raises(SnapshotError, match="version"):
        restore(snap, program2)


def test_restore_into_mismatched_program_raises_not_corrupts():
    """Replaying a snapshot into the wrong program must fail loudly."""
    seed = 4
    spec, program, prof = _build("example", seed, rounds=40)
    cold = program.run(hook=prof)
    spec, result, prof2, recorder = _cold_with_snapshots(
        "example", seed, [int(cold.runtime_ns * 0.5)], rounds=40
    )
    snap = recorder.snapshots[-1]
    # different workload shape -> the op replay desynchronizes
    _, wrong_program, wrong_prof = _build("example", seed, rounds=7)
    with pytest.raises(SnapshotError):
        wrong_program.resume(snap, hook=wrong_prof)


# ----------------------------------------------------------- tampered logs


def _recorded_to_end(seed=3):
    """A small run recorded to its end and captured once there: every
    thread spawned, ran and stopped inside the snapshot's op log."""
    spec = registry.build("example", rounds=6)
    program = spec.build(seed)
    engine = Engine(program.config)
    recorder = Recorder(grid=[])
    recorder.attach(engine)
    engine.spawn(program.main, name="main")
    engine.run()
    recorder.take(engine)
    return spec, recorder.snapshots[-1]


def _with_ids(snap, extra):
    ids = array("I", snap.ids[: snap.n_ids])
    ids.extend(extra)
    return replace(snap, ids=ids, n_ids=len(ids))


def test_untampered_log_replays():
    spec, snap = _recorded_to_end()
    restore(snap, spec.build(3))


def test_ids_past_a_threads_end_raise_snapshot_error():
    spec, snap = _recorded_to_end()
    stopped = next(tid for _pos, tag, tid, _v in snap.specials if tag == _T_STOP)
    with pytest.raises(SnapshotError, match=f"thread {stopped} finished early"):
        restore(_with_ids(snap, [stopped]), spec.build(3))


def test_id_of_a_never_spawned_thread_raises_snapshot_error():
    spec, snap = _recorded_to_end()
    ghost = len(snap.threads) + 3
    with pytest.raises(SnapshotError, match=f"thread {ghost} was never spawned"):
        restore(_with_ids(snap, [ghost]), spec.build(3))


def test_spawn_by_the_wrong_parent_raises_snapshot_error():
    spec, snap = _recorded_to_end()
    specials = list(snap.specials)
    k = [i for i, sp in enumerate(specials) if sp[1] == _T_SPAWN][1]
    pos, _tag, child, parent = specials[k]
    wrong = child - 1
    assert wrong != parent
    specials[k] = (pos, _T_SPAWN, child, wrong)
    with pytest.raises(SnapshotError, match=f"parent {wrong} yielded"):
        restore(replace(snap, specials=tuple(specials)), spec.build(3))


def test_stop_of_a_running_thread_raises_snapshot_error():
    spec, snap = _recorded_to_end()
    specials = list(snap.specials)
    # main is still spawning workers here, so it cannot have finished
    k = [i for i, sp in enumerate(specials) if sp[1] == _T_SPAWN][1]
    specials.insert(k, (specials[k][0], _T_STOP, 0, None))
    with pytest.raises(SnapshotError, match="thread 0 kept running"):
        restore(replace(snap, specials=tuple(specials)), spec.build(3))


def test_send_to_a_never_spawned_thread_raises_snapshot_error():
    spec, snap = _recorded_to_end()
    ghost = len(snap.threads)
    specials = snap.specials + ((snap.n_ids, _T_SEND, ghost, None),)
    with pytest.raises(SnapshotError, match=f"thread {ghost} was never spawned"):
        restore(replace(snap, specials=specials), spec.build(3))
