"""Fault injection (:mod:`repro.sim.faults`): determinism, every sim-level
fault class, and the structured deadlock/stall diagnostics."""

from dataclasses import replace

import pytest

from repro.apps.example import build_example
from repro.sim import (
    DeadlockError,
    FaultInjector,
    FaultPlan,
    Mutex,
    Observer,
    Program,
    SimConfig,
    StuckLockError,
    ThreadCrashFault,
)
from repro.sim.clock import MS
from repro.sim.ops import Join, Lock, Spawn, Work
from repro.sim.source import line


def _program(seed=3):
    # ~6.7 ms per round: 30 rounds comfortably cover the default
    # fault-arming window of [2 ms, 120 ms)
    return build_example(rounds=30).build(seed)


def _run_with(plan, seed=3):
    prog = _program(seed)
    return prog.run(config=replace(prog.config, faults=plan))


# -- plan / injector -----------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(thread_crash=1.5).validate()
    with pytest.raises(ValueError):
        FaultPlan(stall_ns=MS(10), stall_detect_ns=MS(20)).validate()
    with pytest.raises(ValueError):
        FaultPlan(spike_factor=0).validate()
    FaultPlan.chaos(seed=1).validate()


def test_injector_is_deterministic_per_seed():
    plan = FaultPlan.chaos(seed=9)
    a = FaultInjector(plan, run_seed=42)
    b = FaultInjector(plan, run_seed=42)
    assert (a.crash_at_ns, a.stall_at_ns, a.spike_from_ns) == \
        (b.crash_at_ns, b.stall_at_ns, b.spike_from_ns)
    assert (a.worker_kill, a.worker_hang) == (b.worker_kill, b.worker_hang)
    # different run seeds draw from disjoint streams
    c = FaultInjector(plan, run_seed=43)
    assert (a.crash_at_ns, a.stall_at_ns) != (c.crash_at_ns, c.stall_at_ns) or \
        a.spike_from_ns != c.spike_from_ns


def test_worker_kill_and_hang_are_mutually_exclusive():
    plan = FaultPlan(seed=1, worker_kill=1.0, worker_hang=1.0)
    inj = FaultInjector(plan, run_seed=5)
    assert inj.worker_kill and not inj.worker_hang


# -- sim-level faults ----------------------------------------------------------------


def test_thread_crash_fault_raises_typed_error():
    with pytest.raises(ThreadCrashFault) as exc_info:
        _run_with(FaultPlan(seed=1, thread_crash=1.0))
    err = exc_info.value
    assert err.virtual_ns > 0
    assert err.thread_name
    assert str(err.virtual_ns) in str(err)


def test_thread_crash_is_reproducible():
    times = set()
    for _ in range(2):
        with pytest.raises(ThreadCrashFault) as exc_info:
            _run_with(FaultPlan(seed=1, thread_crash=1.0))
        times.add((exc_info.value.virtual_ns, exc_info.value.thread_name))
    assert len(times) == 1


def test_stuck_lock_raises_with_blocked_diagnostics():
    with pytest.raises(StuckLockError) as exc_info:
        _run_with(FaultPlan(seed=1, stuck_lock=1.0))
    err = exc_info.value
    assert err.holder
    assert err.virtual_ns > 0
    # the wedged schedule's blocked peers carry callchains
    assert all(len(entry) == 3 for entry in err.blocked)


class _SampleCounter(Observer):
    wants_samples = True

    def __init__(self):
        self.seen = 0

    def on_sample(self, sample):
        self.seen += 1


def test_sample_perturbation_drops_delivered_samples():
    # perturbation happens at delivery: the engine still *takes* every
    # sample (``sample_count``), but the consumer sees a lossy stream
    counter = _SampleCounter()
    prog = _program()
    plan = FaultPlan(seed=1, sample_loss=0.8)
    result = prog.run(
        observers=(counter,), config=replace(prog.config, faults=plan)
    )
    assert result.sample_count > 0
    assert 0 < counter.seen < result.sample_count
    # engine accounting untouched: same virtual timeline as a clean run
    clean = _program().run(observers=(_SampleCounter(),))
    assert result.runtime_ns == clean.runtime_ns


def test_sample_duplication_inflates_delivered_samples():
    counter = _SampleCounter()
    prog = _program()
    plan = FaultPlan(seed=1, sample_dup=0.8)
    result = prog.run(
        observers=(counter,), config=replace(prog.config, faults=plan)
    )
    assert counter.seen > result.sample_count


def _profiled(plan):
    """Run one profiled execution under an optional plan."""
    from repro.core.config import CozConfig
    from repro.core.profiler import CausalProfiler

    spec = build_example(rounds=30)
    prog = spec.build(3)
    profiler = CausalProfiler(
        CozConfig(scope=spec.scope, experiment_duration_ns=MS(20), seed=3),
        tuple(spec.progress_points),
        (),
    )
    cfg = prog.config if plan is None else replace(prog.config, faults=plan)
    return prog.run(hook=profiler, config=cfg)


def test_jitter_spike_stretches_profiled_run():
    # spikes only fire on inserted pauses, so compare profiled runs
    clean = _profiled(None)
    spiked = _profiled(FaultPlan(seed=2, jitter_spike=1.0, spike_factor=100))
    assert spiked.runtime_ns > clean.runtime_ns


def test_no_faults_plan_is_bit_identical_to_none():
    prog = _program()
    baseline = prog.run()
    with_empty_plan = prog.run(config=replace(prog.config, faults=FaultPlan()))
    assert baseline.runtime_ns == with_empty_plan.runtime_ns
    assert baseline.sample_count == with_empty_plan.sample_count


# -- structured deadlock reporting ---------------------------------------------------


def test_deadlock_error_carries_timestamp_and_callchains():
    m1, m2 = Mutex("m1"), Mutex("m2")

    def t1(t):
        yield Lock(m1)
        yield Work(line("dead.c:1"), MS(5))
        yield Lock(m2)

    def t2(t):
        yield Lock(m2)
        yield Work(line("dead.c:2"), MS(5))
        yield Lock(m1)

    def main(t):
        a = yield Spawn(t1, name="t1")
        b = yield Spawn(t2, name="t2")
        yield Join(a)
        yield Join(b)

    with pytest.raises(DeadlockError) as exc_info:
        Program(main, config=SimConfig(seed=0)).run()
    err = exc_info.value
    assert err.virtual_ns > 0
    names = {name for name, _, _ in err.blocked}
    assert {"t1", "t2"} <= names
    for name, what, chain in err.blocked:
        if name in ("t1", "t2"):
            assert what is not None
    assert "t1" in str(err) and "t2" in str(err)
