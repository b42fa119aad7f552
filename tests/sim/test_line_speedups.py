"""``SimConfig.line_speedups``: the engine's ground-truth line-cost knob.

A virtual speedup of a line must equal actually speeding it up (§3.4).
The "actually" half is this knob: each ``Work`` op's duration is scaled
as it starts running by the factor of the innermost key among its own
line and the callsites of its thread's frames.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.apps.example import LINE_A
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.harness.checkpoint import checkpoint_fingerprint
from repro.sim import MS, Join, Program, SimConfig, Spawn, Work, line
from repro.sim.ops import POP_FRAME, push_frame
from repro.sim.snapshot import Recorder, SnapshotError
from repro.sim.trace import TraceHasher

LIB = line("lib.c:7")
CALL_OUTER = line("main.c:10")
CALL_INNER = line("main.c:20")
OWN = line("main.c:30")


def _nested_main(t):
    """``main.c:10`` calls ``main.c:20``, which runs 4 ms in ``lib.c:7``;
    then 2 ms on ``main.c:30`` outside any frame."""
    yield push_frame("outer", CALL_OUTER)
    yield push_frame("inner", CALL_INNER)
    yield Work(LIB, MS(4))
    yield POP_FRAME
    yield POP_FRAME
    yield Work(OWN, MS(2))


def _runtime(main, speedups=(), **config):
    program = Program(main, config=SimConfig(line_speedups=speedups, **config))
    return program.run().runtime_ns


def test_work_line_match():
    assert _runtime(_nested_main) == MS(6)
    assert _runtime(_nested_main, {OWN: 0.5}) == MS(5)
    assert _runtime(_nested_main, {LIB: 0.0}) == MS(2)


def test_callsite_match():
    """A Work on an unlisted line takes its callsite's factor, as Coz
    credits a callee's samples to the in-scope line that called it."""
    assert _runtime(_nested_main, {CALL_OUTER: 0.25}) == MS(1) + MS(2)


def test_innermost_key_wins():
    assert _runtime(_nested_main, {CALL_OUTER: 0.0, CALL_INNER: 0.5}) == MS(2) + MS(2)
    assert _runtime(_nested_main, {CALL_INNER: 0.0, LIB: 0.75}) == MS(3) + MS(2)


def test_factor_rounds_and_scales_concurrent_threads():
    def lib(t):
        yield Work(LIB, 1001)

    def own(t):
        yield Work(OWN, 999)

    def main(t):
        a = yield Spawn(lib)
        b = yield Spawn(own)
        yield Join(a)
        yield Join(b)

    # round(1001 * 0.5) = 500 (half to even), round(999 * 2.0) = 1998
    config = dict(spawn_cost_ns=0)
    assert _runtime(main, {LIB: 0.5}, **config) == 999
    assert _runtime(main, {LIB: 0.5, OWN: 2.0}, **config) == 1998


def test_factor_one_gives_the_same_trace_as_no_knob():
    def digest(speedups):
        spec = registry.build("example", rounds=6)
        program = spec.build(3)
        tracer = TraceHasher()
        config = replace(program.config, line_speedups=speedups)
        result = program.run(observers=[tracer], config=config)
        return tracer.hexdigest(), result.runtime_ns

    plain = digest(())
    assert digest({LINE_A: 1.0}) == plain
    assert digest({LINE_A: 0.5}) != plain


def test_table4_model_gets_faster_through_the_registry():
    plain = registry.build("canneal", n_threads=2, n_items=12)
    top = plain.lines["top"]
    fast = registry.build("canneal", n_threads=2, n_items=12, line_speedups={top: 0.5})
    assert fast.build(0).config.line_speedups == ((top, 0.5),)
    assert fast.build(0).run().runtime_ns < plain.build(0).run().runtime_ns
    # a worker rebuilds the same spec from its ref
    rebuilt = fast.registry_ref.build()
    assert rebuilt.build(0).run().runtime_ns == fast.build(0).run().runtime_ns


def _profiled(spec, seed):
    cfg = replace(CozConfig(scope=spec.scope, experiment_duration_ns=MS(10)), seed=seed)
    return CausalProfiler(cfg, spec.progress_points, spec.latency_specs)


def test_resume_under_the_knob_equals_a_cold_run():
    seed = 3
    spec = registry.build("example", rounds=12, line_speedups={LINE_A: 0.5})
    prof = _profiled(spec, seed)
    recorder = Recorder(grid=[MS(20), MS(50)], keep_all=True)
    cold = spec.build(seed).run(hook=prof, recorder=recorder)
    assert len(recorder.snapshots) == 2 and not recorder.failed
    plain = registry.build("example", rounds=12).build(seed).run()
    assert cold.runtime_ns < plain.runtime_ns
    for snap in recorder.snapshots:
        warm_prof = _profiled(spec, seed)
        warm = spec.build(seed).resume(snap, hook=warm_prof)
        assert (warm.runtime_ns, warm.delay_ns, warm.sample_count) == (
            cold.runtime_ns, cold.delay_ns, cold.sample_count,
        )
        assert warm_prof.data.to_json() == prof.data.to_json()


def test_resume_refuses_a_snapshot_taken_under_another_knob():
    # the snapshot's prefix already ran at the knob's speed: finishing it
    # without the knob gives neither run's answer, so restore must refuse
    seed = 3
    fast = registry.build("example", rounds=12, line_speedups={LINE_A: 0.5})
    plain = registry.build("example", rounds=12)
    recorder = Recorder(grid=[MS(20)])
    fast.build(seed).run(hook=_profiled(fast, seed), recorder=recorder)
    (snap,) = recorder.snapshots
    with pytest.raises(SnapshotError, match="line_speedups"):
        plain.build(seed).resume(snap, hook=_profiled(plain, seed))
    recorder = Recorder(grid=[MS(20)])
    plain.build(seed).run(hook=_profiled(plain, seed), recorder=recorder)
    with pytest.raises(SnapshotError, match="line_speedups"):
        fast.build(seed).resume(recorder.snapshots[0], hook=_profiled(fast, seed))


def test_checkpoint_fingerprint_follows_the_map_not_its_order():
    other = line("example.cpp:5")

    def fingerprint(speedups):
        spec = registry.build("example", rounds=6, line_speedups=speedups)
        return checkpoint_fingerprint(spec, CozConfig(), None)

    forward = fingerprint({LINE_A: 0.5, other: 0.25})
    assert fingerprint({other: 0.25, LINE_A: 0.5}) == forward
    assert fingerprint({LINE_A: 0.5, other: 0.5}) != forward
    assert fingerprint({}) == fingerprint(None) != forward


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_invalid_factor_is_rejected_before_any_run(bad):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        registry.build("example", rounds=3, line_speedups={LINE_A: bad})
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        SimConfig(line_speedups={LINE_A: bad})
