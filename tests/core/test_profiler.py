"""CausalProfiler experiment coordination (§3.2)."""

from collections import Counter

import pytest

from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.core.progress import ProgressPoint
from repro.sim import MS, US, Program, Progress, Scope, SimConfig, Work, line

HOT = line("w.c:1")


def make_program(total_ms=200, tick_us=200, config=None):
    def main(t):
        for _ in range(int(MS(total_ms) // US(tick_us))):
            yield Work(HOT, US(tick_us))
            yield Progress("tick")

    return Program(main, config=config or SimConfig(sample_period_ns=US(100)))


def run_profiled(cfg, total_ms=200):
    prof = CausalProfiler(cfg, [ProgressPoint("tick")])
    result = make_program(total_ms).run(hook=prof)
    return prof, result


def test_experiments_run_and_record():
    cfg = CozConfig(experiment_duration_ns=MS(10), cooloff_ns=MS(1))
    prof, _ = run_profiled(cfg)
    assert prof.experiments_run >= 10
    for e in prof.data.experiments:
        assert e.line == HOT
        assert e.duration_ns >= MS(10)
        assert e.visits["tick"] > 0


def test_speedup_selection_distribution():
    """0% is selected with ~the configured probability; others from the grid."""
    cfg = CozConfig(
        experiment_duration_ns=MS(2),
        cooloff_ns=US(100),
        zero_speedup_prob=0.5,
        seed=42,
    )
    prof, _ = run_profiled(cfg, total_ms=400)
    counts = Counter(e.speedup_pct for e in prof.data.experiments)
    n = sum(counts.values())
    assert n > 80
    assert 0.3 <= counts[0] / n <= 0.7
    assert all(pct % 5 == 0 and 0 <= pct <= 100 for pct in counts)


def test_speedup_schedule_cycles():
    cfg = CozConfig(
        experiment_duration_ns=MS(5),
        cooloff_ns=US(100),
        speedup_schedule=[0, 30, 60],
    )
    prof, _ = run_profiled(cfg)
    got = [e.speedup_pct for e in prof.data.experiments[:6]]
    assert got == [0, 30, 60, 0, 30, 60]


def test_experiment_length_doubles_on_few_visits():
    """§2: fewer than min_visits progress visits => double the length."""
    cfg = CozConfig(experiment_duration_ns=MS(1), min_visits=100, cooloff_ns=US(100))
    prof, _ = run_profiled(cfg, total_ms=100)
    durations = [e.duration_ns for e in prof.data.experiments]
    assert durations[0] == MS(1)
    assert any(d > MS(1) for d in durations[1:])
    # doubling is monotone until visits suffice
    assert durations == sorted(durations)[: len(durations)]


def test_run_info_recorded_on_end():
    cfg = CozConfig(experiment_duration_ns=MS(10))
    prof, result = run_profiled(cfg)
    assert len(prof.data.runs) == 1
    info = prof.data.runs[0]
    assert info.runtime_ns == result.runtime_ns
    assert info.line_samples[HOT] > 0


def test_sampling_overhead_charged():
    cfg = CozConfig(experiment_duration_ns=MS(10), sample_process_cost_ns=US(5))
    prof, result = run_profiled(cfg)
    assert result.profiler_cpu_ns > 0


def test_startup_cost_scales_with_debug_size():
    def main(t):
        yield Work(HOT, MS(1))

    small = Program(main, debug_size_kb=10)
    big = Program(main, debug_size_kb=10_000)
    cfg = CozConfig()
    r_small = small.run(hook=CausalProfiler(cfg, [ProgressPoint("tick")]))
    r_big = big.run(hook=CausalProfiler(cfg, [ProgressPoint("tick")]))
    assert r_big.runtime_ns > r_small.runtime_ns
    assert r_big.profiler_cpu_ns > r_small.profiler_cpu_ns


def test_disable_sampling_disables_experiments():
    cfg = CozConfig(enable_sampling=False)
    prof, result = run_profiled(cfg)
    assert prof.experiments_run == 0
    assert result.sample_count == 0


def test_disable_delays_forces_zero_speedups():
    cfg = CozConfig(enable_delays=False, experiment_duration_ns=MS(5), cooloff_ns=US(100))
    prof, result = run_profiled(cfg)
    assert prof.experiments_run > 5
    assert all(e.speedup_pct == 0 for e in prof.data.experiments)
    assert result.delay_ns == 0


def test_scope_restricts_selection():
    cfg = CozConfig(
        scope=Scope.only("elsewhere.c"),
        experiment_duration_ns=MS(5),
    )
    prof, _ = run_profiled(cfg)
    assert prof.experiments_run == 0  # HOT is out of scope; nothing selected


def _partial_delay(prof):
    """Delay booked for an experiment still in flight when the run ended."""
    if prof.state != "running":
        return 0
    return prof.delays.global_count * prof._delay_ns


def test_partial_experiment_delays_stay_on_the_books():
    """A program ending mid-experiment keeps the partial delays in the run
    total: effective time is runtime minus *all* inserted delay, not just
    the completed experiments' share."""
    cfg = CozConfig(
        experiment_duration_ns=MS(10), cooloff_ns=MS(1), speedup_schedule=[50]
    )
    prof, result = run_profiled(cfg, total_ms=25)
    assert prof.state == "running"  # the run really ended mid-experiment
    partial = _partial_delay(prof)
    assert partial > 0
    completed = sum(e.inserted_delay_ns for e in prof.data.experiments)
    info = prof.data.runs[0]
    assert info.total_delay_ns == completed + partial
    assert info.effective_ns == result.runtime_ns - completed - partial


def test_truncated_run_matches_longer_run_minus_known_delta():
    """Same seed, longer program: the shared prefix books identically, and
    the effective-time difference is exactly the extra runtime minus the
    extra delay reconstructable from the experiment records alone."""
    def go(total_ms):
        cfg = CozConfig(
            experiment_duration_ns=MS(10), cooloff_ns=MS(1), speedup_schedule=[50]
        )
        return run_profiled(cfg, total_ms=total_ms)

    prof_a, res_a = go(25)
    prof_b, res_b = go(35)
    assert prof_a.state == "running" and prof_b.state == "running"

    # deterministic single-threaded prefix: shared experiments are identical
    n = len(prof_a.data.experiments)
    assert n < len(prof_b.data.experiments)
    for ea, eb in zip(prof_a.data.experiments, prof_b.data.experiments):
        assert (ea.start_ns, ea.speedup_pct, ea.delay_count) == \
            (eb.start_ns, eb.speedup_pct, eb.delay_count)

    delta = (
        sum(e.inserted_delay_ns for e in prof_b.data.experiments[n:])
        + _partial_delay(prof_b)
        - _partial_delay(prof_a)
    )
    booked_a = prof_a.data.runs[0].total_delay_ns
    booked_b = prof_b.data.runs[0].total_delay_ns
    assert booked_b - booked_a == delta
    assert prof_b.data.total_effective_ns() == (
        prof_a.data.total_effective_ns() + (res_b.runtime_ns - res_a.runtime_ns) - delta
    )


def test_jitter_enabled_runs_are_deterministic():
    """Nanosleep jitter perturbs the timeline but is seeded: same request
    twice gives bit-identical data, and the jitter really did take effect."""
    from repro.apps import registry
    from repro.harness.runner import profile_app

    def go(jitter):
        spec = registry.build("example", rounds=30)
        cfg = CozConfig(
            scope=spec.scope,
            experiment_duration_ns=MS(40),
            nanosleep_jitter_ns=jitter,
        )
        return profile_app(spec, runs=2, coz_config=cfg)

    first = go(5000)
    second = go(5000)
    assert first.data == second.data
    assert [r.runtime_ns for r in first.run_results] == \
        [r.runtime_ns for r in second.run_results]
    plain = go(0)
    assert [r.runtime_ns for r in first.run_results] != \
        [r.runtime_ns for r in plain.run_results]


def test_config_validation():
    with pytest.raises(ValueError):
        CozConfig(zero_speedup_prob=1.5).validate()
    with pytest.raises(ValueError):
        CozConfig(experiment_duration_ns=0).validate()
    with pytest.raises(ValueError):
        CozConfig(speedup_values=(0, 120)).validate()
    with pytest.raises(ValueError):
        CozConfig(speedup_values=(5, 10)).validate()  # no baseline
    with pytest.raises(ValueError):
        CozConfig(min_visits=0).validate()


def test_literal_batch_counts_only_samples_taken_after_the_experiment_began():
    """Literal sample segments (rehydrated by snapshot restore, or left by
    fault perturbation) get the same stale-sample cut as affine ones: a
    sample buffered before the experiment started is not a hit."""
    from repro.sim.engine import Engine
    from repro.sim.sampler import SEG_LITERAL, Sample

    def main(t):
        yield Work(HOT, US(100))

    prof = CausalProfiler(
        CozConfig(experiment_duration_ns=MS(10)), [ProgressPoint("tick")]
    )
    engine = Engine(SimConfig(sample_period_ns=US(100)))
    engine.install(prof)
    thread = engine.spawn(main, name="main")
    engine.now = MS(5)
    prof._start_experiment(HOT)
    start = prof._start_ns
    batch = engine.sampler.new_buffer(
        [Sample(start + d, thread.tid, HOT, (HOT,), "")
         for d in (-200, -1, 0, 1, 300)]
    )
    assert [seg[0] for seg in batch.segs] == [SEG_LITERAL]
    prof.on_samples(thread, batch)
    prof._end_experiment(prof._experiment_token)
    (experiment,) = prof.data.experiments
    assert experiment.line == HOT
    assert experiment.selected_samples == 3
