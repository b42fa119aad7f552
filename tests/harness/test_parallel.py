"""Process-parallel executor: determinism, robustness, fallback semantics.

Failure-injection builders use ``multiprocessing.parent_process()`` to
detect whether they are running inside a pool worker (non-None) or in the
main process (None): a run can then fail *only* worker-side, so the
executor's retry-in-parent path is observable and the session completes.
"""

import json
import multiprocessing
import os
import signal
import threading
import warnings

import pytest

from repro.apps import registry
from repro.apps.example import build_example
from repro.core.config import CozConfig
from repro.harness import parallel
from repro.harness.comparison import compare_app, compare_builds, measure_runtimes
from repro.harness.journal import SessionJournal
from repro.harness.overhead import measure_overhead
from repro.harness.parallel import (
    AUTO_JOBS,
    ParallelExecutionWarning,
    resolve_jobs,
)
from repro.harness.request import ExecutionConfig, ResilienceConfig
from repro.harness.runner import ProfileRequest, profile_app, run_profile_session
from repro.sim.clock import MS


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _build_crashy(**kwargs):
    if _in_worker():
        raise RuntimeError("injected worker failure")
    return build_example(rounds=3)


def _build_killer(**kwargs):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return build_example(rounds=3)


def _hanging_app(hangs):
    """Builder of an app whose run with seed ``s`` blocks until the pool
    terminates its worker when ``hangs(s)``; runs in the parent never hang."""

    def builder(**kwargs):
        spec = build_example(rounds=3)
        inner = spec.build

        def build(seed):
            if hangs(seed) and _in_worker():
                threading.Event().wait()
            return inner(seed)

        spec.build = build
        return spec

    return builder


@pytest.fixture
def injected_app():
    """Register a failure-injection builder; yields a registry.build helper."""
    registered = []

    def make(name, builder):
        registry.register(name, builder, replace=True)
        registered.append(name)
        return registry.build(name)

    yield make
    for name in registered:
        registry.unregister(name)


def _small_cfg(scope):
    return CozConfig(scope=scope, experiment_duration_ns=MS(40))


# -- determinism -------------------------------------------------------------------

def test_resolve_jobs():
    assert resolve_jobs(1, 8) == 1
    assert resolve_jobs(16, 4) == 4          # clamped to task count
    auto = resolve_jobs(AUTO_JOBS, 8)
    assert auto == min(8, os.cpu_count() or 1)
    assert resolve_jobs(None, 8) == auto
    with pytest.raises(ValueError):
        resolve_jobs(-1, 4)


@pytest.mark.parametrize("app,kwargs,cfg_kwargs", [
    ("example", {"rounds": 30}, {"experiment_duration_ns": MS(40)}),
    ("ferret", {"n_queries": 120}, {
        "experiment_duration_ns": MS(20),
        "speedup_values": (0, 25, 50),
        "zero_speedup_prob": 0.4,
    }),
])
def test_parallel_profile_identical_to_serial(app, kwargs, cfg_kwargs):
    """jobs=4 merges the same ProfileData and ranked profile as jobs=1."""
    spec = registry.build(app, **kwargs)
    cfg = CozConfig(scope=spec.scope, **cfg_kwargs)
    serial = profile_app(spec, runs=4, coz_config=cfg, jobs=1)
    fanned = profile_app(spec, runs=4, coz_config=cfg, jobs=4)

    assert serial.data == fanned.data
    assert serial.experiment_count == fanned.experiment_count
    assert len(fanned.run_results) == 4
    assert [r.runtime_ns for r in serial.run_results] == \
        [r.runtime_ns for r in fanned.run_results]

    s_ranked = [(lp.line, lp.slope, [p.program_speedup for p in lp.points])
                for lp in serial.profile.ranked()]
    f_ranked = [(lp.line, lp.slope, [p.program_speedup for p in lp.points])
                for lp in fanned.profile.ranked()]
    assert s_ranked == f_ranked


def test_run_profile_session_with_request():
    spec = registry.build("example", rounds=20)
    request = ProfileRequest(
        runs=2,
        coz_config=_small_cfg(spec.scope),
        execution=ExecutionConfig(jobs=2),
    )
    out = run_profile_session(spec, request)
    assert len(out.data.runs) == 2
    assert out.experiment_count > 0


def test_measure_runtimes_parallel_matches_serial():
    spec = registry.build("example", rounds=20)
    serial = measure_runtimes(spec, runs=3, jobs=1)
    fanned = measure_runtimes(spec, runs=3, jobs=3)
    assert serial == fanned


def _compare_app(runs, jobs):
    return compare_app("swaptions", runs=runs, jobs=jobs, n_iters=40)


def _compare_registry_specs(runs, jobs):
    return compare_builds(
        "swaptions",
        registry.build("swaptions", n_iters=40),
        registry.build("swaptions", optimized=True, n_iters=40),
        runs=runs, jobs=jobs,
    )


def test_compare_app_parallel_matches_serial():
    for compare in (_compare_app, _compare_registry_specs):
        serial = compare(runs=2, jobs=1)
        with warnings.catch_warnings():
            # registry specs ship to the workers as refs: nothing degrades
            warnings.simplefilter("error", ParallelExecutionWarning)
            fanned = compare(runs=2, jobs=2)
        assert serial.baseline_ns == fanned.baseline_ns
        assert serial.optimized_ns == fanned.optimized_ns
        assert serial.speedup_pct == fanned.speedup_pct


def test_measure_overhead_parallel_matches_serial():
    spec = registry.build("swaptions", n_iters=40)
    serial = measure_overhead(spec, runs=2, jobs=1)
    fanned = measure_overhead(spec, runs=2, jobs=2)
    assert serial == fanned


# -- robustness --------------------------------------------------------------------

def test_raising_worker_is_retried_and_session_completes(injected_app):
    spec = injected_app("_test_crashy", _build_crashy)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_killed_worker_is_retried_and_session_completes(injected_app):
    spec = injected_app("_test_killer", _build_killer)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_timed_out_worker_is_retried_and_session_completes(injected_app, monkeypatch):
    spec = injected_app("_test_hang", _hanging_app(lambda seed: True))
    monkeypatch.setattr(parallel, "WATCHDOG_MAX_DEADLINE_S", 0.25)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_hung_workers_are_terminated_on_timeout(injected_app, monkeypatch):
    """A timed-out run must not orphan its worker: ``Future.cancel()`` is a
    no-op on a running task and ``shutdown(wait=False)`` leaves the process
    grinding, so the executor has to terminate the pool outright.  The
    session still completes (every run retried in the parent) and no pool
    process survives it."""
    spec = injected_app("_test_hang", _hanging_app(lambda seed: True))
    monkeypatch.setattr(parallel, "WATCHDOG_MAX_DEADLINE_S", 0.5)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=4, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 4
    # a hung worker blocks until killed, so a join returns only for a
    # terminated one (the timeout turns a regression into a failure)
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
    assert multiprocessing.active_children() == []


def _journaled_runs(path) -> int:
    """Run and failure records in a session journal."""
    with open(path) as fh:
        kinds = [json.loads(line)["kind"] for line in fh]
    return sum(kind in ("run", "failure") for kind in kinds)


def _hang_session(spec, path, **execution):
    return run_profile_session(spec, ProfileRequest(
        runs=4,
        coz_config=_small_cfg(spec.scope),
        execution=ExecutionConfig(jobs=2, batch_runs=1, **execution),
        resilience=ResilienceConfig(journal=path),
    ))


def test_runs_finished_before_a_hang_are_journaled(injected_app, tmp_path, monkeypatch):
    """Stopping the pool after a hang delivers the batches that already
    finished through the journal hook, like every other run."""
    spec = injected_app("_test_seed0_hangs", _hanging_app(lambda seed: seed == 0))
    path = str(tmp_path / "hang.jsonl")
    monkeypatch.setattr(parallel, "WATCHDOG_MAX_DEADLINE_S", 0.5)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = _hang_session(spec, path)
    merged = len(out.data.runs) + len(out.data.failures)
    assert merged == 4
    assert _journaled_runs(path) == merged


def test_runs_finished_before_the_deadline_are_journaled(
    injected_app, tmp_path, monkeypatch, fake_clock
):
    """A session cut at its deadline journals every run it merged, so a
    resumed session or a service resubmit does not run them again."""
    spec = injected_app("_test_late_seeds_hang", _hanging_app(lambda seed: seed >= 2))
    path = str(tmp_path / "deadline.jsonl")
    monkeypatch.setattr(parallel, "WATCHDOG_MAX_DEADLINE_S", 0.5)
    record_run = SessionJournal.record_run

    def record_then_expire(journal, *args):
        record_run(journal, *args)
        if _journaled_runs(path) == 2:
            fake_clock.advance(60.0)  # past the deadline, with runs 2-3 hung

    monkeypatch.setattr(SessionJournal, "record_run", record_then_expire)
    out = _hang_session(spec, path, deadline_s=60.0)
    assert out.deadline_exceeded
    merged = len(out.data.runs) + len(out.data.failures)
    assert merged == 2
    assert _journaled_runs(path) == merged


def test_pool_start_failure_degrades_to_serial(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this environment")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", NoPool)
    spec = registry.build("example", rounds=20)
    cfg = _small_cfg(spec.scope)
    with pytest.warns(ParallelExecutionWarning, match="running serially"):
        fanned = profile_app(spec, runs=2, coz_config=cfg, jobs=2)
    serial = profile_app(spec, runs=2, coz_config=cfg, jobs=1)
    assert fanned.data == serial.data


def test_unpicklable_factory_degrades_to_serial():
    # built directly (not via the registry): the build closure cannot cross
    # process boundaries, so the session must warn and run serially
    spec = build_example(rounds=20)
    assert spec.registry_ref is None
    cfg = _small_cfg(spec.scope)
    with pytest.warns(ParallelExecutionWarning, match="not picklable"):
        fanned = profile_app(spec, runs=2, coz_config=cfg, jobs=2)
    serial = profile_app(spec, runs=2, coz_config=cfg, jobs=1)
    assert fanned.data == serial.data


# -- CLI ---------------------------------------------------------------------------

def test_cli_profile_and_compare_with_jobs(capsys):
    from repro.cli import main

    assert main([
        "profile", "example", "--runs", "2", "--jobs", "2",
        "--experiment-ms", "60", "--speedup-step", "50",
    ]) == 0
    out = capsys.readouterr().out
    assert "Causal profile" in out
    assert "example.cpp" in out

    assert main(["compare", "swaptions", "--runs", "2", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "swaptions" in out and "%" in out
