"""Batched run dispatch and the warm-worker data plane.

Covers the executor's batch, a slice of runs shipped as one future:
auto-sizing, bit-identity across batch sizes, a poisoned batch finishing
in the parent, the picklability check, and the process-global worker
caches (registry spec memoization).
"""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.apps import registry
from repro.apps.example import build_example
from repro.core.config import CozConfig
from repro.harness import parallel
from repro.harness.parallel import ParallelExecutionWarning, auto_batch_size
from repro.harness.request import ExecutionConfig, ProfileRequest
from repro.harness.runner import profile_app, run_profile_session
from repro.sim.clock import MS


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _small_cfg(scope):
    return CozConfig(scope=scope, experiment_duration_ns=MS(40))


def _request(runs, scope, **exec_kwargs):
    return ProfileRequest(
        runs=runs,
        coz_config=_small_cfg(scope),
        execution=ExecutionConfig(**exec_kwargs),
    )


def _build_poisoned_seed(**kwargs):
    """App whose run with seed 1 crashes, but only inside a pool worker."""
    spec = build_example(rounds=3)
    inner = spec.build

    def build(seed):
        if seed == 1 and _in_worker():
            raise RuntimeError("poisoned run")
        return inner(seed)

    spec.build = build
    return spec


@pytest.fixture
def injected_app():
    registered = []

    def make(name, builder):
        registry.register(name, builder, replace=True)
        registered.append(name)
        return registry.build(name)

    yield make
    for name in registered:
        registry.unregister(name)


# -- auto sizing -------------------------------------------------------------------

def test_auto_batch_size_trivial_cases():
    assert auto_batch_size(0, 4) == 1
    assert auto_batch_size(1, 4) == 1
    assert auto_batch_size(20, 1) == 1
    assert auto_batch_size(20, 0) == 1


def test_auto_batch_size_oversubscribed_covers_in_one_wave(monkeypatch):
    # more workers than cores: parallelism is time-slicing, so the whole
    # session ships as one batch per worker (ceil(n/jobs))
    monkeypatch.setattr(parallel, "_effective_cores", lambda: 1)
    assert auto_batch_size(20, 4) == 5
    assert auto_batch_size(21, 4) == 6
    assert auto_batch_size(4, 2) == 2


def test_auto_batch_size_undersubscribed_keeps_work_stealing(monkeypatch):
    # real cores available: keep several batches per worker in flight so a
    # slow run does not leave workers idle
    monkeypatch.setattr(parallel, "_effective_cores", lambda: 8)
    assert auto_batch_size(64, 2) == 8
    assert auto_batch_size(8, 2) == 1


def test_auto_batch_size_is_capped(monkeypatch):
    monkeypatch.setattr(parallel, "_effective_cores", lambda: 1)
    assert auto_batch_size(1000, 4) == parallel._MAX_BATCH


# -- identity ----------------------------------------------------------------------

def test_batched_sessions_identical_to_serial_across_sizes():
    spec = registry.build("example", rounds=20)
    serial = run_profile_session(
        registry.build("example", rounds=20),
        _request(5, spec.scope, jobs=1),
    )
    for batch_runs in (1, 2, 5):
        batched = run_profile_session(
            registry.build("example", rounds=20),
            _request(5, spec.scope, jobs=2, batch_runs=batch_runs),
        )
        assert batched.data == serial.data, f"batch_runs={batch_runs} diverged"
        assert batched.data.to_json() == serial.data.to_json()


def test_batched_journal_resume_identity(tmp_path):
    from repro.harness.request import ResilienceConfig

    spec = registry.build("example", rounds=20)
    serial = run_profile_session(
        registry.build("example", rounds=20), _request(4, spec.scope, jobs=1),
    )
    path = str(tmp_path / "batched.journal")
    run_profile_session(
        registry.build("example", rounds=20),
        ProfileRequest(
            runs=4, coz_config=_small_cfg(spec.scope),
            execution=ExecutionConfig(jobs=2, batch_runs=4),
            resilience=ResilienceConfig(journal=path, stop_after_runs=2),
        ),
    )
    resumed = run_profile_session(
        registry.build("example", rounds=20),
        ProfileRequest(
            runs=4, coz_config=_small_cfg(spec.scope),
            execution=ExecutionConfig(jobs=2, batch_runs=4),
            resilience=ResilienceConfig(resume=path),
        ),
    )
    assert resumed.data == serial.data


# -- failure semantics -------------------------------------------------------------

def test_poisoned_run_splits_batch_and_session_completes(injected_app):
    # one poisoned run inside a 4-run batch sinks the batch's future; its
    # runs retry in the parent and the session's data matches serial
    spec = injected_app("_test_poisoned", _build_poisoned_seed)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = run_profile_session(
            spec, _request(4, spec.scope, jobs=2, batch_runs=4),
        )
    assert len(out.data.runs) == 4
    serial = profile_app(
        spec, runs=4, coz_config=_small_cfg(spec.scope), jobs=1,
    )
    assert out.data == serial.data


def test_worker_killed_mid_batch_still_completes(injected_app):
    def _build_killer_seed(**kwargs):
        spec = build_example(rounds=3)
        inner = spec.build

        def build(seed):
            if seed == 1 and _in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            return inner(seed)

        spec.build = build
        return spec

    spec = injected_app("_test_batch_killer", _build_killer_seed)
    with pytest.warns(ParallelExecutionWarning):
        out = run_profile_session(
            spec, _request(4, spec.scope, jobs=2, batch_runs=2),
        )
    assert len(out.data.runs) == 4


# -- picklability ------------------------------------------------------------------

def test_unpicklable_factory_still_degrades_to_serial():
    spec = build_example(rounds=20)
    assert spec.registry_ref is None
    cfg = _small_cfg(spec.scope)
    with pytest.warns(ParallelExecutionWarning, match="not picklable"):
        fanned = profile_app(spec, runs=2, coz_config=cfg, jobs=2)
    serial = profile_app(spec, runs=2, coz_config=cfg, jobs=1)
    assert fanned.data == serial.data


def test_registry_task_pickles_as_its_ref():
    # a registry-built spec's build is a closure: the task ships the ref,
    # and the receiving process rebuilds the spec once through its memo
    from repro.apps.registry import cached_build
    from repro.harness.parallel import RunTask

    spec = registry.build("example", rounds=20)
    blob = pickle.dumps(RunTask(index=0, seed=0, spec=spec))
    assert b"AppRef" in blob and b"AppSpec" not in blob
    assert pickle.loads(blob).spec is cached_build(spec.registry_ref)


# -- worker-side caches ------------------------------------------------------------

def test_cached_build_memoizes_and_invalidates():
    from repro.apps.registry import cached_build, clear_spec_cache

    clear_spec_cache()
    ref = registry.build("example", rounds=20).registry_ref
    first = cached_build(ref)
    assert cached_build(ref) is first
    # re-registering the name must drop the memoized spec: tests and
    # third-party apps replace builders in place
    registry.register("_test_cache_probe", lambda **kw: build_example(rounds=3))
    try:
        probe_ref = registry.build("_test_cache_probe").registry_ref
        probe_spec = cached_build(probe_ref)
        registry.register(
            "_test_cache_probe", lambda **kw: build_example(rounds=5),
            replace=True,
        )
        assert cached_build(probe_ref) is not probe_spec
    finally:
        registry.unregister("_test_cache_probe")
    assert cached_build(ref) is first  # unrelated names stay cached


# -- dispatch payload --------------------------------------------------------------

#: pickled bytes a warm pool session may ship per run: the task, its
#: config and the checkpoint store's address (fingerprint and cache
#: directory), never a snapshot (a ferret snapshot is about 240 KB)
DISPATCH_BYTES_PER_RUN_BUDGET = 2048

#: pickled bytes a warm pool session may ship home per run: the run
#: summary and the profile document, never a live object or a snapshot
#: (about 3.3 KB/run today; a snapshot riding home is about 240 KB/run)
RETURN_BYTES_PER_RUN_BUDGET = 8192

RUNS = 20


def _warm_ferret_session(monkeypatch, measuring_submit):
    """A cold serial 20-run ferret session fills the checkpoint cache; a
    warm ``jobs=2`` session then runs with ``measuring_submit`` patched
    over the executor's batch submit.  Asserts the two profiles are equal."""
    from repro.harness.checkpoint import clear_memory_cache

    clear_memory_cache()
    try:
        cold = run_profile_session(
            registry.build("ferret"),
            ProfileRequest(runs=RUNS, execution=ExecutionConfig(jobs=1)),
        )
        monkeypatch.setattr(parallel, "_submit", measuring_submit)
        warm = run_profile_session(
            registry.build("ferret"),
            ProfileRequest(runs=RUNS, execution=ExecutionConfig(jobs=2)),
        )
    finally:
        clear_memory_cache()
    assert warm.data == cold.data


def test_warm_dispatch_payload_within_budget(monkeypatch):
    """A warm parallel session ships each worker its tasks, which name
    the checkpoint store but carry no snapshot: the bytes handed to the
    pool are a counter, the same on any machine.  The batch count is not
    gated; it depends on the usable cores."""
    shipped = []
    real_submit = parallel._submit

    def measuring_submit(pool, tasks, deadline_monotonic):
        shipped.append(len(pickle.dumps(tasks)))
        return real_submit(pool, tasks, deadline_monotonic)

    _warm_ferret_session(monkeypatch, measuring_submit)
    assert shipped, "the warm session never dispatched to the pool"
    per_run = sum(shipped) / RUNS
    assert per_run <= DISPATCH_BYTES_PER_RUN_BUDGET, (
        f"{per_run:,.0f} B/run shipped to pool workers "
        f"(budget {DISPATCH_BYTES_PER_RUN_BUDGET} B/run)"
    )


def test_warm_return_payload_within_budget(monkeypatch):
    """The return direction of the same session: each ``RunOutput`` a
    worker ships home carries the run summary and the profile document
    as bytes.  Counted as pickled bytes, the same on any machine."""
    returned = []
    real_submit = parallel._submit

    def count_outputs(future):
        if future.exception() is None:
            returned.extend(len(pickle.dumps(out)) for out in future.result())

    def measuring_submit(pool, tasks, deadline_monotonic):
        future = real_submit(pool, tasks, deadline_monotonic)
        future.add_done_callback(count_outputs)
        return future

    _warm_ferret_session(monkeypatch, measuring_submit)
    assert len(returned) == RUNS, "not every run came home from the pool"
    per_run = sum(returned) / RUNS
    assert per_run <= RETURN_BYTES_PER_RUN_BUDGET, (
        f"{per_run:,.0f} B/run shipped home from pool workers "
        f"(budget {RETURN_BYTES_PER_RUN_BUDGET} B/run)"
    )
