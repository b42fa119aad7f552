"""Checkpoint store, fingerprinting, and warm-session identity."""

from __future__ import annotations

import multiprocessing
import os
from array import array
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.harness import checkpoint as ckpt
from repro.harness.checkpoint import (
    CheckpointCacheWarning,
    CheckpointStore,
    checkpoint_fingerprint,
    clear_memory_cache,
    execute_run,
)
from repro.harness.request import ExecutionConfig
from repro.harness.runner import ProfileRequest, run_profile_session
from repro.sim.program import Program
from repro.sim.snapshot import SNAPSHOT_VERSION, EngineSnapshot


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def _dummy_snapshot(seed=0, when=0):
    return EngineSnapshot(
        version=SNAPSHOT_VERSION,
        seed=seed,
        when=when,
        n_ids=0,
        ids=array("I"),
        n_specials=0,
        specials=[],
        threads=[],
        sync=[],
        heap=[],
        engine={},
        faults=None,
        hook=None,
    )


# -- fingerprint -------------------------------------------------------------------


def test_fingerprint_normalizes_seed_and_audit_out():
    spec = registry.build("example")
    a = checkpoint_fingerprint(spec, replace(CozConfig(), seed=1), None)
    b = checkpoint_fingerprint(spec, replace(CozConfig(), seed=2), None)
    c = checkpoint_fingerprint(spec, replace(CozConfig(), seed=1, audit=True), None)
    assert a == b == c


def test_fingerprint_varies_with_config_app_and_faults():
    from repro.sim.faults import FaultPlan

    spec = registry.build("example")
    base = checkpoint_fingerprint(spec, CozConfig(), None)
    assert base != checkpoint_fingerprint(
        spec, replace(CozConfig(), enable_sampling=False), None
    )
    assert base != checkpoint_fingerprint(
        registry.build("example", rounds=7), CozConfig(), None
    )
    assert base != checkpoint_fingerprint(
        spec, CozConfig(), FaultPlan.chaos(seed=1)
    )


def test_fingerprint_rejects_unregistered_specs():
    spec = replace(registry.build("example"), registry_ref=None)
    with pytest.raises(ValueError, match="registry"):
        checkpoint_fingerprint(spec, CozConfig(), None)


# -- store -------------------------------------------------------------------------


def test_memory_store_is_an_lru():
    store = CheckpointStore("key")
    for seed in range(ckpt._MEMORY_CAP + 4):
        store.put(seed, _dummy_snapshot(seed))
    assert store.get(0) is None  # evicted
    assert store.get(1) is None
    newest = ckpt._MEMORY_CAP + 3
    assert store.get(newest).seed == newest


def test_memory_store_isolates_fingerprints():
    a = CheckpointStore("key-a")
    b = CheckpointStore("key-b")
    a.put(1, _dummy_snapshot(1))
    assert b.get(1) is None
    assert a.get(1) is not None


def test_disk_store_round_trip(tmp_path):
    d = str(tmp_path / "cache")
    CheckpointStore("key", directory=d).put(3, _dummy_snapshot(3, when=123))
    clear_memory_cache()  # force the disk path
    snap = CheckpointStore("key", directory=d).get(3)
    assert snap is not None and snap.when == 123
    # content-addressed: one <fingerprint>-<seed>.ckpt file, no manifest
    assert os.listdir(d) == ["key-3.ckpt"]


def test_other_fingerprint_in_same_directory_misses_and_coexists(tmp_path):
    """A different configuration sharing the directory can never read the
    first one's checkpoint, and neither purges the other's files."""
    import warnings as _w

    d = str(tmp_path / "cache")
    CheckpointStore("old-key", directory=d).put(1, _dummy_snapshot(1, when=5))
    clear_memory_cache()
    with _w.catch_warnings():
        _w.simplefilter("error", CheckpointCacheWarning)
        new = CheckpointStore("new-key", directory=d)
        assert new.get(1) is None, "one fingerprint read another's checkpoint"
        new.put(1, _dummy_snapshot(1, when=7))
    clear_memory_cache()
    assert sorted(os.listdir(d)) == ["new-key-1.ckpt", "old-key-1.ckpt"]
    assert CheckpointStore("old-key", directory=d).get(1).when == 5
    assert CheckpointStore("new-key", directory=d).get(1).when == 7


def test_corrupt_checkpoint_file_is_discarded_with_a_warning(tmp_path):
    d = str(tmp_path / "cache")
    store = CheckpointStore("key", directory=d)
    os.makedirs(d)  # the store creates its directory on the first put
    header = b"RSNP" + bytes([1]) + SNAPSHOT_VERSION.to_bytes(4, "little")
    blobs = {
        5: b"not a pickle",  # no container header at all
        6: header + b"not a pickle",  # a valid header over a garbage pickle
    }
    for seed, blob in blobs.items():
        with open(os.path.join(d, f"key-{seed}.ckpt"), "wb") as fh:
            fh.write(blob)
    for seed in blobs:
        with pytest.warns(CheckpointCacheWarning, match="unreadable"):
            assert store.get(seed) is None
        assert not os.path.exists(os.path.join(d, f"key-{seed}.ckpt"))


# -- execute_run -------------------------------------------------------------------


def _builder(seed, rounds=40):
    spec = registry.build("example", rounds=rounds)

    def build():
        cfg = replace(CozConfig(scope=spec.scope), seed=seed)
        prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
        return spec.build(seed), prof, None

    return build


def _result_key(result, prof):
    return (
        result.runtime_ns,
        result.sample_count,
        result.events_processed,
        prof.data.to_json(),
    )


def test_execute_run_populates_then_resumes_identically():
    build = _builder(seed=6)
    store = CheckpointStore("fp")
    cold, cold_prof = execute_run(build, 6, store=store)
    assert store.get(6) is not None, "populate pass recorded no checkpoint"
    warm, warm_prof = execute_run(build, 6, store=store)
    assert _result_key(warm, warm_prof) == _result_key(cold, cold_prof)


def test_execute_run_falls_back_cold_on_bad_snapshot():
    build = _builder(seed=8)
    cold, cold_prof = execute_run(build, 8)
    store = CheckpointStore("fp-bad")
    store.put(8, replace(_dummy_snapshot(8), version=99))
    with pytest.warns(CheckpointCacheWarning, match="rerunning cold"):
        warm, warm_prof = execute_run(build, 8, store=store)
    assert _result_key(warm, warm_prof) == _result_key(cold, cold_prof)


# -- session-level identity --------------------------------------------------------


def _session(jobs=1, checkpoint=True, checkpoint_dir=None):
    spec = registry.build("example")
    return run_profile_session(
        spec,
        ProfileRequest(
            runs=2,
            execution=ExecutionConfig(
                jobs=jobs, checkpoint=checkpoint, checkpoint_dir=checkpoint_dir
            ),
        ),
    )


def test_checkpointed_session_matches_cold_session():
    cold = _session(checkpoint=False)
    assert not ckpt._MEMORY, "checkpoint=False must not record snapshots"
    _session(checkpoint=True)  # populate
    assert ckpt._MEMORY, "populate pass recorded nothing"
    warm = _session(checkpoint=True)  # resumes every run
    assert warm.data == cold.data


def _log_resume_pids(monkeypatch, path):
    """Patch ``Program.resume`` to append the resuming process's pid to
    ``path``; fork-started pool workers inherit the patch."""
    real_resume = Program.resume

    def resume(self, snapshot, hook=None, config=None):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_resume(self, snapshot, hook=hook, config=config)

    monkeypatch.setattr(Program, "resume", resume)


def test_parallel_session_resumes_from_disk_cache(tmp_path, monkeypatch):
    """A warm ``jobs=2`` session resumes every run inside a pool worker,
    in two cases: a cache directory with the memory cache cleared (the
    workers read the files), and no directory at all (the workers read
    the memory cache they inherited).  A cold run gives identical output,
    so the test counts the resumes, not just the profile."""
    cold = _session(checkpoint=False)
    pid_log = tmp_path / "resume-pids"
    _log_resume_pids(monkeypatch, pid_log)
    d = str(tmp_path / "cache")
    for checkpoint_dir in (d, None):
        clear_memory_cache()
        _session(checkpoint=True, checkpoint_dir=checkpoint_dir)  # populate
        if checkpoint_dir is not None:
            assert [f for f in os.listdir(d) if f.endswith(".ckpt")]
            clear_memory_cache()
        pid_log.write_text("")
        warm = _session(jobs=2, checkpoint=True, checkpoint_dir=checkpoint_dir)
        assert warm.data == cold.data
        if multiprocessing.get_start_method() != "fork":
            continue  # the patch and the memory cache reach forked workers only
        pids = pid_log.read_text().split()
        assert len(pids) == len(warm.data.runs), (
            f"{len(pids)} of {len(warm.data.runs)} runs resumed "
            f"(checkpoint_dir={checkpoint_dir!r})"
        )
        assert str(os.getpid()) not in pids, "a run resumed in the parent"


# -- cross-process coordination ----------------------------------------------


def _concurrent_open_and_put(directory, key, barrier, errors, idx):
    """Worker for the multiprocessing dedup test: every process opens the
    same cache directory at the same instant, then races to populate the
    same seeds (first-writer-wins on disk)."""
    try:
        barrier.wait(timeout=30)
        store = CheckpointStore(key, directory=directory)
        for seed in range(4):
            store.put(seed, _dummy_snapshot(seed, when=seed * 10))
        for seed in range(4):
            snap = store.get(seed)
            assert snap is not None and snap.when == seed * 10
    except BaseException as exc:  # report, don't hang the parent
        errors.put(f"worker {idx}: {type(exc).__name__}: {exc}")


@pytest.mark.skipif(os.name != "posix", reason="fork start method required")
def test_concurrent_processes_share_one_disk_cache(tmp_path):
    """N real processes open and populate one cache concurrently: puts are
    atomic first-writer-wins on content-addressed names, and nothing
    corrupts or leaks a temporary file."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    d = str(tmp_path / "cache")
    n = 4
    barrier = ctx.Barrier(n)
    errors = ctx.Queue()
    procs = [
        ctx.Process(
            target=_concurrent_open_and_put, args=(d, "shared-key", barrier, errors, i)
        )
        for i in range(n)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert errors.empty(), errors.get()

    # exactly one coherent cache came out the other side
    assert sorted(os.listdir(d)) == [f"shared-key-{i}.ckpt" for i in range(4)]
    # no leftover temp files from racing snapshot writers
    assert not [f for f in os.listdir(d) if ".tmp" in f]
    clear_memory_cache()
    for seed in range(4):
        snap = CheckpointStore("shared-key", directory=d).get(seed)
        assert snap is not None and snap.when == seed * 10
