"""The snapshot byte container.

Covers :meth:`~repro.sim.snapshot.EngineSnapshot.to_bytes` /
:meth:`~repro.sim.snapshot.EngineSnapshot.from_bytes`, the ``RSNP``
format of the on-disk checkpoint cache.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.harness.checkpoint import CheckpointStore, clear_memory_cache
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    EngineSnapshot,
    Recorder,
    SnapshotError,
)


def _snapshot(seed=0):
    """One real mid-run snapshot from a short example run."""
    spec = registry.build("example", rounds=10)
    cfg = replace(CozConfig(scope=spec.scope), seed=seed)
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    program = spec.build(seed)
    probe = program.run(hook=prof)
    grid = [int(probe.runtime_ns * 0.5)]
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    recorder = Recorder(grid=grid, keep_all=True)
    spec.build(seed).run(hook=prof, recorder=recorder)
    assert recorder.snapshots
    return spec, recorder.snapshots[-1]


def _resume_fingerprint(spec, snap, seed=0):
    cfg = replace(CozConfig(scope=spec.scope), seed=seed)
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    result = spec.build(seed).resume(snap, hook=prof)
    return (result.runtime_ns, result.events_processed, prof.data.to_json())


# -- byte container ----------------------------------------------------------------

def test_snapshot_bytes_round_trip_resumes_identically():
    spec, snap = _snapshot()
    blob = snap.to_bytes()
    assert blob[:4] == EngineSnapshot.WIRE_MAGIC
    back = EngineSnapshot.from_bytes(blob)
    assert back.version == snap.version == SNAPSHOT_VERSION
    assert _resume_fingerprint(spec, back) == _resume_fingerprint(spec, snap)


def test_snapshot_bytes_rejects_bad_magic_and_versions():
    _, snap = _snapshot()
    blob = bytearray(snap.to_bytes())
    with pytest.raises(SnapshotError):
        EngineSnapshot.from_bytes(b"XXXX" + bytes(blob[4:]))
    future = bytearray(blob)
    future[4] = 99  # container version
    with pytest.raises(SnapshotError):
        EngineSnapshot.from_bytes(bytes(future))
    layout = bytearray(blob)
    layout[5:9] = (SNAPSHOT_VERSION + 1).to_bytes(4, "little")
    with pytest.raises(SnapshotError):
        EngineSnapshot.from_bytes(bytes(layout))
    with pytest.raises(SnapshotError):
        EngineSnapshot.from_bytes(b"RS")  # truncated
    # a valid header over a payload that does not unpickle
    garbage = bytes(blob[:9]) + b"not a pickle"
    with pytest.raises(SnapshotError, match="unreadable snapshot payload"):
        EngineSnapshot.from_bytes(garbage)


def test_snapshot_container_header_layout_is_pinned():
    """The RSNP header is 9 bytes: magic, container version 1, then the
    snapshot layout version as a little-endian u32; the pickle follows."""
    import pickle

    _, snap = _snapshot()
    blob = snap.to_bytes()
    assert blob[:9] == b"RSNP" + bytes([1]) + SNAPSHOT_VERSION.to_bytes(4, "little")
    assert EngineSnapshot.WIRE_MAGIC == b"RSNP" and EngineSnapshot.WIRE_VERSION == 1
    payload = pickle.loads(blob[9:])
    assert isinstance(payload, EngineSnapshot) and payload.when == snap.when


def test_disk_store_round_trips_byte_container(tmp_path):
    spec, snap = _snapshot()
    store = CheckpointStore("disk-rt", directory=str(tmp_path))
    store.put(0, snap)
    clear_memory_cache()
    store2 = CheckpointStore("disk-rt", directory=str(tmp_path))
    back = store2.get(0)
    assert back is not None
    assert _resume_fingerprint(spec, back) == _resume_fingerprint(spec, snap)
