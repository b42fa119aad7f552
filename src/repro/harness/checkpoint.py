"""Checkpoint store and warm-run orchestration for the fast-forward path.

The snapshot machinery (:mod:`repro.sim.snapshot`) captures one run's state
mid-flight; this module decides *which* runs get to reuse those captures.
Because run ``i`` of a session is always seeded ``base_seed + i``, a run is
bit-identical to any earlier execution of the same (session configuration,
seed) pair — so the store keys checkpoints by a canonical *run fingerprint*
(derived with the same :func:`~repro.harness.journal.run_identity` fields
the journal uses) plus the per-run seed.

Storage is two-level:

* a process-global in-memory LRU, so repeated sessions in one process
  (doctor identity checks, back-to-back CLI and service sessions)
  resume without touching disk;
* an optional on-disk cache directory, shared between the parent and pool
  workers and across processes.  Files are content-addressed,
  ``<fingerprint>-<seed>.ckpt`` (the fingerprint covers the snapshot
  layout version), so one configuration can never read another's
  checkpoint and the directory needs no manifest or lock: each file is
  written once, atomically, by :func:`repro.storage.write_once`.  A
  directory reused across configurations keeps every configuration's
  files side by side rather than purging them.

:func:`execute_run` is the single entry point the executor uses: resume
from the stored snapshot when there is one, fall back to a cold run
(rebuilding the program from scratch — a partially-replayed program has
dirty closures), and record fresh checkpoints on the way through.  A run
task carries only its session's :class:`CheckpointStore` (a fingerprint
and a directory name), never a snapshot: whichever process executes the
task does the one lookup, in its own memory first and then on disk.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import warnings
from typing import Any, Callable, Optional, Tuple

from repro.harness.journal import run_identity
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    EngineSnapshot,
    Recorder,
    SnapshotError,
)
from repro.storage import LRU, write_once

__all__ = [
    "CheckpointStore",
    "checkpoint_fingerprint",
    "execute_run",
    "clear_memory_cache",
]

_MEMORY_CAP = 64

#: process-global LRU of deepest checkpoints, keyed (fingerprint, seed).
#: Pool workers forked from a warm parent inherit this populated, so their
#: store lookups hit without a snapshot byte crossing the pool boundary.
#: Workers started any other way (spawn, forkserver) begin empty and read
#: the cache directory, or run cold when the session has none.
_MEMORY = LRU(_MEMORY_CAP)


class CheckpointCacheWarning(UserWarning):
    """A checkpoint cache was unreadable or unwritable."""


def clear_memory_cache() -> None:
    """Drop every in-memory checkpoint (tests and cold-session baselines)."""
    _MEMORY.clear()


def checkpoint_fingerprint(spec, coz_config, faults) -> str:
    """Canonical fingerprint of everything that shapes a run's trajectory.

    The per-run seed is normalized out (it is part of the store key
    instead), as is the observational ``audit`` flag — audited sessions
    never checkpoint anyway.  Only registry-referenced apps are
    fingerprintable (:func:`~repro.harness.journal.program_identity`
    raises ``ValueError`` otherwise): an unregistered spec has no stable
    identity, and colliding checkpoints would be catastrophically wrong.
    """
    payload = {
        "kind": "checkpoint-run",
        "snapshot_version": SNAPSHOT_VERSION,
        **run_identity(spec, coz_config, faults),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Deepest-checkpoint store for one run fingerprint.

    ``get``/``put`` address snapshots by seed; the fingerprint is fixed at
    construction.  A store is only an address — fingerprint and cache
    directory — over the process-global LRU and the content-addressed
    files, so it rides in a pickled run task for a few dozen bytes.  All
    disk failures degrade to warnings — a checkpoint store must never be
    able to fail a profiling session.
    """

    def __init__(self, key: str, directory: Optional[str] = None) -> None:
        self.key = key
        self.directory = directory

    def get(self, seed: int) -> Optional[EngineSnapshot]:
        snap = _MEMORY.get((self.key, seed))
        if snap is None and self.directory is not None:
            snap = self._disk_get(seed)
        return snap

    def put(self, seed: int, snapshot: EngineSnapshot) -> None:
        _MEMORY.put((self.key, seed), snapshot)
        if self.directory is None:
            return
        path = self._path(seed)
        try:
            os.makedirs(self.directory, exist_ok=True)
            # checkpoints are a rebuildable cache: atomic, but not fsync'd
            write_once(path, snapshot.to_bytes(), fsync=False)
        except (OSError, pickle.PicklingError) as exc:
            warnings.warn(
                f"could not write checkpoint {path!r} ({exc})",
                CheckpointCacheWarning,
                stacklevel=2,
            )

    def _path(self, seed: int) -> str:
        return os.path.join(self.directory, f"{self.key}-{seed}.ckpt")

    def _disk_get(self, seed: int) -> Optional[EngineSnapshot]:
        path = self._path(seed)
        try:
            with open(path, "rb") as fh:
                snap = EngineSnapshot.from_bytes(fh.read())
        except FileNotFoundError:
            return None
        except (OSError, SnapshotError) as exc:
            warnings.warn(
                f"discarding unreadable checkpoint {path!r} ({exc})",
                CheckpointCacheWarning,
                stacklevel=3,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        _MEMORY.put((self.key, seed), snap)
        return snap


# ------------------------------------------------------------ orchestration


def execute_run(
    build: Callable[[], Tuple[Any, Any, Any]],
    seed: int,
    store: Optional[CheckpointStore] = None,
):
    """Execute one run warm if possible, cold (and recording) otherwise.

    ``build`` returns a fresh ``(program, profiler_hook, run_config)``
    triple and must be cheap and repeatable: a failed resume re-invokes it,
    because the snapshot replay partially re-executes the program's
    generators and a dirtied program cannot simply be rerun.

    A pool worker whose store has no cache directory looks its snapshot up
    but records none: its in-memory cache dies with the process, so a
    capture there is pure overhead.

    Returns ``(RunResult, profiler_hook)`` — the hook actually used, which
    on the warm path carries the restored profile state.
    """
    program, profiler, run_config = build()
    snapshot = store.get(seed) if store is not None else None
    if snapshot is not None:
        try:
            result = program.resume(snapshot, hook=profiler, config=run_config)
            return result, profiler
        except SnapshotError as exc:
            warnings.warn(
                f"checkpoint resume failed ({exc}); rerunning cold",
                CheckpointCacheWarning,
                stacklevel=2,
            )
            program, profiler, run_config = build()
    if store is None or (
        store.directory is None and multiprocessing.parent_process() is not None
    ):
        return program.run(hook=profiler, config=run_config), profiler
    recorder = Recorder()
    try:
        result = program.run(hook=profiler, config=run_config, recorder=recorder)
    finally:
        # snapshots taken before a deterministic failure are still valid —
        # a resume reproduces the failure identically, which is exactly
        # what bit-identity demands
        if recorder.snapshots:
            try:
                store.put(seed, recorder.snapshots[-1])
            except Exception as exc:  # the store must never fail a session
                warnings.warn(
                    f"could not store checkpoint for seed {seed} ({exc})",
                    CheckpointCacheWarning,
                    stacklevel=2,
                )
    return result, profiler
