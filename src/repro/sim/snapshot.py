"""Checkpoint fast-forward: deep capture/restore of a mid-run simulation.

A Coz session re-runs the same program once per (line, speedup) experiment,
and in a deterministic simulator every run with the same seed is
bit-identical up to the instant the first virtual-speedup delay lands.  This
module lets the harness simulate that shared prefix once and *resume* every
subsequent run from a snapshot instead of from t=0 (the rr / gem5
checkpointing idea applied to the DES).

The hard part is that VThreads are Python generators, which cannot be
pickled or deep-copied.  Capture therefore works by **record and replay**:

* While a :class:`Recorder` is attached, the engine logs every generator
  interaction to a global :class:`~repro.sim.engine.OpLog` in two columns:
  the thread id of each *common* entry (a ``None`` send whose op introduces
  no new sync primitive — nearly all of them) in a flat array, and a short
  list of positioned special entries — other sends, generator stops, and
  spawn executions (child-tid assignment order is a scheduling fact, not
  derivable from yield order).  Sync primitives get first-encounter
  integer ids as their ops are logged.  Each capture serializes only the
  special entries added since the last one: send values become small
  descriptors (scalars verbatim, threads and exit values by tid).
* :func:`restore` rebuilds the program from scratch, replays the logged
  sends in their original global order — which re-executes the generator
  bodies and thereby reconstructs every closure (channels, work tables,
  spin-lock counters) exactly — and then overlays the engine-owned state the
  replay cannot reproduce: thread scheduling fields, sync-primitive
  wait-sets, the event heap verbatim, RNG streams, sampler accumulators,
  and the profiler hook's own snapshot.  The replay runs each id-column
  slice between two special entries as one tight loop of bound
  ``gen.send(None)`` calls; threads, sync ids and every desync check are
  handled at the special entries alone.

Bit-identity of a resumed run rests on three engine properties (see
DESIGN.md §5f): the heap's tuple ordering never compares event payloads
(the ``seq`` field is unique), every iteration over the ``running`` set is
tid-sorted, and all remaining cross-run state is either overlaid here or
rebuilt value-identically by the replay.

Capture is strictly best-effort: any state the recorder cannot serialize
(an unknown timer callable, a non-scalar send value that is not a thread or
exit value) raises :class:`SnapshotError`, the recorder warns once and
disables itself, and the run simply continues cold.
"""

from __future__ import annotations

import pickle
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim import ops as O
from repro.sim.clock import MS
from repro.sim.engine import (
    _EV_TIMER,
    _SYNC_ATTRS,
    _T_SEND,
    _T_SPAWN,
    _T_STOP,
    Engine,
    OpLog,
    SimConfig,
    SimulationError,
)
from repro.sim.sync import Barrier, CondVar, Mutex, Semaphore
from repro.sim.thread import Frame, ThreadState, VThread
from repro.storage import frame, unframe

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "EngineSnapshot",
    "Recorder",
    "restore",
    "op_stream",
]

#: bump whenever the capture layout changes; restore refuses other versions
SNAPSHOT_VERSION = 3

#: first checkpoint-grid point (virtual ns)
DEFAULT_GRID_FIRST_NS = MS(10)
#: geometric growth of the grid spacing; the deepest checkpoint is then
#: always within (1 - 1/factor) of the end of any prefix, so a resumed run
#: re-simulates at most ~20% of the shared prefix with the default 1.25
DEFAULT_GRID_FACTOR = 1.25
#: hard cap on captures per run (runaway-grid backstop)
DEFAULT_MAX_SNAPSHOTS = 64


class SnapshotError(SimulationError):
    """State could not be captured or restored faithfully."""


# send values that serialize verbatim (never tuples, so descriptors — which
# are tuples — stay unambiguous)
_SCALAR_TYPES = (type(None), bool, int, float, str)


def _check_continuation_name(name: str) -> None:
    if not (name.startswith("_do_") or name in ("_setup_op_body", "_finish_exit")):
        raise SnapshotError(f"unexpected continuation method {name!r}")


def _check_timer_name(name: str) -> None:
    if not name.startswith("_fault_"):
        raise SnapshotError(f"unexpected engine timer method {name!r}")


@dataclass
class EngineSnapshot:
    """Deep, versioned capture of a running engine at one instant.

    The op log to replay is the recorder's :class:`~repro.sim.engine.OpLog`
    in serialized form: the first ``n_ids`` thread ids of ``ids`` and the
    ``specials`` logged before the capture, their send values as
    descriptors.  ``ids`` is *shared* between all snapshots taken by one
    recorder and keeps growing after the capture, so a geometric grid of
    checkpoints costs O(total ops), not O(ops × grid); pickling keeps only
    the snapshot's own prefix.  The structure contains only plain data
    (ints, strings, tuples, arrays, SourceLines, Samples), so it pickles
    cleanly for the on-disk cache and for shipping to parallel workers.
    """

    version: int
    seed: int
    when: int                     # virtual time of capture
    n_ids: int                    # replay prefix length into ids
    ids: array                    # op-log id column (shared, see above)
    specials: Tuple[tuple, ...]   # serialized special entries
    threads: List[dict]           # per-tid engine-owned overlays
    sync: List[tuple]             # (type_name, state) per registered primitive
    heap: List[tuple]             # event heap verbatim, threads/timers by ref
    engine: Dict[str, Any]        # engine scalars + RNG state
    faults: Optional[dict]        # fault-injector overlay (None if no plan)
    hook: Optional[Any]           # profiler hook's own snapshot_state()

    #: byte-container magic (versioned separately from SNAPSHOT_VERSION:
    #: the container wraps whatever snapshot layout is current)
    WIRE_MAGIC = b"RSNP"
    WIRE_VERSION = 1

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["ids"] = self.ids[: self.n_ids]
        return state

    def to_bytes(self) -> bytes:
        """Versioned byte container for shipping/storing this snapshot.

        Used by the checkpoint store's disk files and by the parallel
        executor when a snapshot must cross a process boundary that cannot
        inherit it (non-fork start methods).  The payload is a pickle —
        the structure is plain data by construction — behind a
        :func:`repro.storage.frame` header and a u32 snapshot layout
        version, so readers can reject foreign or future layouts without
        unpickling.
        """
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        return frame(
            self.WIRE_MAGIC,
            self.WIRE_VERSION,
            self.version.to_bytes(4, "little") + payload,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EngineSnapshot":
        """Rebuild from :meth:`to_bytes`; raises :class:`SnapshotError` on
        foreign magic, unsupported container versions, or payload rot."""
        body = unframe(blob, cls.WIRE_MAGIC, cls.WIRE_VERSION, SnapshotError)
        snap_version = int.from_bytes(body[:4], "little")
        if len(body) < 4 or snap_version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot layout v{snap_version} != current v{SNAPSHOT_VERSION}"
            )
        try:
            snap = pickle.loads(memoryview(body)[4:])
        except Exception as exc:
            raise SnapshotError(f"unreadable snapshot payload ({exc})") from exc
        if not isinstance(snap, cls):
            raise SnapshotError("snapshot payload is not an EngineSnapshot")
        return snap


class Recorder:
    """Attach to a fresh engine; capture snapshots on a geometric time grid.

    The engine run loop calls :meth:`take` whenever virtual time is about to
    cross the next grid point.  Only the latest (deepest) snapshot is kept
    unless ``keep_all`` is set — a deterministic resume never benefits from
    a shallower checkpoint, and dropping the rest bounds memory.
    """

    def __init__(
        self,
        first_ns: int = DEFAULT_GRID_FIRST_NS,
        factor: float = DEFAULT_GRID_FACTOR,
        max_snapshots: int = DEFAULT_MAX_SNAPSHOTS,
        keep_all: bool = False,
        grid: Optional[List[int]] = None,
    ) -> None:
        if grid is not None:
            # explicit capture instants (tests); consumed front to back
            self._grid = sorted(grid)
            self._next: Optional[int] = self._grid[0] if self._grid else None
        else:
            self._grid = None
            self._next = int(first_ns)
        self.factor = factor
        self.max_snapshots = max_snapshots
        self.keep_all = keep_all
        self.snapshots: List[EngineSnapshot] = []
        self.failed = False
        self._taken = 0
        # the engine-written op log; specials before _cursor are serialized
        self._log = OpLog()
        self._cursor = 0

    # -------------------------------------------------------------- attach

    def attach(self, engine: Engine) -> None:
        """Wire the recorder into a not-yet-started engine.

        Refuses configurations whose state the snapshot cannot carry:
        observers (arbitrary state) and hooks without the snapshot
        protocol (``snapshot_state``/``restore_state``/``restore_timer``).
        """
        if engine._started:
            raise SnapshotError("recorder must attach before engine.run()")
        if engine._recorder is not None:
            raise SnapshotError("engine already has a recorder attached")
        if engine.observers:
            raise SnapshotError("engines with observers are not snapshot-aware")
        if engine.hook is not None and not hasattr(engine.hook, "snapshot_state"):
            raise SnapshotError(
                f"hook {type(engine.hook).__name__} is not snapshot-aware"
            )
        engine._recorder = self
        engine._oplog = self._log
        engine._snap_next = self._next

    # ---------------------------------------------------------------- take

    def take(self, engine: Engine) -> Optional[int]:
        """Capture a snapshot now; return the next grid point (None = stop).

        Called by the engine run loop between event pops.  A capture
        failure warns once and permanently disables further captures for
        this run — snapshots already taken remain valid (the run up to
        their instant was recorded faithfully, whatever happens later).
        """
        try:
            snap = self._capture(engine)
        except SnapshotError as exc:
            warnings.warn(
                f"checkpoint capture disabled for this run: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.failed = True
            return None
        if self.keep_all or not self.snapshots:
            self.snapshots.append(snap)
        else:
            self.snapshots[-1] = snap
        self._taken += 1
        if self._taken >= self.max_snapshots:
            return None
        return self._advance_grid(engine)

    def _advance_grid(self, engine: Engine) -> Optional[int]:
        head = engine._heap[0][0] if engine._heap else engine.now
        if self._grid is not None:
            while self._grid and self._grid[0] <= head:
                self._grid.pop(0)
            self._next = self._grid[0] if self._grid else None
            return self._next
        nxt = self._next
        while nxt <= head:
            nxt = max(nxt + 1, int(nxt * self.factor))
        self._next = nxt
        return nxt

    # ------------------------------------------------------------- capture

    def _capture(self, engine: Engine) -> EngineSnapshot:
        log = self._log
        specials = log.specials
        # serialize, in place, the specials logged since the last capture
        # (a spawn entry's value is the parent tid, a scalar already)
        while self._cursor < len(specials):
            pos, tag, tid, value = specials[self._cursor]
            if type(value) not in _SCALAR_TYPES:
                value = self._descr_value(value, engine)
                specials[self._cursor] = (pos, tag, tid, value)
            self._cursor += 1
        return EngineSnapshot(
            version=SNAPSHOT_VERSION,
            seed=engine.cfg.seed,
            when=engine.now,
            n_ids=len(log.ids),
            ids=log.ids,
            specials=tuple(specials),
            threads=[self._thread_state(t, engine) for t in engine.threads],
            sync=[self._sync_state(obj) for obj in log.sync],
            heap=[self._heap_entry(ev, engine) for ev in engine._heap],
            engine=self._engine_state(engine),
            faults=self._fault_state(engine),
            hook=engine.hook.snapshot_state() if engine.hook is not None else None,
        )

    def _descr_value(self, v: Any, engine: Engine) -> Any:
        """Serialize a generator send value.

        Scalars pass through verbatim; descriptors are tuples, which scalar
        sends can never be.  Everything else must be reachable by identity
        from the engine (a thread, or some thread's exit value) — replay
        then resolves the replayed twin, preserving the identity graph.
        """
        if type(v) in _SCALAR_TYPES:
            return v
        if isinstance(v, VThread):
            return ("t", v.tid)
        for t in engine.threads:
            if t.exit_value is v:
                return ("x", t.tid)
        raise SnapshotError(f"cannot serialize send value {v!r}")

    def _thread_state(self, t: VThread, engine: Engine) -> dict:
        cont = t.continuation
        if cont is None:
            cont_d = None
        else:
            fn, op = cont
            if getattr(fn, "__self__", None) is not engine:
                raise SnapshotError(f"continuation {fn!r} is not engine-bound")
            _check_continuation_name(fn.__name__)
            if op is not None and op is not t.current_op:
                raise SnapshotError("continuation op is not the current op")
            cont_d = (fn.__name__, op is not None)
        return {
            "state": t.state.name,
            "send": self._descr_value(t.send_value, engine),
            "activity_remaining": t.activity_remaining,
            "activity_line": t.activity_line,
            "activity_memory_bound": t.activity_memory_bound,
            "chunk_start": t.chunk_start,
            "chunk_nominal": t.chunk_nominal,
            "chunk_rate": t.chunk_rate,
            "chunk_token": t.chunk_token,
            "chain_key": t.chain_key,
            "continuation": cont_d,
            "woken_by": t.woken_by.tid if t.woken_by is not None else None,
            "spinning": t.spinning,
            "blocked_on": t.blocked_on,
            "cpu_ns": t.cpu_ns,
            "profiler_cpu_ns": t.profiler_cpu_ns,
            "pause_ns": t.pause_ns,
            "sample_accum": t.sample_accum,
            "sample_buffer": tuple(t.sample_buffer),
            "pending_pause_ns": t.pending_pause_ns,
            "pending_cpu_ns": t.pending_cpu_ns,
            "stack": tuple((f.func, f.callsite) for f in t.stack),
            "prof": dict(t.prof),
            "joiners": tuple(j.tid for j in t.joiners),
        }

    def _sync_state(self, obj: Any) -> tuple:
        if isinstance(obj, Mutex):
            return (
                "Mutex",
                (
                    obj.owner.tid if obj.owner is not None else None,
                    tuple(t.tid for t in obj.waiters),
                    obj.acquires,
                    obj.contended_acquires,
                ),
            )
        if isinstance(obj, CondVar):
            sync_ids = self._log.sync
            waiters = tuple((t.tid, sync_ids[m]) for (t, m) in obj.waiters)
            return ("CondVar", (waiters, obj.signals, obj.broadcasts))
        if isinstance(obj, Barrier):
            return ("Barrier", (tuple(t.tid for t in obj.arrived), obj.cycles))
        if isinstance(obj, Semaphore):
            return ("Semaphore", (obj.value, tuple(t.tid for t in obj.waiters)))
        raise SnapshotError(f"unknown sync primitive {type(obj).__name__}")

    def _heap_entry(self, ev: tuple, engine: Engine) -> tuple:
        when, lp, sub, seq, kind, obj, arg = ev
        if kind == _EV_TIMER:
            obj_d = self._descr_timer(obj, engine)
        else:
            obj_d = obj.tid
        return (when, lp, sub, seq, kind, obj_d, arg)

    def _descr_timer(self, fn: Any, engine: Engine) -> tuple:
        bound_self = getattr(fn, "__self__", None)
        if bound_self is engine:
            _check_timer_name(fn.__name__)
            return ("e", fn.__name__)
        ref = getattr(fn, "snapshot_ref", None)
        if ref is not None:
            return ("h", fn.snapshot_ref())
        raise SnapshotError(f"cannot serialize pending timer {fn!r}")

    def _engine_state(self, engine: Engine) -> dict:
        return {
            "now": engine.now,
            "seq": engine._seq,
            "timer_count": engine._timer_count,
            "alive": engine._alive,
            "sleeping": engine._sleeping,
            "ready": tuple(t.tid for t in engine.ready),
            # tid-sorted is safe: the engine only ever iterates `running`
            # in tid order (see _mega_chunks / _rescale_running)
            "running": tuple(sorted(t.tid for t in engine.running)),
            "sampling_enabled": engine.sampling_enabled,
            "sampling_live": engine._sampling_live,
            "interference": engine.interference,
            "line_watchers": tuple(engine._line_watchers),
            "progress_counts": dict(engine.progress_counts),
            "total_delay_ns": engine.total_delay_ns,
            "total_cpu_ns": engine.total_cpu_ns,
            "events_processed": engine.events_processed,
            "sampler_total": engine.sampler.total_samples,
            "stalled": engine._stalled.tid if engine._stalled is not None else None,
            "rng": engine.rng.getstate(),
        }

    def _fault_state(self, engine: Engine) -> Optional[dict]:
        inj = engine._faults
        if inj is None:
            return None
        return {"rng": inj._rng.getstate(), "spiked": inj._spiked}


# ------------------------------------------------------------------ restore


def restore(
    snapshot: EngineSnapshot,
    program: Any,
    hook: Optional[Any] = None,
    config: Optional[SimConfig] = None,
) -> Engine:
    """Rebuild a live engine from ``snapshot``; finish it with resume_run().

    ``program`` must be the same program (rebuilt fresh — its generators
    will be partially re-executed by the replay), ``hook`` a *fresh*
    snapshot-aware profiler hook matching the one recorded (or None), and
    ``config`` the same SimConfig the original run used.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {snapshot.version} != {SNAPSHOT_VERSION}"
        )
    cfg = config if config is not None else program.config
    if cfg.seed != snapshot.seed:
        raise SnapshotError(
            f"snapshot was taken with seed {snapshot.seed}, config has {cfg.seed}"
        )
    if (snapshot.hook is None) != (hook is None):
        raise SnapshotError("snapshot/hook presence mismatch")
    if hook is not None and not hasattr(hook, "restore_state"):
        raise SnapshotError(f"hook {type(hook).__name__} is not snapshot-aware")
    engine = Engine(cfg)
    engine.program = program  # type: ignore[attr-defined]
    if (snapshot.faults is None) != (engine._faults is None):
        raise SnapshotError("snapshot/config fault-plan mismatch")
    if hook is not None:
        engine.install(hook)

    threads, sync_objs = _replay(snapshot, program)
    _overlay_sync(snapshot, sync_objs, threads)
    _overlay_threads(snapshot, threads, engine)
    _overlay_engine(snapshot, engine, threads, hook)
    if hook is not None:
        hook.restore_state(snapshot.hook, engine)
    engine._started = True
    return engine


def _resolve(descr: Any, threads: List[VThread]) -> Any:
    if type(descr) is not tuple:
        return descr
    tag, tid = descr
    if tag == "t":
        return threads[tid]
    return threads[tid].exit_value


def _replay(
    snapshot: EngineSnapshot,
    program: Any,
    wrap: Optional[Callable[[int, Optional[int], Callable], Callable]] = None,
) -> Tuple[List[VThread], List[Any]]:
    """Re-execute the logged generator sends; rebuild threads and closures.

    Each id-column slice between two special entries is one tight loop:
    ``cur[tid] = sends[tid](None)`` per entry, nothing else.  Thread
    creation, sync-id rebuilding and the desync checks happen only at
    special entries (see :class:`~repro.sim.engine.OpLog`).  ``sends``
    holds each thread's ``gen.send``; with ``wrap`` given, it holds
    ``wrap(tid, parent_tid, gen.send)`` instead, installed once when the
    thread is created (see :func:`op_stream`).
    """
    threads: List[VThread] = []
    sends: List[Callable] = []
    cur: List[Any] = []  # the last op each thread yielded
    sync_objs: Dict[Any, None] = {}

    def start(t: VThread, parent: Optional[int]) -> None:
        threads.append(t)
        cur.append(None)
        send = t.gen.send
        sends.append(send if wrap is None else wrap(t.tid, parent, send))

    start(VThread(program.main, name="main", tid=0), None)
    ids = snapshot.ids
    n_ids = snapshot.n_ids
    done = 0
    tid = 0
    try:
        # a sentinel special closes the last slice
        for pos, tag, who, value in chain(
            snapshot.specials, ((n_ids, None, 0, None),)
        ):
            if not done <= pos <= n_ids:
                raise SnapshotError(
                    f"replay desync: special entry at {pos} is out of order"
                )
            for tid in ids[done:pos]:
                cur[tid] = sends[tid](None)
            done = pos
            tid = who
            if tag == _T_SEND:
                op = cur[tid] = sends[tid](_resolve(value, threads))
                attrs = _SYNC_ATTRS.get(type(op))
                if attrs is not None:
                    for attr in attrs:
                        sync_objs.setdefault(getattr(op, attr))
            elif tag == _T_SPAWN:
                op = cur[value] if 0 <= value < len(cur) else None
                if type(op) is not O.Spawn:
                    raise SnapshotError(
                        f"replay desync: spawn of thread {tid} but parent "
                        f"{value} yielded {type(op).__name__}"
                    )
                if tid != len(threads):
                    raise SnapshotError(
                        f"replay desync: expected child tid {len(threads)}, "
                        f"log says {tid}"
                    )
                parent = threads[value]
                start(VThread(op.body, name=op.name, parent=parent, tid=tid), value)
            elif tag == _T_STOP:
                try:
                    sends[tid](_resolve(value, threads))
                except StopIteration as stop:
                    threads[tid].exit_value = stop.value
                else:
                    raise SnapshotError(
                        f"replay desync: thread {tid} kept running at {pos}"
                    )
    except SnapshotError:
        raise
    except StopIteration:
        raise SnapshotError(
            f"replay desync: thread {tid} finished early"
        ) from None
    except Exception as exc:
        if not 0 <= tid < len(threads):
            raise SnapshotError(
                f"replay desync: thread {tid} was never spawned"
            ) from None
        raise SnapshotError(
            f"replay failed at program level in thread {tid}: {exc!r}"
        ) from exc
    if len(threads) != len(snapshot.threads):
        raise SnapshotError(
            f"replay produced {len(threads)} threads, snapshot has "
            f"{len(snapshot.threads)}"
        )
    if len(sync_objs) != len(snapshot.sync):
        raise SnapshotError(
            f"replay registered {len(sync_objs)} sync objects, snapshot has "
            f"{len(snapshot.sync)}"
        )
    for t, op in zip(threads, cur):
        t.current_op = op
    return threads, list(sync_objs)


def op_stream(snapshot: EngineSnapshot, program: Any) -> List[tuple]:
    """Regenerate the op log a snapshot replays, one interaction per entry.

    Replays ``snapshot`` into ``program`` (freshly built, as for
    :func:`restore`) and returns ``(tid, sent, op)`` for every logged
    generator send, ``(tid, sent, None)`` for a send that finished a
    generator, and ``(child_tid, parent_tid, _T_SPAWN)`` for a spawn
    execution.  Send values are the replayed objects.
    """
    stream: List[tuple] = []
    append = stream.append

    def wrap(tid: int, parent: Optional[int], send: Callable) -> Callable:
        if parent is not None:
            append((tid, parent, _T_SPAWN))

        def recording_send(sent: Any) -> Any:
            try:
                op = send(sent)
            except StopIteration:
                append((tid, sent, None))
                raise
            append((tid, sent, op))
            return op

        return recording_send

    _replay(snapshot, program, wrap)
    return stream


def _overlay_sync(
    snapshot: EngineSnapshot, sync_objs: List[Any], threads: List[VThread]
) -> None:
    from collections import deque

    for obj, (type_name, state) in zip(sync_objs, snapshot.sync):
        if type(obj).__name__ != type_name:
            raise SnapshotError(
                f"sync-object type mismatch: replay {type(obj).__name__}, "
                f"snapshot {type_name}"
            )
        if type_name == "Mutex":
            owner, waiters, acquires, contended = state
            obj.owner = threads[owner] if owner is not None else None
            obj.waiters = deque(threads[w] for w in waiters)
            obj.acquires = acquires
            obj.contended_acquires = contended
        elif type_name == "CondVar":
            waiters, signals, broadcasts = state
            obj.waiters = deque(
                (threads[w], sync_objs[m]) for (w, m) in waiters
            )
            obj.signals = signals
            obj.broadcasts = broadcasts
        elif type_name == "Barrier":
            arrived, cycles = state
            obj.arrived = [threads[w] for w in arrived]
            obj.cycles = cycles
        else:  # Semaphore
            value, waiters = state
            obj.value = value
            obj.waiters = deque(threads[w] for w in waiters)


def _overlay_threads(
    snapshot: EngineSnapshot, threads: List[VThread], engine: Engine
) -> None:
    for t, d in zip(threads, snapshot.threads):
        t.state = ThreadState[d["state"]]
        t.send_value = _resolve(d["send"], threads)
        t.activity_remaining = d["activity_remaining"]
        t.activity_line = d["activity_line"]
        t.activity_memory_bound = d["activity_memory_bound"]
        t.chunk_start = d["chunk_start"]
        t.chunk_nominal = d["chunk_nominal"]
        t.chunk_rate = d["chunk_rate"]
        t.chunk_token = d["chunk_token"]
        t.chain_key = d["chain_key"]
        cont = d["continuation"]
        if cont is None:
            t.continuation = None
        else:
            name, has_op = cont
            _check_continuation_name(name)
            fn = getattr(engine, name, None)
            if fn is None:
                raise SnapshotError(f"engine has no continuation method {name!r}")
            t.continuation = (fn, t.current_op if has_op else None)
        woken = d["woken_by"]
        t.woken_by = threads[woken] if woken is not None else None
        t.spinning = d["spinning"]
        t.blocked_on = d["blocked_on"]
        t.cpu_ns = d["cpu_ns"]
        t.profiler_cpu_ns = d["profiler_cpu_ns"]
        t.pause_ns = d["pause_ns"]
        t.sample_accum = d["sample_accum"]
        # captured as materialized Sample tuples; rehydrated as one
        # literal segment of a ColumnarBuf
        t.sample_buffer = engine.sampler.new_buffer(d["sample_buffer"])
        t.pending_pause_ns = d["pending_pause_ns"]
        t.pending_cpu_ns = d["pending_cpu_ns"]
        t.stack = [Frame(func, callsite) for (func, callsite) in d["stack"]]
        t.chain_cache = None
        t.prof = dict(d["prof"])
        t.joiners = [threads[j] for j in d["joiners"]]


def _overlay_engine(
    snapshot: EngineSnapshot,
    engine: Engine,
    threads: List[VThread],
    hook: Optional[Any],
) -> None:
    from collections import Counter, deque

    e = snapshot.engine
    engine.threads = threads
    engine.main_thread = threads[0]
    engine.now = e["now"]
    engine._seq = e["seq"]
    engine._timer_count = e["timer_count"]
    engine._alive = e["alive"]
    engine._sleeping = e["sleeping"]
    engine.ready = deque(threads[tid] for tid in e["ready"])
    engine.running = set(threads[tid] for tid in e["running"])
    engine.sampling_enabled = e["sampling_enabled"]
    engine._sampling_live = e["sampling_live"]
    engine.interference = e["interference"]
    engine._line_watchers = set(e["line_watchers"])
    engine.progress_counts = Counter(e["progress_counts"])
    engine.total_delay_ns = e["total_delay_ns"]
    engine.total_cpu_ns = e["total_cpu_ns"]
    engine.events_processed = e["events_processed"]
    engine.sampler.total_samples = e["sampler_total"]
    stalled = e["stalled"]
    engine._stalled = threads[stalled] if stalled is not None else None
    engine.rng.setstate(e["rng"])
    heap = []
    for (when, lp, sub, seq, kind, obj_d, arg) in snapshot.heap:
        if kind == _EV_TIMER:
            tag, payload = obj_d
            if tag == "e":
                _check_timer_name(payload)
                fn = getattr(engine, payload, None)
                if fn is None:
                    raise SnapshotError(f"engine has no timer method {payload!r}")
            else:
                if hook is None:
                    raise SnapshotError("hook timer in snapshot but no hook given")
                fn = hook.restore_timer(payload)
            heap.append((when, lp, sub, seq, kind, fn, arg))
        else:
            heap.append((when, lp, sub, seq, kind, threads[obj_d], arg))
    # list order preserved verbatim: it is a valid heap, and heap-tuple
    # comparison never reaches the payload because seq is unique
    engine._heap = heap
    if snapshot.faults is not None:
        inj = engine._faults
        inj._rng.setstate(snapshot.faults["rng"])
        inj._spiked = snapshot.faults["spiked"]
