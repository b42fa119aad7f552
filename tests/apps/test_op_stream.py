"""Op-stream goldens: every registered app yields the same ops, op by op.

The golden-trace matrix (``tests/sim/test_golden_trace.py``) fingerprints
what an execution *produced*.  These digests fingerprint what each app model
*yielded*: one SHA-256 over the op log of a small, unprofiled run, as the
checkpoint replay regenerates it from the recorder's columnar log, entry
by entry — thread id, the value sent into the generator, the op's class
and every op field (sync primitives by first-encounter id, spawn bodies by
thread name).  An app rewrite that builds its ops differently
(hoisted, interned, flattened out of helper generators) must leave every
digest unchanged.

Each app runs at its default variant and at its optimized variant when it
has one.  Line-cost scaling is the engine's job
(``SimConfig.line_speedups``) and leaves the op stream alone, so it is
pinned by run outcome instead: every app, its named lines at half cost,
must finish in a recorded virtual time.

Re-record (only after an *intentional* change to an app model) with::

    PYTHONPATH=src python tests/apps/test_op_stream.py --capture
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.apps import registry
from repro.sim.engine import Engine
from repro.sim.snapshot import Recorder, op_stream
from repro.sim.source import SourceLine
from repro.sim.thread import VThread

# small sizes: a few hundred to a few thousand ops per run
SMALL = {
    "example": {"rounds": 6},
    "dedup": {"n_blocks": 24, "n_keys": 200, "buckets": 64},
    "ferret": {"n_queries": 12},
    "sqlite": {"threads": 3, "inserts_per_thread": 12},
    "memcached": {"n_clients": 4, "n_workers": 2, "n_requests": 40},
    "fluidanimate": {"n_threads": 3, "n_phases": 6},
    "streamcluster": {"n_threads": 3, "n_phases": 6},
    "blackscholes": {"n_threads": 3, "n_rounds": 5},
    "swaptions": {"n_threads": 3, "n_iters": 5},
}
#: Table 4 models share one builder and one size
TABLE4_SMALL = {"n_threads": 2, "n_items": 12}
SEED = 3


def _cells():
    cells = {}
    for entry in registry.entries():
        kwargs = SMALL.get(entry.name, TABLE4_SMALL)
        cells[f"{entry.name}"] = (entry.name, False, kwargs)
        if entry.has_optimized:
            cells[f"{entry.name}_optimized"] = (entry.name, True, kwargs)
    return cells


CELLS = _cells()


def op_log(spec, seed=SEED):
    """The op log of one unprofiled run as (tid, send value, op) entries,
    regenerated from the recorder's columnar log through the replay path.

    The run is recorded to the end and captured once there, so the digest
    also proves that the log round-trips exactly.
    """
    program = spec.build(seed)
    engine = Engine(program.config)
    recorder = Recorder(grid=[])  # log every send; capture once, below
    recorder.attach(engine)
    engine.spawn(program.main, name="main")
    engine.run()
    recorder.take(engine)
    return op_stream(recorder.snapshots[-1], spec.build(seed))


def _field(v, sync_ids):
    if v is None or type(v) in (bool, int, float, str):
        return repr(v)
    if isinstance(v, SourceLine):
        return f"L{v}"
    if isinstance(v, VThread):
        return f"T{v.tid}"
    if callable(v):
        return "<body>"  # spawn bodies: identified by the thread's name
    key = id(v)
    if key not in sync_ids:
        sync_ids[key] = len(sync_ids)
    return f"{type(v).__name__}#{sync_ids[key]}"


def op_stream_digest(log) -> str:
    h = hashlib.sha256()
    sync_ids: dict = {}
    for tid, sent, op in log:
        if op is None:
            desc = "stop"
        elif not dataclasses.is_dataclass(op):  # spawn-executed marker
            desc = "spawn"
        else:
            fields = ",".join(
                _field(getattr(op, f.name), sync_ids)
                for f in dataclasses.fields(op)
            )
            desc = f"{type(op).__name__}({fields})"
        h.update(f"{tid}|{_field(sent, sync_ids)}|{desc}\n".encode())
    return h.hexdigest()


def _digest(cell):
    name, optimized, kwargs = CELLS[cell]
    return op_stream_digest(op_log(registry.build(name, optimized=optimized, **kwargs)))


# Recorded on the app models as they stood before their ops were hoisted.
GOLDEN = {
    "blackscholes": "00815fdf70d5605bc9ce4c080abdd5f3bd8280492edc8308c789535563573d68",
    "blackscholes_optimized": "ef72ef81d1ec46f9d20613c1be4837e9a4fd589239446aa178ef5ef91924c72c",
    "bodytrack": "906ad478cae705a97e2d4ed8ab27bce2c2f4d50652616b69c1e64256ecc7f3e3",
    "canneal": "1b98498de4dbc59e4bbb0dcfb9ce639d6faa7211cbba8f44104c48e4b1116c43",
    "dedup": "2f3225e90d7967cb5699fb1d0db1ef40d073ce5327052d5ed3a92236a3227a64",
    "dedup_optimized": "925604c6e4f01b66a21e5b47898e3d74ad08e5a17fd3dcb5217787cb634bcb49",
    "example": "68e30b65aac8c3c0f75dda55523aa5f751c03061e7c0182d9bfe7391a031593d",
    "facesim": "d52f84a850dfd0565d5159b9fa547f5e7399b1cea6a7e769d89dc08d3d0060e7",
    "ferret": "69ed1563253be3908bbd088c4bb43768be570d5b50fedd1b296f008ab5bdcea1",
    "ferret_optimized": "6dcd9531494988443d207060cb4bd1952b9d4cf4998bae6f0180a72f75f51364",
    "fluidanimate": "9bc84b82ac0384bd787b50006c2359ad95d2d4af5f20c707810d6c3290be0741",
    "fluidanimate_optimized": "841fdb73c50c1000ea60b3b8e8f7937f0c47a3d82cbb59afbe98f6d740c830ce",
    "freqmine": "f77dbe945b3320c4ef9d60be49448cdd4d818fdbe61086f7de9fa3eecd3c56df",
    "memcached": "15804fc035da918b54f6d201311370b6f923c2539712ae87a48dbe544942acea",
    "memcached_optimized": "0a3a7b883fc3c2c794a4b50b5cd09f2a391b1f4a7668c15d3adefcbe7cae1f7f",
    "raytrace": "22229b0e43e6c8561bf4b86a5047f2514ff6b9a321d5427783a3885942d66b8c",
    "sqlite": "787c056d16cc322aff54b3715164463bdb03779fed0d081d07489c7dbc34ef00",
    "sqlite_optimized": "4321bb3e0d42c2579a145e60f25fbbd29a4faf8061081883192b740c315a764d",
    "streamcluster": "52cbc9912434e5e35f9b969cd2c41e12d817af58593d19e442b6ca77904018ad",
    "streamcluster_optimized": "57567ecdc61022c1c30ef7e5dfc87d10493d833af6e83e2edb1d4711976e49dc",
    "swaptions": "1da6ebc268764cddc4600aea92b94a6dc473c985f05276b62c61a467bb7cb490",
    "swaptions_optimized": "c05fa5e85ec64f71b40089b239727f6c9897de32048f620df518b9a0f2ff195a",
    "vips": "5c857d348ebbee520b208b66359ac3b6948b2d0c73110891c30194be48482d97",
    "x264": "c82e1a6d74243d06f949a6a1221db8713fb5376e021672ddc0b4fd3b9eda0459",
}


def test_every_registered_app_has_a_golden():
    assert sorted(CELLS) == sorted(GOLDEN)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_op_stream_digest(cell):
    assert _digest(cell) == GOLDEN[cell], (
        f"{cell}: the app model's op stream diverged"
    )


#: ``runtime_ns`` of each app at its ``SMALL`` size and ``SEED`` with its
#: named lines at half cost.  Recorded while builders scaled costs at build
#: time, except two values: ferret's was 6,599,246 (the builder rounded the
#: scaled service time before jittering it, the engine rounds after), and
#: sqlite's was 289,781 (the builder halved only the 500 ns prologue of its
#: three hot-function ``Work`` ops and left ``vdbe``/``btree`` alone; the
#: engine halves every ``Work`` on a named line, whole).
HALF_COST_RUNTIME_NS = {
    "example": 20_105_900,
    "dedup": 2_661_780,
    "ferret": 6_599_249,
    "sqlite": 166_188,
    "memcached": 199_027,
    "fluidanimate": 3_413_657,
    "streamcluster": 3_184_257,
    "blackscholes": 4_015_750,
    "swaptions": 4_615_000,
}
#: named lines the builders never scaled: the spin-barrier line and
#: ferret's output stage
UNSCALED = {"fluidanimate": {"spin"}, "streamcluster": {"spin"}, "ferret": {"output"}}


@pytest.mark.parametrize("name", sorted(HALF_COST_RUNTIME_NS))
def test_half_cost_lines_runtime(name):
    plain = registry.build(name, **SMALL[name])
    half = {
        src: 0.5 for key, src in plain.lines.items()
        if key not in UNSCALED.get(name, ())
    }
    spec = registry.build(name, line_speedups=half, **SMALL[name])
    runtime = spec.build(SEED).run().runtime_ns
    assert runtime == HALF_COST_RUNTIME_NS[name]
    assert runtime < plain.build(SEED).run().runtime_ns


def test_sqlite_constant_ops_are_built_once():
    """A longer sqlite run yields more ops, but no more distinct op objects
    beyond the per-insert jittered ``Work`` on the three costed lines."""
    from repro.apps.sqlite import LINE_BTREE, LINE_PCACHE_BODY, LINE_VDBE
    from repro.sim.ops import Work

    jittered = {LINE_VDBE, LINE_PCACHE_BODY, LINE_BTREE}

    def constant_ops(inserts):
        log = op_log(registry.build("sqlite", threads=3, inserts_per_thread=inserts))
        ops = [op for _tid, _sent, op in log if dataclasses.is_dataclass(op)]
        constant = {
            id(op) for op in ops
            if not (type(op) is Work and op.line in jittered)
        }
        return len(ops), len(constant)

    ops_short, distinct_short = constant_ops(10)
    ops_long, distinct_long = constant_ops(40)
    assert ops_long > 3 * ops_short
    assert distinct_long == distinct_short


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        for cell in sorted(CELLS):
            print(f'    "{cell}": "{_digest(cell)}",')
