"""Bounded channel (pipeline pipe) semantics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import MS, US, Join, Program, SimConfig, Spawn, Work, line
from repro.sim.engine import Engine
from repro.sim.ops import Op, TryLock, Unlock
from repro.sim.snapshot import Recorder, op_stream
from repro.sim.sync import Channel, CondVar, Mutex
from repro.sim.thread import VThread
from repro.sim.trace import TraceHasher

L = line("c.c:1")


def run(main, cores=4):
    return Program(main, config=SimConfig(cores=cores)).run()


def test_fifo_order_single_consumer():
    got = []

    def main(t):
        ch = Channel(8)

        def producer(t2):
            for i in range(20):
                yield from ch.put(i)
            yield from ch.close()

        def consumer(t2):
            while True:
                item = yield from ch.get()
                if item is Channel.CLOSED:
                    break
                got.append(item)

        p = yield Spawn(producer)
        c = yield Spawn(consumer)
        yield Join(p)
        yield Join(c)

    run(main)
    assert got == list(range(20))


def test_capacity_blocks_producer():
    """A fast producer into a full channel must wait for the consumer."""

    def main(t):
        ch = Channel(2)

        def producer(t2):
            for i in range(10):
                yield from ch.put(i)
                assert len(ch) <= 2
            yield from ch.close()

        def consumer(t2):
            while True:
                item = yield from ch.get()
                if item is Channel.CLOSED:
                    break
                yield Work(L, MS(1))  # slow consumer

        p = yield Spawn(producer)
        c = yield Spawn(consumer)
        yield Join(p)
        yield Join(c)

    r = run(main)
    # runtime dominated by the slow consumer, proving the producer blocked
    assert r.runtime_ns >= MS(10)


def test_close_drains_multiple_consumers():
    got = []

    def main(t):
        ch = Channel(4)

        def consumer(t2):
            while True:
                item = yield from ch.get()
                if item is Channel.CLOSED:
                    break
                got.append(item)
                yield Work(L, US(50))

        cs = []
        for _ in range(3):
            cs.append((yield Spawn(consumer)))
        for i in range(30):
            yield from ch.put(i)
        yield from ch.close()
        for c in cs:
            yield Join(c)

    run(main, cores=8)
    assert sorted(got) == list(range(30))


def test_put_after_close_raises():
    def main(t):
        ch = Channel(2)
        yield from ch.close()
        with pytest.raises(RuntimeError):
            yield from ch.put(1)

    run(main)


def test_none_is_a_valid_item():
    def main(t):
        ch = Channel(2)
        yield from ch.put(None)
        item = yield from ch.get()
        assert item is None
        assert item is not Channel.CLOSED

    run(main)


def test_channel_statistics():
    def main(t):
        ch = Channel(4)
        for i in range(6):
            yield from ch.put(i)
            yield from ch.get()
        assert ch.total_put == 6
        assert ch.total_got == 6

    run(main)


# --------------------------------------------------------------- relay stages

_STAGE_LINES = [line(f"stage.c:{10 * (s + 1)}") for s in range(3)]
_PRODUCE = line("produce.c:1")


def _pipeline(capacity, producers, stages, n_items, early, use_relay):
    """A pipeline: ``producers`` threads feed ``n_items`` items into channel
    0; stage ``s`` runs ``stages[s]`` workers from channel ``s`` to channel
    ``s + 1``, the last stage as a sink.  Channel ``i`` closes right after
    the spawns when ``early[i]`` (its writers may then put into a closed
    channel), else once its writers have all been joined.

    Each stage is a ``Channel.relay`` or the composed ``get``/``work``/
    ``put`` loop it replaces; even stages do their work in a generator that
    is sent a ``TryLock`` result, odd stages return a tuple of ops.
    """

    def main(t):
        chans = [Channel(capacity, f"c{i}") for i in range(len(stages))]
        mutexes = [Mutex(f"m{s}") for s in range(len(stages))]

        def producer(pid):
            def body(t2):
                for item in range(pid, n_items, producers):
                    yield Work(_PRODUCE, US(3 + item % 4))
                    yield from chans[0].put(item)

            return body

        def stage(s, wid):
            inq = chans[s]
            out = chans[s + 1] if s + 1 < len(chans) else None
            src, mutex = _STAGE_LINES[s], mutexes[s]

            def locked(item):
                got = yield TryLock(mutex, src)
                yield Work(src, US(5 + (item * 7 + wid) % 11))
                if got:
                    yield Unlock(mutex, src)

            def work(item):
                if s % 2 == 0:
                    return locked(item)
                return (Work(src, US(2 + (item + wid) % 5)),)

            if use_relay:
                return lambda t2: inq.relay(out, src, work)

            def composed(t2):
                while True:
                    item = yield from inq.get(src)
                    if item is Channel.CLOSED:
                        break
                    yield from work(item)
                    if out is not None:
                        yield from out.put(item, src)

            return composed

        writers = [[]]
        for p in range(producers):
            writers[0].append((yield Spawn(producer(p), f"producer-{p}")))
        for s, n in enumerate(stages):
            writers.append([])
            for wid in range(n):
                writers[-1].append((yield Spawn(stage(s, wid), f"stage{s}-{wid}")))
        for i, chan in enumerate(chans):
            if early[i]:
                yield from chan.close()
        for i, chan in enumerate(chans):
            for w in writers[i]:
                yield Join(w)
            if not early[i]:
                yield from chan.close()
        for w in writers[-1]:
            yield Join(w)

    return Program(main, config=SimConfig(cores=3, sample_period_ns=US(5)))


def _norm(v):
    if isinstance(v, VThread):
        return f"T{v.tid}"
    if isinstance(v, (Mutex, CondVar)):
        return v.name
    if callable(v):
        return "<body>"
    return repr(v)


def _normalized_stream(snapshot, program):
    out = []
    for tid, sent, op in op_stream(snapshot, program):
        if isinstance(op, Op):
            op = (type(op).__name__,) + tuple(
                _norm(getattr(op, f.name)) for f in dataclasses.fields(op)
            )
        out.append((tid, _norm(sent), repr(op)))
    return out


def _observe(build):
    """(outcome, op stream, trace digest) of one run of ``build()``; the
    outcome is the run's end time or the error it raised."""
    program = build()
    engine = Engine(program.config)
    recorder = Recorder(grid=[])  # log every send; capture once, below
    recorder.attach(engine)
    engine.spawn(program.main, name="main")
    try:
        engine.run()
        outcome = ("ok", engine.now)
    except RuntimeError as exc:
        outcome = (type(exc).__name__, str(exc), engine.now)
    recorder.take(engine)
    assert not recorder.failed
    stream = _normalized_stream(recorder.snapshots[-1], build())
    if outcome[0] != "ok":
        return outcome, stream, None
    hasher = TraceHasher()
    build().run(observers=[hasher])
    return outcome, stream, hasher.hexdigest()


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 4),
    producers=st.integers(1, 3),
    stages=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    n_items=st.integers(0, 12),
    early=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_relay_yields_what_the_composed_loop_yields(
    capacity, producers, stages, n_items, early
):
    """``Channel.relay`` is the composed get/work/put loop, op for op:
    same op stream (sends, ops, the close re-signal, the ``put() on closed
    channel`` error) and same execution trace."""
    composed = _observe(
        lambda: _pipeline(capacity, producers, stages, n_items, early, False)
    )
    relayed = _observe(
        lambda: _pipeline(capacity, producers, stages, n_items, early, True)
    )
    assert relayed == composed
