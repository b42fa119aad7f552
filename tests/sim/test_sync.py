"""Mutex, condvar, barrier, semaphore semantics."""

import pytest

from repro.sim import (
    MS,
    US,
    BarrierWait,
    Broadcast,
    CondWait,
    Join,
    Lock,
    Program,
    SemPost,
    SemWait,
    Signal,
    SimConfig,
    Spawn,
    TryLock,
    Unlock,
    Work,
    line,
)
from repro.sim.errors import SyncError
from repro.sim.sync import Barrier, CondVar, Mutex, Semaphore

L = line("s.c:1")


def run(main, cores=4):
    return Program(main, config=SimConfig(cores=cores)).run()


def test_mutex_mutual_exclusion():
    events = []

    def main(t):
        m = Mutex()

        def worker(t2, name):
            yield Lock(m)
            events.append(("enter", name))
            yield Work(L, MS(1))
            events.append(("leave", name))
            yield Unlock(m)

        a = yield Spawn(lambda t2: worker(t2, "a"))
        b = yield Spawn(lambda t2: worker(t2, "b"))
        yield Join(a)
        yield Join(b)

    run(main)
    # critical sections never interleave
    assert events[0][0] == "enter" and events[1][0] == "leave"
    assert events[0][1] == events[1][1]
    assert events[2][1] == events[3][1]


def test_mutex_fifo_handoff():
    order = []

    def main(t):
        m = Mutex()

        def worker(t2, name):
            yield Lock(m)
            order.append(name)
            yield Work(L, US(100))
            yield Unlock(m)

        ws = []
        # stagger arrivals so the queue order is deterministic
        for i, name in enumerate(["a", "b", "c"]):
            yield Work(L, US(10))
            ws.append((yield Spawn(lambda t2, n=name: worker(t2, n))))
        for w in ws:
            yield Join(w)

    run(main, cores=8)
    assert order == ["a", "b", "c"]


def test_unlock_not_owner_raises():
    def main(t):
        m = Mutex()
        yield Unlock(m)

    with pytest.raises(SyncError):
        run(main)


def test_trylock_success_and_failure():
    results = {}

    def main(t):
        m = Mutex()

        def holder(t2):
            yield Lock(m)
            yield Work(L, MS(2))
            yield Unlock(m)

        h = yield Spawn(holder)
        yield Work(L, US(100))  # holder definitely owns the mutex now
        results["contended"] = yield TryLock(m)
        yield Join(h)
        results["free"] = yield TryLock(m)
        yield Unlock(m)

    run(main)
    assert results == {"contended": False, "free": True}


def test_condvar_signal_wakes_one():
    state = {"ready": False, "woken": 0}

    def main(t):
        m = Mutex()
        c = CondVar()

        def waiter(t2):
            yield Lock(m)
            while not state["ready"]:
                yield CondWait(c, m)
            state["woken"] += 1
            yield Unlock(m)

        ws = []
        for _ in range(2):
            ws.append((yield Spawn(waiter)))
        yield Work(L, MS(1))  # let both block
        yield Lock(m)
        state["ready"] = True
        yield Signal(c)
        yield Unlock(m)
        yield Join(ws[0])
        # second waiter still blocked; signal again
        yield Lock(m)
        yield Signal(c)
        yield Unlock(m)
        yield Join(ws[1])

    run(main)
    assert state["woken"] == 2


def test_condvar_broadcast_wakes_all():
    state = {"ready": False, "woken": 0}

    def main(t):
        m = Mutex()
        c = CondVar()

        def waiter(t2):
            yield Lock(m)
            while not state["ready"]:
                yield CondWait(c, m)
            state["woken"] += 1
            yield Unlock(m)

        ws = []
        for _ in range(4):
            ws.append((yield Spawn(waiter)))
        yield Work(L, MS(1))
        yield Lock(m)
        state["ready"] = True
        yield Broadcast(c)
        yield Unlock(m)
        for w in ws:
            yield Join(w)

    run(main, cores=8)
    assert state["woken"] == 4


def test_condwait_requires_mutex_held():
    def main(t):
        m = Mutex()
        c = CondVar()
        yield CondWait(c, m)

    with pytest.raises(SyncError):
        run(main)


def test_barrier_releases_together_and_serial_thread():
    serials = []

    def main(t):
        b = Barrier(3)

        def worker(t2, d):
            yield Work(L, d)
            serial = yield BarrierWait(b)
            serials.append(serial)

        ws = []
        for i in range(3):
            ws.append((yield Spawn(lambda t2, d=MS(i + 1): worker(t2, d))))
        for w in ws:
            yield Join(w)

    r = run(main)
    assert serials.count(True) == 1
    assert serials.count(False) == 2
    # barrier gates on the slowest arrival
    assert r.runtime_ns >= MS(3)


def test_barrier_reusable_across_cycles():
    def main(t):
        b = Barrier(2)

        def worker(t2):
            for _ in range(5):
                yield Work(L, US(100))
                yield BarrierWait(b)

        a = yield Spawn(worker)
        c = yield Spawn(worker)
        yield Join(a)
        yield Join(c)

        assert b.cycles == 5

    run(main)


def test_semaphore_bounds_concurrency():
    peak = {"now": 0, "max": 0}

    def main(t):
        s = Semaphore(2)

        def worker(t2):
            yield SemWait(s)
            peak["now"] += 1
            peak["max"] = max(peak["max"], peak["now"])
            yield Work(L, MS(1))
            peak["now"] -= 1
            yield SemPost(s)

        ws = []
        for _ in range(5):
            ws.append((yield Spawn(worker)))
        for w in ws:
            yield Join(w)

    run(main, cores=8)
    assert peak["max"] == 2


def test_mutex_contention_statistics():
    def main(t):
        m = Mutex()

        def worker(t2):
            for _ in range(10):
                yield Lock(m)
                yield Work(L, US(50))
                yield Unlock(m)

        ws = []
        for _ in range(3):
            ws.append((yield Spawn(worker)))
        for w in ws:
            yield Join(w)

        assert m.acquires == 30
        assert m.contended_acquires > 0

    run(main)


def test_channel_builds_its_sync_ops_once_per_line():
    from repro.sim.sync import Channel

    chan = Channel(4)
    other = line("s.c:2")

    def ops(gen):
        return [id(op) for op in gen]

    put_ops = ops(chan.put(1, L))
    assert ops(chan.put(2, L)) == put_ops
    assert ops(chan.put(3, other)) != put_ops
    get_ops = ops(chan.get(L))
    assert ops(chan.get(L)) == get_ops
    # put and get on one line share the channel's lock and unlock ops
    assert (get_ops[0], get_ops[-1]) == (put_ops[0], put_ops[-1])
    assert [type(op) for op in chan.close(L)] == [Lock, Signal, Signal, Unlock]
