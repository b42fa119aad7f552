"""SpinBarrier and SpinMutex: busy-wait composites and the interference model."""

import gc
import sys

import pytest

from repro.sim import MS, US, Join, Program, SimConfig, Spawn, Work, line
from repro.sim.ops import SetSpinning, TryLock
from repro.sim.sync import SpinBarrier, SpinMutex

SPIN = line("parsec_barrier.cpp:163")
W = line("w.c:1")


def run(main, cores=8, interference=0.0, seed=0):
    cfg = SimConfig(cores=cores, interference_coeff=interference, seed=seed)
    return Program(main, config=cfg).run()


def _phased(n_threads, phases, work_fn, trylock=True):
    def main(t):
        sb = SpinBarrier(n_threads, SPIN, trylock_spin=trylock)

        def worker(t2, wid):
            for p in range(phases):
                yield Work(W, work_fn(wid, p), memory_bound=True)
                yield from sb.wait()

        ws = []
        for wid in range(n_threads):
            def body(t2, wid=wid):
                yield from worker(t2, wid)
            ws.append((yield Spawn(body)))
        for w in ws:
            yield Join(w)
        main.barrier = sb

    return main


def test_spin_barrier_synchronizes_phases():
    main = _phased(4, 5, lambda wid, p: US(100) * (wid + 1))
    run(main)
    assert main.barrier.generation == 5


def test_imbalance_causes_spinning():
    main = _phased(4, 3, lambda wid, p: MS(1) if wid == 0 else US(100))
    run(main)
    assert main.barrier.total_spin_iters > 100


def test_balanced_threads_spin_little():
    main = _phased(4, 3, lambda wid, p: MS(1))
    run(main)
    assert main.barrier.total_spin_iters < 100


def test_interference_slows_memory_bound_work():
    """Spinning threads slow down memory-bound work in the laggard."""
    work = lambda wid, p: MS(2) if wid == 0 else US(50)
    base = run(_phased(4, 3, work), interference=0.0).runtime_ns
    slowed = run(_phased(4, 3, work), interference=0.5).runtime_ns
    assert slowed > base * 1.2


def test_interference_off_when_no_spinning():
    """A blocking-barrier run is unaffected by the interference coefficient."""
    from repro.sim import BarrierWait
    from repro.sim.sync import Barrier

    def main(t):
        b = Barrier(4)

        def worker(t2, wid):
            for _ in range(3):
                yield Work(W, MS(1), memory_bound=True)
                yield BarrierWait(b)

        ws = []
        for wid in range(4):
            def body(t2, wid=wid):
                yield from worker(t2, wid)
            ws.append((yield Spawn(body)))
        for w in ws:
            yield Join(w)

    base = run(main, interference=0.0).runtime_ns
    r2 = Program(main, config=SimConfig(cores=8, interference_coeff=0.9)).run()
    assert abs(r2.runtime_ns - base) < US(10)


def test_flag_spin_avoids_mutex_traffic():
    main = _phased(4, 3, lambda wid, p: MS(1) if wid == 0 else US(100), trylock=False)
    run(main)
    sb = main.barrier
    assert sb.total_spin_iters > 0
    assert sb.mutex.acquires <= 4 * 3 + 1  # only barrier entries, no polling


def test_spin_mutex_excludes_and_spins():
    order = []

    def main(t):
        sm = SpinMutex(SPIN, spin_iter_ns=US(1))

        def worker(t2, name):
            yield from sm.lock()
            order.append(("enter", name))
            yield Work(W, US(500))
            order.append(("leave", name))
            yield from sm.unlock()

        a = yield Spawn(lambda t2: worker(t2, "a"))
        b = yield Spawn(lambda t2: worker(t2, "b"))
        yield Join(a)
        yield Join(b)
        main.sm = sm

    run(main)
    assert order[0][1] == order[1][1]  # no interleaving
    assert main.sm.total_spin_iters > 0  # the loser spun


def _spinning_lock():
    """A ``SpinMutex.lock`` generator driven into its spin loop."""
    gen = SpinMutex(SPIN).lock()
    assert type(next(gen)) is TryLock
    assert gen.send(False) == SetSpinning(True)  # lost the trylock: spin
    assert type(gen.send(None)) is Work
    return gen


def _spinning_barrier_wait():
    """A ``SpinBarrier.wait`` generator driven into its spin loop."""
    gen = SpinBarrier(2, SPIN).wait()
    next(gen)  # Lock
    gen.send(None)  # Unlock: the first arrival waits
    assert gen.send(None) == SetSpinning(True)
    assert type(gen.send(None)) is TryLock
    assert type(gen.send(False)) is Work
    return gen


@pytest.mark.parametrize("spinning", [_spinning_lock, _spinning_barrier_wait])
def test_closing_a_spinning_generator_reports_nothing(spinning, monkeypatch):
    """An abandoned run drops its threads' generators mid-spin; closing one
    must not try to yield the spin toggle (``generator ignored
    GeneratorExit``, reported through ``sys.unraisablehook``)."""
    reported = []
    monkeypatch.setattr(sys, "unraisablehook", reported.append)
    gen = spinning()
    del gen
    gc.collect()
    spinning().close()
    assert reported == []


def test_spin_lock_clears_spinning_when_acquired():
    gen = _spinning_lock()
    assert type(gen.send(None)) is TryLock
    assert gen.send(True) == SetSpinning(False)  # got it: stop spinning
    with pytest.raises(StopIteration):
        gen.send(None)
