"""Engine edge cases: rescale correctness, watchers, timers, misc errors."""

import pytest

from repro.sim import (
    MS,
    US,
    Join,
    Program,
    SetSpinning,
    SimConfig,
    Sleep,
    Spawn,
    Work,
    line,
)
from repro.sim.engine import Engine
from repro.sim.errors import SimulationError
from repro.sim.hooks import ProfilerHook

L = line("e.c:1")
MB = line("e.c:2")


def test_rescale_preserves_total_cpu():
    """Interference rescaling must not lose or invent CPU time."""

    def main(t):
        def spinner(t2):
            yield SetSpinning(True)
            yield Work(L, MS(2))
            yield SetSpinning(False)
            yield Work(L, MS(1))

        def victim(t2):
            yield Work(MB, MS(4), memory_bound=True)

        a = yield Spawn(spinner)
        b = yield Spawn(victim)
        yield Join(a)
        yield Join(b)

    cfg = SimConfig(cores=4, interference_coeff=1.0)
    r = Program(main, config=cfg).run()
    # nominal CPU is exact despite the mid-chunk rescales (spawn ops cost
    # a little scheduler CPU on top)
    assert r.cpu_ns == MS(2) + MS(1) + MS(4) + 2 * cfg.spawn_cost_ns
    # the victim really was slowed while the spinner spun
    assert r.runtime_ns > MS(5)


def test_interference_scales_with_spinner_count():
    def build(n_spinners):
        def main(t):
            spinners = []
            for i in range(n_spinners):
                def s(t2):
                    yield SetSpinning(True)
                    yield Work(L, MS(5))
                    yield SetSpinning(False)
                spinners.append((yield Spawn(s)))

            def victim(t2):
                yield Work(MB, MS(2), memory_bound=True)

            v = yield Spawn(victim)
            yield Join(v)
            for s in spinners:
                yield Join(s)

        return Program(main, config=SimConfig(cores=8, interference_coeff=0.5))

    t1 = build(1).run().runtime_ns
    t3 = build(3).run().runtime_ns
    assert t3 > t1


def test_watch_line_counts_visits():
    class Watcher(ProfilerHook):
        def on_run_start(self, engine):
            engine.watch_line(L, "at-L")

    class Chunk(Work):  # a Work subclass takes the engine's slow path
        pass

    def main(t):
        for _ in range(3):
            yield Work(L, US(10))
            yield Work(MB, US(10))
        yield Chunk(L, US(10))

    assert Program(main).run(hook=Watcher()).progress_counts == {"at-L": 4}
    # no watcher, no count
    assert Program(main).run().progress_counts == {}


def test_call_after_timers_fire_in_order():
    fired = []

    class TimerHook(ProfilerHook):
        def on_run_start(self, engine):
            engine.call_after(MS(2), lambda: fired.append("b"))
            engine.call_after(MS(1), lambda: fired.append("a"))
            engine.call_at(engine.now + MS(3), lambda: fired.append("c"))

    def main(t):
        yield Sleep(MS(5))

    Program(main).run(hook=TimerHook())
    assert fired == ["a", "b", "c"]


def test_call_at_in_past_clamps_to_now():
    fired = []

    class TimerHook(ProfilerHook):
        def on_run_start(self, engine):
            engine.call_at(-5, lambda: fired.append(engine.now))

    def main(t):
        yield Work(L, US(10))

    Program(main).run(hook=TimerHook())
    assert fired == [0]


def test_double_hook_install_rejected():
    eng = Engine()
    eng.install(ProfilerHook())
    with pytest.raises(SimulationError):
        eng.install(ProfilerHook())


def test_run_without_threads_rejected():
    with pytest.raises(SimulationError):
        Engine().run()


def test_unknown_op_rejected():
    def main(t):
        yield "not an op"

    with pytest.raises(SimulationError):
        Program(main).run()


def test_negative_work_rejected():
    from repro.sim.ops import Work as W

    with pytest.raises(ValueError):
        W(L, -5)


def test_spinning_flag_cleared_on_exit():
    """A thread that exits while marked spinning must not leak interference."""

    def main(t):
        def sloppy(t2):
            yield SetSpinning(True)
            yield Work(L, US(100))
            # exits without clearing the flag

        w = yield Spawn(sloppy)
        yield Join(w)
        main.engine_interference = None

    p = Program(main, config=SimConfig(interference_coeff=0.5))
    r = p.run()
    assert r.engine.interference == 0
