"""The example.cpp program of Figure 1.

Two threads run busy loops of ~6.7 and ~6.4 time units.  The paper uses this
program to show that a conventional profiler's "a() is 51% of runtime, b()
is 49%" answer is misleading: optimizing ``a`` completely only speeds the
program up by 4.5% (``b`` becomes the critical path), and optimizing ``b``
has *no* effect (``a`` is the critical path).

Scaling note: the paper profiles one 13-second execution and aggregates over
many executions.  The simulator instead runs the a/b pair as long-lived
threads that repeat the loop round after round (joined by a barrier, which
has the same timing topology as Figure 1's spawn/join), with a throughput
progress point once per round.  Each round keeps the paper's 6.7 : 6.4 ratio
at 1/1000 scale (6.7 ms), so the causal profile of a round is identical in
shape to the paper's end-to-end profile:

* line ``a`` (example.cpp:2): program speedup grows ~1:1 until ``b`` becomes
  the critical path, then flattens at ~4.5%;
* line ``b`` (example.cpp:5): flat at ~0% for every virtual speedup.
"""

from __future__ import annotations

from functools import partial
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import POP_FRAME, BarrierWait, Join, Progress, Spawn, Work, push_frame
from repro.sim.program import Program
from repro.sim.source import Scope, SourceLine, line
from repro.sim.sync import Barrier

LINE_A = line("example.cpp:2")
LINE_B = line("example.cpp:5")
LINE_MAIN = line("example.cpp:10")

#: the paper's ratio: a() ~6.7s, b() ~6.4s, scaled 1:1000
A_NS = MS(6.7)
B_NS = MS(6.4)


def build_example(
    rounds: int = 300,
    a_ns: int = A_NS,
    b_ns: int = B_NS,
) -> AppSpec:
    """Build the Figure 1 example program.

    ``registry.build("example", line_speedups={LINE_A: 0.0})`` is "optimize
    a() away entirely", the experiment whose outcome the paper bounds at
    4.5%.
    """

    def make(seed: int = 0) -> Program:
        # constant ops, built once: a function call wrapping its loop
        call_a = _call_ops("a", LINE_A, a_ns)
        call_b = _call_ops("b", LINE_B, b_ns)
        round_done = Progress("round")

        def main(t):
            wait = BarrierWait(Barrier(2, "round-barrier"))

            def looper(fn_ops, t2):
                for _ in range(rounds):
                    for op in fn_ops:
                        yield op
                    serial = yield wait
                    if serial:
                        yield round_done

            ta = yield Spawn(partial(looper, call_a), "a_thread")
            tb = yield Spawn(partial(looper, call_b), "b_thread")
            yield Work(LINE_MAIN, 0)
            yield Join(ta)
            yield Join(tb)

        config = SimConfig(
            seed=seed,
            # keep the paper's sampling:work ratio despite the 1:1000 time
            # scale: a 6.7 ms round yields ~27 samples at a 250 us period,
            # so delay batches stay much smaller than a round
            sample_period_ns=US(250),
            quantum_ns=MS(1),
        )
        return Program(main, name="example", config=config, debug_size_kb=16)

    return AppSpec(
        name="example",
        build=make,
        progress_points=[ProgressPoint("round")],
        primary_progress="round",
        scope=Scope.only("example.cpp"),
        lines={"a": LINE_A, "b": LINE_B, "main": LINE_MAIN},
    )


def _call_ops(func: str, src: SourceLine, total_ns: int) -> tuple:
    """One call to the volatile counting loop: all time on one source line."""
    return (push_frame(func), Work(src, total_ns), POP_FRAME)


def expected_profile_point(pct: int, a_ns: int = A_NS, b_ns: int = B_NS) -> float:
    """Analytical ground truth for virtually speeding up line ``a`` by pct%.

    The round critical path is ``max(a * (1 - pct/100), b)``; the program
    speedup is its relative change.  Rises linearly, flattens at ~4.5%.
    """
    t0 = max(a_ns, b_ns)
    t = max(a_ns * (1 - pct / 100.0), b_ns)
    return (t0 - t) / t0


def optimal_speedup_fraction(a_ns: int = A_NS, b_ns: int = B_NS) -> float:
    """Ground truth: program speedup from eliminating a() entirely (~4.5%)."""
    return expected_profile_point(100, a_ns, b_ns)
