"""The blackscholes benchmark (§4.2.7).

Embarrassingly parallel option pricing: each thread solves the
Black-Scholes PDE for a slice of the portfolio, with a progress point after
each round of the iterative approximation (``blackscholes.c:259``).  Coz
identified many lines in ``CNDF`` and ``BlkSchlsEqEuroNoDiv`` with small
individual impact; manually eliminating common subexpressions and fusing 61
piecewise calculations into 4 expressions gave 2.56% ± 0.41%.

The model splits each round's numeric work across the CNDF/BlkSchls lines;
the optimized variant shrinks exactly those lines by the calibrated factor.
"""

from __future__ import annotations

from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import BarrierWait, Join, Progress, Spawn, Work
from repro.sim.program import Program
from repro.sim.source import Scope, line
from repro.sim.sync import Barrier

LINE_CNDF1 = line("blackscholes.c:110")
LINE_CNDF2 = line("blackscholes.c:128")
LINE_BLK1 = line("blackscholes.c:211")
LINE_BLK2 = line("blackscholes.c:225")
LINE_LOOP = line("blackscholes.c:253")
LINE_PROGRESS_SRC = line("blackscholes.c:259")

PROGRESS = "round-done"

#: the numeric kernel lines and their per-round share of work
KERNEL_LINES = (LINE_CNDF1, LINE_CNDF2, LINE_BLK1, LINE_BLK2)

#: fusing 61 piecewise calculations into 4 shrinks the kernel lines by ~4.6%,
#: which is ~2.56% of the whole round (the paper's end-to-end result)
OPTIMIZED_KERNEL_FACTOR = 0.954


def build_blackscholes(
    optimized: bool = False,
    n_threads: int = 8,
    n_rounds: int = 300,
    round_ns: int = MS(1.6),
    kernel_share: float = 0.56,
) -> AppSpec:
    """Build blackscholes; ``optimized=True`` applies the CSE/fusion fix."""
    factor = OPTIMIZED_KERNEL_FACTOR if optimized else 1.0
    kernel_ns = int(round_ns * kernel_share * factor / len(KERNEL_LINES))
    loop_ns = int(round_ns * (1.0 - kernel_share))

    def make(seed: int = 0) -> Program:
        # one round's constant ops, built once
        round_work = tuple(Work(src, kernel_ns) for src in KERNEL_LINES) + (
            Work(LINE_LOOP, loop_ns),
        )
        reach_progress = Work(LINE_PROGRESS_SRC, 0)
        round_done = Progress(PROGRESS)

        def main(t):
            barrier_wait = BarrierWait(Barrier(n_threads))

            def worker(t2):
                for _ in range(n_rounds):
                    for op in round_work:
                        yield op
                    serial = yield barrier_wait
                    if serial:
                        yield reach_progress
                        yield round_done

            workers = []
            for wid in range(n_threads):
                workers.append((yield Spawn(worker, f"bs-{wid}")))
            for w in workers:
                yield Join(w)

        config = SimConfig(
            seed=seed, cores=n_threads + 1,
            sample_period_ns=US(250), quantum_ns=MS(0.5),
        )
        return Program(main, name="blackscholes", config=config, debug_size_kb=24)

    return AppSpec(
        name="blackscholes",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("blackscholes.c"),
        lines={
            "cndf1": LINE_CNDF1,
            "cndf2": LINE_CNDF2,
            "blk1": LINE_BLK1,
            "blk2": LINE_BLK2,
            "loop": LINE_LOOP,
        },
    )
