"""The swaptions benchmark (§4.2.8).

A Monte Carlo swaption pricer.  The progress point fires after each
iteration of the worker threads' main loop (``HJM_Securities.cpp:99``).
Coz identified three nested loops over a large multidimensional array:

* a loop zeroing consecutive values (replaceable by ``memset``),
* a loop filling the array from a distribution function (left alone),
* an irregular-order traversal (fixed by reordering the loops).

Reordering and the memset replacement gave 15.8% ± 1.10%.
"""

from __future__ import annotations

from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import Join, Progress, Spawn, Work
from repro.sim.program import Program
from repro.sim.source import Scope, line

LINE_ZERO = line("HJM_SimPath_Forward_Blocking.cpp:72")      # zeroing loop
LINE_FILL = line("HJM_SimPath_Forward_Blocking.cpp:96")      # RNG fill loop
LINE_TRAVERSE = line("HJM_SimPath_Forward_Blocking.cpp:139")  # irregular order
LINE_PRICE = line("HJM_Securities.cpp:91")                    # pricing proper
LINE_PROGRESS_SRC = line("HJM_Securities.cpp:99")

PROGRESS = "swaption-iter"

#: memset is ~10x faster than the scalar zeroing loop
ZERO_OPT_FACTOR = 0.1
#: cache-friendly traversal order is ~2x faster
TRAVERSE_OPT_FACTOR = 0.5


def build_swaptions(
    optimized: bool = False,
    n_threads: int = 8,
    n_iters: int = 400,
    zero_ns: int = US(180),
    fill_ns: int = US(300),
    traverse_ns: int = US(260),
    price_ns: int = US(1100),
) -> AppSpec:
    """Build swaptions; ``optimized=True`` applies memset + loop reorder."""
    z = int(zero_ns * (ZERO_OPT_FACTOR if optimized else 1.0))
    tr = int(traverse_ns * (TRAVERSE_OPT_FACTOR if optimized else 1.0))

    def make(seed: int = 0) -> Program:
        # one iteration's ops are all constant: built once
        iteration = (
            Work(LINE_ZERO, z),
            Work(LINE_FILL, fill_ns),
            Work(LINE_TRAVERSE, tr),
            Work(LINE_PRICE, price_ns),
            Work(LINE_PROGRESS_SRC, 0),
            Progress(PROGRESS),
        )

        def main(t):
            def worker(t2):
                for _ in range(n_iters):
                    for op in iteration:
                        yield op

            workers = []
            for wid in range(n_threads):
                workers.append((yield Spawn(worker, f"swap-{wid}")))
            for w in workers:
                yield Join(w)

        config = SimConfig(
            seed=seed, cores=n_threads + 1,
            sample_period_ns=US(250), quantum_ns=MS(0.5),
        )
        return Program(main, name="swaptions", config=config, debug_size_kb=32)

    return AppSpec(
        name="swaptions",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("HJM_SimPath_Forward_Blocking.cpp", "HJM_Securities.cpp"),
        lines={
            "zero": LINE_ZERO,
            "fill": LINE_FILL,
            "traverse": LINE_TRAVERSE,
            "price": LINE_PRICE,
        },
    )


def expected_speedup() -> float:
    """Analytic end-to-end speedup of the paper's optimization."""
    base = 180 + 300 + 260 + 1100
    opt = 18 + 300 + 130 + 1100
    return (base - opt) / base
