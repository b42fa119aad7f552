"""The streamcluster benchmark (§4.2.5): online clustering of streaming data.

Same structure as fluidanimate — phased workers behind PARSEC's custom
busy-wait barrier — but with heavier imbalance and more barrier crossings,
which is why replacing the barrier was worth 68.4% ± 1.12% here versus
fluidanimate's 37.5%.  Coz also flagged a call to a random number generator
whose replacement with a lightweight PRNG yielded a further ~2%.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.phases import build_phased_main, phased_sim_config
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.ops import Work
from repro.sim.program import Program
from repro.sim.source import Scope, line

LINE_SPIN = line("parsec_barrier.cpp:163")
LINE_GAIN = line("streamcluster.cpp:985")   # pgain distance computation
LINE_SHUFFLE = line("streamcluster.cpp:640")
LINE_RNG = line("streamcluster.cpp:1120")   # the heavyweight RNG call

PROGRESS = "phase-done"

#: heavyweight libc RNG vs the lightweight replacement (~2% end to end)
RNG_HEAVY_NS = US(28)
RNG_LIGHT_NS = US(3)


def build_streamcluster(
    optimized: bool = False,
    light_rng: Optional[bool] = None,
    n_threads: int = 8,
    n_phases: int = 400,
    work_ns: int = MS(0.55),
    imbalance: float = 0.45,
    interference_coeff: float = 1.05,
) -> AppSpec:
    """Build streamcluster.

    ``optimized=True`` swaps in the pthread barrier (the 68.4% fix);
    ``light_rng`` controls the RNG replacement independently (defaults to
    following ``optimized``).
    """
    if light_rng is None:
        light_rng = optimized
    rng_ns = RNG_LIGHT_NS if light_rng else RNG_HEAVY_NS

    def make(seed: int = 0) -> Program:
        rng_call = Work(LINE_RNG, rng_ns)
        main = build_phased_main(
            n_threads=n_threads,
            n_phases=n_phases,
            work_lines=[LINE_GAIN, LINE_SHUFFLE],
            work_ns=work_ns,
            imbalance=imbalance,
            use_spin_barrier=not optimized,
            spin_line=LINE_SPIN,
            progress_name=PROGRESS,
            seed=seed,
            extra_per_phase=rng_call,
        )
        return Program(
            main,
            name="streamcluster",
            config=phased_sim_config(n_threads, seed, interference_coeff),
            debug_size_kb=64,
        )

    return AppSpec(
        name="streamcluster",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("parsec_barrier.cpp", "streamcluster.cpp"),
        lines={
            "spin": LINE_SPIN,
            "gain": LINE_GAIN,
            "shuffle": LINE_SHUFFLE,
            "rng": LINE_RNG,
        },
    )
