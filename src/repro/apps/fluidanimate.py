"""The fluidanimate benchmark (§4.2.4, Figure 8).

An incompressible-fluid simulation: worker threads execute eight concurrent
phases per frame, separated by a barrier.  The progress point fires each
time all threads complete a phase.  Coz found *contention* — a downward-
sloping causal profile — on two lines of ``parsec_barrier.cpp``, the custom
busy-wait barrier, immediately before a loop that hammers
``pthread_mutex_trylock``.  Replacing the custom barrier with the stock
``pthread_barrier`` (a one-line change) sped fluidanimate up by
37.5% ± 0.56%.

The model: 8 workers, memory-bound physics work with per-thread imbalance
(the reason early arrivals spin), and either the PARSEC-style
:class:`~repro.sim.sync.SpinBarrier` (original) or a blocking
:class:`~repro.sim.sync.Barrier` (optimized).  Spinning threads raise the
engine's interference level, slowing the laggards' memory-bound work — the
cache-coherence feedback that makes the custom barrier so expensive.
"""

from __future__ import annotations

from repro.apps.phases import build_phased_main, phased_sim_config
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS
from repro.sim.program import Program
from repro.sim.source import Scope, line

#: the two barrier lines Coz flags (Figure 8)
LINE_SPIN = line("parsec_barrier.cpp:163")
LINE_SPIN2 = line("parsec_barrier.cpp:87")

# physics kernels
LINE_DENSITY = line("pthreads.cpp:502")
LINE_FORCE = line("pthreads.cpp:651")
LINE_ADVANCE = line("pthreads.cpp:730")

PROGRESS = "phase-done"


def build_fluidanimate(
    optimized: bool = False,
    n_threads: int = 8,
    n_phases: int = 400,
    work_ns: int = MS(0.9),
    imbalance: float = 0.18,
    interference_coeff: float = 0.62,
) -> AppSpec:
    """Build fluidanimate; ``optimized=True`` swaps in a pthread barrier."""

    def make(seed: int = 0) -> Program:
        main = build_phased_main(
            n_threads=n_threads,
            n_phases=n_phases,
            work_lines=[LINE_DENSITY, LINE_FORCE, LINE_ADVANCE],
            work_ns=work_ns,
            imbalance=imbalance,
            use_spin_barrier=not optimized,
            spin_line=LINE_SPIN,
            progress_name=PROGRESS,
            seed=seed,
        )
        return Program(
            main,
            name="fluidanimate",
            config=phased_sim_config(n_threads, seed, interference_coeff),
            debug_size_kb=96,
        )

    return AppSpec(
        name="fluidanimate",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("parsec_barrier.cpp", "pthreads.cpp"),
        lines={
            "spin": LINE_SPIN,
            "density": LINE_DENSITY,
            "force": LINE_FORCE,
            "advance": LINE_ADVANCE,
        },
    )
