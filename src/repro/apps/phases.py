"""Shared scaffolding for barrier-phased PARSEC workloads.

fluidanimate and streamcluster share the same pathology (§4.2.4-4.2.5):
worker threads compute in phases separated by a *custom busy-wait barrier*
(``parsec_barrier.cpp``) whose spin loop hammers ``pthread_mutex_trylock``.
Spinning wastes CPU and generates cache-coherence traffic that slows the
still-working threads — so the barrier both shows up as a contention
signature in the causal profile (downward slope, Figure 8) and costs a lot
of real time.  Replacing it with a plain ``pthread_barrier`` was a one-line
change worth 37.5% (fluidanimate) and 68.4% (streamcluster).
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional

from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import BarrierWait, Join, Op, Progress, Spawn, Work
from repro.sim.source import SourceLine
from repro.sim.sync import Barrier, SpinBarrier


def build_phased_main(
    n_threads: int,
    n_phases: int,
    work_lines: List[SourceLine],
    work_ns: int,
    imbalance: float,
    use_spin_barrier: bool,
    spin_line: SourceLine,
    progress_name: str,
    seed: int,
    extra_per_phase: Optional[Op] = None,
    spin_iter_ns: int = US(2),
):
    """Build a main generator: N workers x P phases, barrier per phase.

    Per phase each worker does ``work_ns`` (+/- ``imbalance`` jitter) of
    *memory-bound* work spread over ``work_lines``, optionally yields the
    constant op ``extra_per_phase`` (e.g. streamcluster's RNG call), then
    waits at the barrier.  The serial thread fires the progress point once
    per phase.
    """
    n_lines = len(work_lines)
    phase_done = Progress(progress_name)

    def main(t):
        if use_spin_barrier:
            spin_barrier = SpinBarrier(n_threads, spin_line, spin_iter_ns=spin_iter_ns)
            barrier_wait = None
        else:
            barrier_wait = BarrierWait(Barrier(n_threads))

        def worker(wid: int, t2):
            wrng = random.Random((seed << 10) ^ wid)
            for _phase in range(n_phases):
                jitter = 1.0 + imbalance * (2 * wrng.random() - 1.0)
                for src in work_lines:
                    yield Work(src, int(work_ns * jitter / n_lines), memory_bound=True)
                if extra_per_phase is not None:
                    yield extra_per_phase
                if barrier_wait is not None:
                    serial = yield barrier_wait
                else:
                    serial = yield from spin_barrier.wait()
                if serial:
                    yield phase_done

        workers = []
        for wid in range(n_threads):
            workers.append((yield Spawn(partial(worker, wid), f"worker-{wid}")))
        for w in workers:
            yield Join(w)

    return main


def phased_sim_config(n_threads: int, seed: int, interference_coeff: float) -> SimConfig:
    return SimConfig(
        seed=seed,
        cores=n_threads + 1,
        sample_period_ns=US(250),
        quantum_ns=MS(0.5),
        interference_coeff=interference_coeff,
    )
