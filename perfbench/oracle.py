"""Fig. 3 virtual-vs-actual oracle at default sampling settings.

Two threads meet at a barrier every round: ``f`` does 4 ms of work on
line ``fg.c:10`` and ``g`` 3 ms on ``fg.c:20``.  The *actual* program
speedup of making ``f`` p% faster comes from rebuilding the program with
a cheaper ``f``; the *virtual* one is what the causal profiler measures
when it virtually speeds up ``f`` by p%.  Coz's claim (§3.4) is that the
two agree.  The sweep keeps ``SimConfig``'s default ``sample_batch`` (10),
so the reported gap is the one a user of the defaults gets.

The program is fixed (seed 0): it is a reference experiment, not a
generated workload input, so the gap is deterministic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import CozConfig, ProgressPoint, profile_program
from repro.sim import (
    MS,
    US,
    Barrier,
    BarrierWait,
    Join,
    Program,
    Progress,
    Scope,
    SimConfig,
    Spawn,
    Work,
    line,
)

F = line("fg.c:10")
G = line("fg.c:20")
F_NS = MS(4.0)
G_NS = MS(3.0)
ROUNDS = 400
SPEEDUPS = (20, 40, 60, 80, 100)
SCHEDULE = (0, 20, 0, 40, 0, 60, 0, 80, 0, 100)


def fg_program(f_factor: float = 1.0):
    """Factory ``seed -> Program`` for the f/g barrier program."""
    f_cost = int(F_NS * f_factor)

    def make(seed: int = 0) -> Program:
        def main(t):
            barrier = Barrier(2)

            def f_thread(t2):
                for _ in range(ROUNDS):
                    if f_cost:
                        yield Work(F, f_cost)
                    if (yield BarrierWait(barrier)):
                        yield Progress("round")

            def g_thread(t2):
                for _ in range(ROUNDS):
                    yield Work(G, G_NS)
                    if (yield BarrierWait(barrier)):
                        yield Progress("round")

            a = yield Spawn(f_thread)
            b = yield Spawn(g_thread)
            yield Join(a)
            yield Join(b)

        cfg = SimConfig(
            seed=seed, cores=4, sample_period_ns=US(250), quantum_ns=MS(0.5),
        )
        return Program(main, config=cfg)

    return make


def _round_period(result) -> float:
    return result.runtime_ns / result.progress("round")


def gap_sweep() -> Dict[int, Tuple[float, float]]:
    """Line speedup % -> (actual, virtual) program speedup, as fractions.

    A speedup the profiler never measured maps to ``(actual, nan)``.
    """
    base = _round_period(fg_program()(0).run())
    outcome = profile_program(
        fg_program(),
        [ProgressPoint("round")],
        "round",
        runs=10,
        coz_config=CozConfig(
            scope=Scope.all_main(),
            fixed_line=F,
            speedup_schedule=list(SCHEDULE),
            experiment_duration_ns=MS(80),
        ),
    )
    lp = outcome.profile.get(F)
    rows = {}
    for pct in SPEEDUPS:
        actual = 1.0 - _round_period(fg_program(1.0 - pct / 100.0)(0).run()) / base
        point = lp.point_at(pct) if lp is not None else None
        rows[pct] = (actual, point.program_speedup if point else float("nan"))
    return rows


def max_gap_pp(rows: Dict[int, Tuple[float, float]]) -> float:
    """Largest |virtual - actual| over the sweep, in percentage points."""
    return max((100.0 * abs(v - a) for a, v in rows.values()), default=0.0)
