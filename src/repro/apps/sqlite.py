"""The SQLite case study (§4.2.3, Figure 7).

The paper's workload: many threads, each rapidly inserting rows into its own
private table — theoretically independent, so any slowdown is a scalability
bottleneck in the engine itself.  Coz identified the *function prologues* of
three tiny hot functions reached through indirect calls:

* ``sqlite3MemSize``   — size of an allocation (under the allocator mutex),
* ``pthreadMutexLeave`` — SQLite's mutex-release wrapper,
* ``pcache1Fetch``     — next page from the shared page cache.

Each does almost no work, so the indirect-call overhead dominates; replacing
the indirect calls with direct calls sped SQLite up by 25.6% ± 1.0%.
Figure 7a also shows the *contention* signature: beyond ~25% virtual
speedup the predicted effect turns negative, because these functions run
inside (or at the boundary of) shared critical sections.  perf, by contrast,
attributes ~0.15% of samples to them (Figure 7b).

The model: per-insert btree/VDBE work in ordinary SQLite lines, plus calls
to the three hot functions where the *prologue line* carries the
indirect-call overhead.  ``pcache1Fetch`` and ``sqlite3MemSize`` execute
under shared mutexes (page cache and allocator); ``pthreadMutexLeave`` is
the unlock path of those mutexes.  The ``optimized`` variant shrinks the
prologue cost to the direct-call cost.
"""

from __future__ import annotations

import random
from functools import partial
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import POP_FRAME, Join, Lock, Progress, Spawn, Unlock, Work, push_frame
from repro.sim.program import Program
from repro.sim.source import Scope, SourceLine, line
from repro.sim.sync import Mutex

# the three prologue lines Coz identifies (Figure 7a)
LINE_MEMSIZE = line("sqlite3.c:17225")       # sqlite3MemSize prologue
LINE_MUTEX_LEAVE = line("sqlite3.c:23456")   # pthreadMutexLeave prologue
LINE_PCACHE_FETCH = line("sqlite3.c:44895")  # pcache1Fetch prologue

# ordinary engine work
LINE_VDBE = line("sqlite3.c:78000")          # bytecode interpreter loop
LINE_BTREE = line("sqlite3.c:64100")         # b-tree insert
LINE_PCACHE_BODY = line("sqlite3.c:44920")   # page-cache lookup proper
LINE_BENCH = line("insert-bench.c:60")       # the benchmark's insert loop

PROGRESS = "row-inserted"

#: indirect-call prologue cost (the thing the optimization removes) and the
#: tiny function bodies.  One simulated call stands for a burst of calls the
#: real engine makes per insert, keeping the simulator op count low.
INDIRECT_NS = 500
DIRECT_NS = 120
BODY_NS = 90


def build_sqlite(
    optimized: bool = False,
    threads: int = 10,
    inserts_per_thread: int = 1500,
    vdbe_ns: int = US(10),
    btree_ns: int = US(10),
    pcache_body_ns: int = US(1.2),
) -> AppSpec:
    """Build the SQLite insert benchmark.

    ``optimized=True`` replaces the indirect calls with direct calls
    (the paper's 7-line change), shrinking the three prologue costs.
    """
    prologue_ns = DIRECT_NS if optimized else INDIRECT_NS

    def hot(src: SourceLine) -> Work:
        """One call burst to a tiny function: prologue (indirect call) + body.
        The prologue line carries the whole cost — the line Coz identifies."""
        return Work(src, prologue_ns + BODY_NS)

    def make(seed: int = 0) -> Program:
        # every op an insert yields that does not depend on the per-thread
        # jitter is built once here and yielded by every insert
        bench = Work(LINE_BENCH, US(0.3))
        pcache_fetch = hot(LINE_PCACHE_FETCH)
        memsize = hot(LINE_MEMSIZE)
        mutex_leave = hot(LINE_MUTEX_LEAVE)
        enter_vdbe = push_frame("sqlite3VdbeExec")
        enter_btree = push_frame("sqlite3BtreeInsert")
        row_inserted = Progress(PROGRESS)

        def main(t):
            pcache_mutex = Mutex("pcache1")
            lock = Lock(pcache_mutex, LINE_PCACHE_FETCH)
            unlock = Unlock(pcache_mutex, LINE_MUTEX_LEAVE)

            def worker(wid: int, t2):
                wrng = random.Random((seed << 6) ^ wid)
                for _ in range(inserts_per_thread):
                    # parse/plan + VDBE execution for the INSERT
                    yield bench
                    vdbe = _jit(wrng, vdbe_ns)
                    yield enter_vdbe
                    yield Work(LINE_VDBE, vdbe)
                    yield POP_FRAME
                    # Fetch pages from the shared page cache.  The critical
                    # section is what serializes the "independent" threads:
                    # real page-cache work plus the three tiny hot functions
                    # whose *prologues* carry the indirect-call overhead.
                    yield lock
                    yield Work(LINE_PCACHE_BODY, _jit(wrng, pcache_body_ns))
                    yield pcache_fetch
                    yield memsize
                    yield mutex_leave
                    yield unlock
                    # b-tree insert into the private table
                    btree = _jit(wrng, btree_ns)
                    yield enter_btree
                    yield Work(LINE_BTREE, btree)
                    yield POP_FRAME
                    yield row_inserted

            workers = []
            for wid in range(threads):
                workers.append((yield Spawn(partial(worker, wid), f"sqlite-{wid}")))
            for w in workers:
                yield Join(w)

        config = SimConfig(
            seed=seed,
            cores=threads + 1,
            sample_period_ns=US(250),
            quantum_ns=MS(1),
            lock_cost_ns=60,
        )
        return Program(main, name="sqlite", config=config, debug_size_kb=2048)

    return AppSpec(
        name="sqlite",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("sqlite3.c", "insert-bench.c"),
        lines={
            "memsize": LINE_MEMSIZE,
            "mutex-leave": LINE_MUTEX_LEAVE,
            "pcache-fetch": LINE_PCACHE_FETCH,
            "vdbe": LINE_VDBE,
            "btree": LINE_BTREE,
        },
    )


def _jit(rng: random.Random, ns: int, jitter: float = 0.1) -> int:
    return max(0, int(ns * (1.0 + jitter * (2 * rng.random() - 1.0))))
