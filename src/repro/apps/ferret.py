"""The ferret benchmark (§4.2.2): content-based image similarity search.

A six-stage pipeline: input -> segmentation -> feature extraction ->
indexing -> ranking -> output.  The four middle stages have thread pools;
input and output are single threads (Figure 5).  The paper gives each middle
stage an equal share of threads; Coz showed that the queries in the indexing
(``ferret-parallel.c:320``) and ranking (``:358``) stages plus image
segmentation (``:255``) dominate, while feature extraction barely matters.
Re-allocating the same total threads as 20/1/22/21 produced a 21.27% ±
0.17% speedup, and Coz's profile *predicted* 21.4% for the 27% line-320
throughput increase — the paper's flagship accuracy result (§4.3).

Fidelity notes:

* stage work executes in out-of-scope "library" lines (``cass/*.c``,
  ``image/*.c``) called from the in-scope ``ferret-parallel.c`` callsites,
  so Coz's callchain attribution (§3.4.2) is what makes lines 255/320/358
  appear in the profile — exactly as in the real system;
* the simulator halves the paper's scale (8 threads per middle stage rather
  than 16, service times scaled to match); the optimized allocation
  10/1/11/10 keeps the same total, like the paper's 20/1/22/21.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import IO, POP_FRAME, Join, Progress, Spawn, Work, push_frame
from repro.sim.program import Program
from repro.sim.source import Scope, line
from repro.sim.sync import Channel

# in-scope callsites (the lines the paper's Figure 6 shows)
LINE_SEG = line("ferret-parallel.c:255")     # call to image_segment
LINE_EXTRACT = line("ferret-parallel.c:280")  # call to feature extraction
LINE_INDEX = line("ferret-parallel.c:320")    # call to cass_table_query (indexing)
LINE_RANK = line("ferret-parallel.c:358")     # call to cass_table_query (ranking)
LINE_OUT = line("ferret-parallel.c:398")      # output stage, the progress point

# out-of-scope library code actually burning the time
_LIB_SEG = line("image/segment.c:310")
_LIB_EXTRACT = line("image/extract.c:88")
_LIB_INDEX = line("cass/query.c:1502")
_LIB_RANK = line("cass/query.c:1502")

PROGRESS = "query-done"

#: per-item service times; ratios chosen so the paper's optimal allocation
#: (proportional to 20:1:22:21) applies
SEG_NS = MS(3.0)
EXTRACT_NS = US(150)
INDEX_NS = MS(3.3)
RANK_NS = MS(3.15)

#: the paper's original allocation, halved: equal threads per middle stage
DEFAULT_THREADS: Sequence[int] = (8, 8, 8, 8)
#: the paper's tuned allocation (20/1/22/21), halved
OPTIMIZED_THREADS: Sequence[int] = (10, 1, 11, 10)


def build_ferret(
    threads: Sequence[int] = DEFAULT_THREADS,
    n_queries: int = 1200,
    work_jitter: float = 0.15,
) -> AppSpec:
    """Build ferret with the given (seg, extract, index, rank) pool sizes."""
    if len(threads) != 4 or any(n < 1 for n in threads):
        raise ValueError("threads must be four positive pool sizes")
    stage_info = [
        ("segment", LINE_SEG, _LIB_SEG, "image_segment", SEG_NS, threads[0]),
        ("extract", LINE_EXTRACT, _LIB_EXTRACT, "feature_extract", EXTRACT_NS, threads[1]),
        ("index", LINE_INDEX, _LIB_INDEX, "cass_table_query", INDEX_NS, threads[2]),
        ("rank", LINE_RANK, _LIB_RANK, "cass_table_query", RANK_NS, threads[3]),
    ]

    def make(seed: int = 0) -> Program:
        read_image = IO(US(10))
        # the output stage's ops per query: write the result, then progress
        output = (Work(LINE_OUT, US(15)), Progress(PROGRESS))

        def main(t):
            # queues between the six stages
            queues = [Channel(20, f"q{i}") for i in range(5)]

            def input_thread(t2):
                for q in range(n_queries):
                    yield read_image
                    yield from queues[0].put(q)
                yield from queues[0].close()

            def make_stage_worker(idx, callsite, lib_line, func, service_ns, wid):
                wrng = random.Random((seed << 8) ^ (idx << 4) ^ wid)
                enter = push_frame(func, callsite)

                def work(_item):
                    jitter = 1.0 + work_jitter * (2 * wrng.random() - 1.0)
                    dur = max(0, int(service_ns * jitter))
                    return enter, Work(lib_line, dur), POP_FRAME

                return lambda t2: queues[idx].relay(queues[idx + 1], callsite, work)

            def output_thread(t2):
                return queues[4].relay(None, LINE_OUT, lambda _item: output)

            workers = []
            tin = yield Spawn(input_thread, "input")
            for idx, (name, callsite, lib, func, service, n) in enumerate(stage_info):
                for wid in range(n):
                    worker = make_stage_worker(idx, callsite, lib, func, service, wid)
                    workers.append((yield Spawn(worker, f"{name}-{wid}")))
            tout = yield Spawn(output_thread, "output")

            yield Join(tin)
            # close each queue when the upstream pool has fully drained
            offset = 0
            for idx, (name, _cs, _lib, _fn, _svc, n) in enumerate(stage_info):
                for w in workers[offset : offset + n]:
                    yield Join(w)
                offset += n
                yield from queues[idx + 1].close()
            yield Join(tout)

        total_threads = sum(threads) + 3
        config = SimConfig(
            seed=seed,
            cores=total_threads,  # the paper's 64-core box never starves ferret
            sample_period_ns=US(250),
            quantum_ns=MS(1),
        )
        return Program(main, name="ferret", config=config, debug_size_kb=512)

    return AppSpec(
        name="ferret",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("ferret-parallel.c"),
        lines={
            "segment": LINE_SEG,
            "extract": LINE_EXTRACT,
            "index": LINE_INDEX,
            "rank": LINE_RANK,
            "output": LINE_OUT,
        },
    )


def expected_throughput_period(threads: Sequence[int]) -> float:
    """Analytic bottleneck period (ns/item) for a thread allocation."""
    services = (SEG_NS, EXTRACT_NS, INDEX_NS, RANK_NS)
    return max(s / n for s, n in zip(services, threads))
