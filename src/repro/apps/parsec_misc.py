"""The remaining PARSEC benchmarks (Table 4).

For each of the seven applications the paper lists the progress point it
inserted and the top optimization opportunity Coz found.  The models here
are deliberately small — a handful of threads looping over work whose line
weights make the table's "Top Optimization" line the dominant serial
opportunity — because Table 4 only claims *which line ranks first*, not a
quantified speedup.

Each app registers its progress point as a **breakpoint** progress point on
the paper's ``file:line`` (exercising Coz's second progress-point
mechanism, §3.3): the engine counts every time execution reaches that line,
no source modification needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import Join, Spawn, Work
from repro.sim.program import Program
from repro.sim.source import Scope, SourceLine, line


@dataclass(frozen=True)
class Table4Entry:
    """One row of Table 4."""

    name: str
    progress_point: SourceLine
    top_line: SourceLine
    #: other lines that burn time but matter less (line, weight)
    minor_lines: Tuple[Tuple[SourceLine, float], ...]
    #: weight of the top line (fraction of per-item work)
    top_weight: float


TABLE4: List[Table4Entry] = [
    Table4Entry(
        "bodytrack",
        line("TicketDispenser.h:106"),
        line("ParticleFilter.h:262"),
        ((line("TrackingModel.cpp:205"), 0.18), (line("FlexImage.h:120"), 0.12)),
        0.50,
    ),
    Table4Entry(
        "canneal",
        line("annealer_thread.cpp:87"),
        line("netlist_elem.cpp:82"),
        ((line("annealer_thread.cpp:120"), 0.22), (line("rng.cpp:45"), 0.08)),
        0.55,
    ),
    Table4Entry(
        "facesim",
        line("taskQDistCommon.c:109"),
        line("MATRIX_3X3.h:136"),
        ((line("FACE_EXAMPLE.h:320"), 0.20), (line("DIAGONAL_MATRIX_3X3.h:80"), 0.10)),
        0.52,
    ),
    Table4Entry(
        "freqmine",
        line("fp_tree.cpp:383"),
        line("fp_tree.cpp:301"),
        ((line("fp_tree.cpp:511"), 0.25), (line("data.cpp:92"), 0.10)),
        0.48,
    ),
    Table4Entry(
        "raytrace",
        line("BinnedAllDimsSaveSpace.cxx:98"),
        line("RTEmulatedSSE.hxx:784"),
        ((line("RTTriangle.hxx:210"), 0.24), (line("BVH.hxx:512"), 0.12)),
        0.47,
    ),
    Table4Entry(
        "vips",
        line("threadgroup.c:360"),
        line("im_Lab2LabQ.c:98"),
        ((line("im_LabQ2disp.c:130"), 0.20), (line("region.c:77"), 0.12)),
        0.51,
    ),
    Table4Entry(
        "x264",
        line("encoder.c:1165"),
        line("common.c:687"),
        ((line("macroblock.c:940"), 0.25), (line("ratecontrol.c:310"), 0.10)),
        0.45,
    ),
]

TABLE4_BY_NAME: Dict[str, Table4Entry] = {e.name: e for e in TABLE4}


def build_parsec_app(
    name: str,
    n_threads: int = 4,
    n_items: int = 600,
    item_ns: int = MS(0.5),
) -> AppSpec:
    """Build one of the Table 4 PARSEC models by name."""
    entry = TABLE4_BY_NAME.get(name)
    if entry is None:
        raise ValueError(f"not a Table 4 benchmark: {name!r}")

    minor_total = sum(w for _, w in entry.minor_lines)
    other_weight = max(0.0, 1.0 - entry.top_weight - minor_total)
    other_line = line(f"{entry.progress_point.file}:1")

    def make(seed: int = 0) -> Program:
        # one item's ops are all constant: built once.  Reaching the
        # progress-point line bumps the breakpoint counter; no Progress op needed.
        item = (
            (Work(entry.top_line, int(item_ns * entry.top_weight)),)
            + tuple(Work(src, int(item_ns * w)) for src, w in entry.minor_lines)
            + (
                Work(other_line, int(item_ns * other_weight)),
                Work(entry.progress_point, US(1)),
            )
        )

        def main(t):
            def worker(t2):
                for _ in range(n_items // n_threads):
                    for op in item:
                        yield op

            workers = []
            for wid in range(n_threads):
                workers.append((yield Spawn(worker, f"{name}-{wid}")))
            for w in workers:
                yield Join(w)

        config = SimConfig(
            seed=seed, cores=n_threads + 1,
            sample_period_ns=US(250), quantum_ns=MS(0.5),
        )
        return Program(main, name=name, config=config, debug_size_kb=128)

    progress = ProgressPoint(
        name=str(entry.progress_point), kind="breakpoint", line=entry.progress_point
    )
    return AppSpec(
        name=name,
        build=make,
        progress_points=[progress],
        primary_progress=progress.name,
        scope=Scope.all_main(),
        lines={"top": entry.top_line, "progress": entry.progress_point},
    )
