"""Progress points (§3.3).

Coz supports three progress-point mechanisms, all reproduced here:

* **source-level** — the ``COZ_PROGRESS`` macro; in the simulator, a
  :class:`~repro.sim.ops.Progress` op with a matching name;
* **breakpoint** — a counter incremented whenever execution *reaches* a given
  source line (each Work op that starts on a watched line);
* **sampled** — no exact counts: the number of IP samples attributed to the
  line stands in for visits (rates still compare across experiments).

The engine counts the exact kinds (source-level and breakpoint) in
``Engine.progress_counts``; the profiler counts sampled points from the
samples it attributes, and reads both at experiment boundaries.

A :class:`LatencySpec` names a begin/end pair of progress points; average
latency is inferred from Little's law (L = lambda x W) in the analysis stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.source import SourceLine


@dataclass(frozen=True)
class ProgressPoint:
    """Declaration of one progress point."""

    name: str
    kind: str = "source"                 # 'source' | 'breakpoint' | 'sampled'
    line: Optional[SourceLine] = None    # required for breakpoint/sampled

    def __post_init__(self) -> None:
        if self.kind not in ("source", "breakpoint", "sampled"):
            raise ValueError(f"unknown progress point kind: {self.kind}")
        if self.kind in ("breakpoint", "sampled") and self.line is None:
            raise ValueError(f"{self.kind} progress point needs a line")


@dataclass(frozen=True)
class LatencySpec:
    """A begin/end progress-point pair for latency profiling."""

    name: str
    begin: str   # name of the begin progress point
    end: str     # name of the end progress point
