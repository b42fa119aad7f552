"""Application specification shared by all simulated workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.progress import LatencySpec, ProgressPoint
from repro.sim.program import Program
from repro.sim.source import Scope, SourceLine


@dataclass
class AppSpec:
    """Everything a harness needs to profile and evaluate one application."""

    #: application name (matches the paper's tables)
    name: str
    #: build a fresh Program; ``seed`` drives any workload randomness
    build: Callable[[int], Program]
    #: progress points to register with the profiler
    progress_points: List[ProgressPoint]
    #: the progress point used for throughput numbers
    primary_progress: str
    #: profiling scope used in the paper's case study
    scope: Scope
    #: named lines of interest ("spin", "hash-loop", ...) for tests/benches
    lines: Dict[str, SourceLine] = field(default_factory=dict)
    #: latency begin/end pairs, if the app defines any
    latency_specs: List[LatencySpec] = field(default_factory=list)
    #: provenance stamp set by :func:`repro.apps.registry.build`: a picklable
    #: :class:`~repro.apps.registry.AppRef` that lets worker processes rebuild
    #: this spec by name (``build`` itself is a closure and does not pickle)
    registry_ref: Optional[object] = None

    def line(self, key: str) -> SourceLine:
        return self.lines[key]

