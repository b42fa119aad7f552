"""Performance-experiment records (§3.2).

Each experiment virtually speeds up one line by one amount and measures the
rate of visits to every progress point.  The profiler logs, per experiment:
the selected line, the speedup, the wall-clock duration, the number of
delays inserted (so the *effective* duration can be computed), the number of
samples observed in the selected line (``s_obs``, for the phase correction),
and the per-progress-point visit deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.source import SourceLine


@dataclass
class ExperimentResult:
    """Outcome of a single performance experiment."""

    line: SourceLine
    speedup_pct: int
    #: per-sample delay used (speedup% x sampling period), ns
    delay_ns: int
    #: virtual time when the experiment started / ended
    start_ns: int
    end_ns: int
    #: global delay count at experiment end (delays each thread had to take)
    delay_count: int
    #: samples attributed to the selected line during the experiment (s_obs)
    selected_samples: int
    #: visits to each progress point during the experiment
    visits: Dict[str, int] = field(default_factory=dict)
    #: absolute progress counters at start/end (for latency via Little's law)
    counts_before: Dict[str, int] = field(default_factory=dict)
    counts_after: Dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        """Wall-clock experiment length (t_obs)."""
        return self.end_ns - self.start_ns

    @property
    def inserted_delay_ns(self) -> int:
        """Total required delay per thread timeline: count x delay size."""
        return self.delay_count * self.delay_ns

    @property
    def effective_ns(self) -> int:
        """Duration with inserted delays backed out — the virtual-speedup
        timeline ('runtime minus the total inserted delay', §2)."""
        return self.duration_ns - self.inserted_delay_ns

    def in_flight(self, begin: str, end: str) -> float:
        """Average number of in-progress requests between two points (L)."""
        l0 = self.counts_before.get(begin, 0) - self.counts_before.get(end, 0)
        l1 = self.counts_after.get(begin, 0) - self.counts_after.get(end, 0)
        return (l0 + l1) / 2.0

    def latency_ns(self, begin: str, end: str) -> Optional[float]:
        """Average latency via Little's law: W = L / lambda (§3.3)."""
        arrivals = self.visits.get(begin, 0)
        eff = self.effective_ns
        if arrivals <= 0 or eff <= 0:
            return None
        lam = arrivals / eff            # arrival rate per effective ns
        return self.in_flight(begin, end) / lam

    # -- wire format (cross-process result transfer) -------------------------------

    def to_dict(self, lines: Dict[SourceLine, int]) -> Dict[str, Any]:
        """JSON-safe dict; every field is an int, str, or str-keyed dict.

        ``"line"`` is an index into ``lines``, the SourceLine -> index
        intern table owned by the enclosing document.
        """
        return {
            "line": lines.setdefault(self.line, len(lines)),
            "speedup_pct": self.speedup_pct,
            "delay_ns": self.delay_ns,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "delay_count": self.delay_count,
            "selected_samples": self.selected_samples,
            "visits": dict(self.visits),
            "counts_before": dict(self.counts_before),
            "counts_after": dict(self.counts_after),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any], lines: List[SourceLine]) -> "ExperimentResult":
        return cls(
            line=lines[d["line"]],
            speedup_pct=d["speedup_pct"],
            delay_ns=d["delay_ns"],
            start_ns=d["start_ns"],
            end_ns=d["end_ns"],
            delay_count=d["delay_count"],
            selected_samples=d["selected_samples"],
            visits=dict(d["visits"]),
            counts_before=dict(d["counts_before"]),
            counts_after=dict(d["counts_after"]),
        )
