"""A gprof-style profiler (Graham, Kessler & McKusick 1982).

gprof combines per-call instrumentation (mcount) with statistical sampling
of self time.  The simulated version:

* counts calls per (caller, callee) edge via PushFrame events;
* accounts *self* time per function exactly (the simulator knows it; real
  gprof approximates it by sampling, which only adds noise);
* charges a per-call instrumentation cost to the profiled program — this is
  gprof's probe effect, which the paper measured at up to 6x for ferret.

The output mirrors Figure 2a: a flat profile (% time, cumulative/self
seconds, calls) and a call graph with caller/callee attribution.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import NS_PER_SEC
from repro.sim.hooks import Observer
from repro.sim.source import SourceLine
from repro.sim.thread import VThread


@dataclass
class FlatEntry:
    """One row of the gprof flat profile."""

    func: str
    pct_time: float
    cumulative_s: float
    self_s: float
    calls: int


class GprofProfile:
    """Finished gprof output: flat profile plus call graph."""

    def __init__(
        self,
        self_ns: Dict[str, int],
        calls: Dict[str, int],
        edges: Dict[Tuple[str, str], int],
        total_ns: int,
    ) -> None:
        self.self_ns = dict(self_ns)
        self.calls = dict(calls)
        self.edges = dict(edges)
        self.total_ns = total_ns

    def flat(self) -> List[FlatEntry]:
        """Flat profile rows, sorted by self time like gprof.

        Ties break on the function name, not on counter insertion order —
        insertion order is an execution-history artifact that would make
        rankings differ between otherwise identical runs (and poison rank
        comparisons in the differential report).
        """
        entries = []
        cumulative = 0.0
        total = max(1, self.total_ns)
        for func, ns in sorted(self.self_ns.items(), key=lambda kv: (-kv[1], kv[0])):
            cumulative += ns / NS_PER_SEC
            entries.append(
                FlatEntry(
                    func=func,
                    pct_time=100.0 * ns / total,
                    cumulative_s=cumulative,
                    self_s=ns / NS_PER_SEC,
                    calls=self.calls.get(func, 0),
                )
            )
        return entries

    def pct_time(self, func: str) -> float:
        """Percent of total self time attributed to ``func``."""
        return 100.0 * self.self_ns.get(func, 0) / max(1, self.total_ns)

    def callers(self, func: str) -> Dict[str, int]:
        """Call counts into ``func`` by caller."""
        return {
            caller: n for (caller, callee), n in self.edges.items() if callee == func
        }

    def render(self, top: Optional[int] = None) -> str:
        """Text output shaped like gprof's flat profile (Figure 2a)."""
        buf = io.StringIO()
        buf.write("Flat profile:\n\n")
        buf.write(
            f"{'%':>6} {'cumulative':>10} {'self':>9} {'':>9} {'name'}\n"
            f"{'time':>6} {'seconds':>10} {'seconds':>9} {'calls':>9}\n"
        )
        rows = self.flat()
        if top is not None:
            rows = rows[:top]
        for e in rows:
            buf.write(
                f"{e.pct_time:>6.2f} {e.cumulative_s:>10.2f} {e.self_s:>9.2f} "
                f"{e.calls:>9} {e.func}\n"
            )
        return buf.getvalue()


class GprofObserver(Observer):
    """Attach to a run to collect a gprof profile.

    ``call_overhead_ns`` models mcount: the engine charges it to the profiled
    thread on every function entry, so a gprof-instrumented run is *slower*
    (the paper's overhead comparison in §4.4).
    """

    # self-time comes from exact on_work accounting, not samples
    wants_samples = False

    def __init__(self, call_overhead_ns: int = 150) -> None:
        self.call_overhead_ns = call_overhead_ns
        self._self_ns: Counter = Counter()
        self._calls: Counter = Counter()
        self._edges: Counter = Counter()
        self._total_ns = 0

    # Top-level code (an empty func/caller string) is interned as "<main>"
    # *here*, at the observer boundary, so every counter agrees on the key.
    # Normalizing only in on_work — as an earlier version did — left the
    # "<main>" flat row with calls=0 and split its outgoing edges under a
    # second name.

    def on_call(self, thread: VThread, func: str, caller: str) -> None:
        self._calls[func or "<main>"] += 1
        self._edges[(caller or "<main>", func or "<main>")] += 1

    def on_thread_created(self, thread: VThread, parent: Optional[VThread]) -> None:
        # entering a thread's top-level code is the one "call" of <main>
        self._calls["<main>"] += 1
        self._edges[("<spontaneous>", "<main>")] += 1

    def on_work(self, thread: VThread, line: SourceLine, func: str, nominal_ns: int) -> None:
        self._self_ns[func or "<main>"] += nominal_ns
        self._total_ns += nominal_ns

    def profile(self) -> GprofProfile:
        return GprofProfile(self._self_ns, self._calls, self._edges, self._total_ns)
