"""A GAPP-style serialization-bottleneck profiler (Nair & Field, 2020).

GAPP ("Generic Automatic Parallel Profiler") ranks code by *criticality*:
blocked time weighted by how many threads were blocked concurrently, under
the observation that a lock-holder delaying N waiters is N times as critical
as one delaying a single waiter.  Unlike gprof/perf it charges that time to
the code the *waker* (lock holder / signaller) was executing when it released
the waiters — serialization is the holder's fault, not the waiters'.

The simulated version rides the engine's passive block/unblock observer
surface:

* a running integral ``I(t) = ∫ n_blocked dt`` is advanced on every block
  and unblock edge;
* a thread blocked over ``[t0, t1)`` contributes ``I(t1) - I(t0)`` weighted
  nanoseconds — exactly its own blocked time multiplied, instant by
  instant, by the number of concurrently-blocked threads;
* the contribution is attributed to the waker's callchain walked outward to
  the first non-pseudo source line (the same callchain-walking rule Coz
  uses for out-of-scope samples), so ``<runtime>``/``<libc>`` frames never
  absorb blame.

Criticality is reported as a percentage of total weighted blocked time,
rendered like the gprof/perf reports so the differential harness can compare
all three rankings against the causal profile.

This is a *baseline*, and it shares the baselines' core limitation the paper
targets: blocked time measures where waiting happens, not what an
optimization would buy.  GAPP finds serialization bottlenecks well (it will
rank a contended mutex's holder site highly) but still cannot see
throughput-limiting code that never blocks anyone.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.clock import NS_PER_SEC
from repro.sim.hooks import Observer
from repro.sim.source import RUNTIME_LINE, SourceLine
from repro.sim.thread import VThread


@dataclass
class GappEntry:
    """One row of a GAPP criticality report."""

    key: str            # "file:line" of the holder site, or function name
    criticality: float  # % of total weighted blocked time
    weighted_s: float   # blocked seconds weighted by concurrent blockers
    blocked_s: float    # raw blocked seconds attributed to this site
    edges: int          # block/unblock edges attributed to this site


class GappProfile:
    """Finished GAPP output: criticality by holder site and by function."""

    def __init__(
        self,
        sites: Dict[SourceLine, List[int]],
        line_funcs: Dict[SourceLine, str],
        total_weighted_ns: int,
        total_blocked_ns: int,
        total_edges: int,
        runtime_ns: int,
    ) -> None:
        #: holder site -> [weighted_ns, blocked_ns, edges]
        self.sites = {ln: list(v) for ln, v in sites.items()}
        self.line_funcs = dict(line_funcs)
        self.total_weighted_ns = total_weighted_ns
        self.total_blocked_ns = total_blocked_ns
        self.total_edges = total_edges
        self.runtime_ns = runtime_ns

    def _func_of(self, ln: SourceLine) -> str:
        if ln.file.startswith("<"):
            return ln.file
        return self.line_funcs.get(ln, "<main>")

    def by_line(self) -> List[GappEntry]:
        """Criticality per holder site, sorted by (-weight, key)."""
        total = max(1, self.total_weighted_ns)
        return [
            GappEntry(
                key=str(ln),
                criticality=100.0 * w / total,
                weighted_s=w / NS_PER_SEC,
                blocked_s=b / NS_PER_SEC,
                edges=e,
            )
            for ln, (w, b, e) in sorted(
                self.sites.items(), key=lambda kv: (-kv[1][0], str(kv[0]))
            )
        ]

    def by_func(self) -> List[GappEntry]:
        """Criticality aggregated over each holder site's function."""
        total = max(1, self.total_weighted_ns)
        agg: Dict[str, List[int]] = {}
        for ln, (w, b, e) in self.sites.items():
            acc = agg.setdefault(self._func_of(ln), [0, 0, 0])
            acc[0] += w
            acc[1] += b
            acc[2] += e
        return [
            GappEntry(
                key=func,
                criticality=100.0 * w / total,
                weighted_s=w / NS_PER_SEC,
                blocked_s=b / NS_PER_SEC,
                edges=e,
            )
            for func, (w, b, e) in sorted(
                agg.items(), key=lambda kv: (-kv[1][0], kv[0])
            )
        ]

    def criticality_line(self, ln: SourceLine) -> float:
        """Percent of total weighted blocked time attributed to ``ln``."""
        w = self.sites.get(ln, (0, 0, 0))[0]
        return 100.0 * w / max(1, self.total_weighted_ns)

    def render(self, top: Optional[int] = 15, by: str = "line") -> str:
        """Text output shaped like the gprof/perf reports."""
        rows = self.by_func() if by == "func" else self.by_line()
        if top is not None:
            rows = rows[:top]
        buf = io.StringIO()
        buf.write(
            f"# GAPP criticality: blocked time weighted by concurrent blockers\n"
            f"# Block edges: {self.total_edges}   "
            f"blocked: {self.total_blocked_ns / NS_PER_SEC:.3f}s   "
            f"weighted: {self.total_weighted_ns / NS_PER_SEC:.3f}s\n"
        )
        buf.write(
            f"{'Crit%':>7} {'weighted(s)':>12} {'blocked(s)':>11} "
            f"{'edges':>7}  holder site\n"
        )
        for e in rows:
            buf.write(
                f"{e.criticality:>7.2f} {e.weighted_s:>12.3f} "
                f"{e.blocked_s:>11.3f} {e.edges:>7}  {e.key}\n"
            )
        return buf.getvalue()


class GappObserver(Observer):
    """Attach to a run to collect a GAPP criticality profile.

    Strictly passive: it reads the engine clock and thread callchains on
    block/unblock notifications but injects no cost, so an observed run is
    bit-identical to an unobserved one.
    """

    wants_samples = False

    def __init__(self) -> None:
        self._engine = None
        self._sites: Dict[SourceLine, List[int]] = {}
        self._line_funcs: Dict[SourceLine, str] = {}
        # running integral of n_blocked over virtual time
        self._n_blocked = 0
        self._integral = 0
        self._integral_at = 0
        # thread -> integral value when it blocked
        self._pending: Dict[VThread, int] = {}
        self._total_weighted = 0
        self._total_blocked = 0
        self._total_edges = 0
        self._runtime_ns = 0

    # -- integral maintenance --------------------------------------------------

    def _advance(self) -> int:
        now = self._engine.now
        self._integral += self._n_blocked * (now - self._integral_at)
        self._integral_at = now
        return self._integral

    # -- observer surface ------------------------------------------------------

    def on_run_start(self, engine) -> None:
        self._engine = engine

    def on_run_end(self, engine) -> None:
        self._runtime_ns = engine.now

    def on_work(self, thread: VThread, line: SourceLine, func: str, nominal_ns: int) -> None:
        # remember which function each line runs under; the differential
        # report uses this to project line rankings into function space
        if line not in self._line_funcs:
            self._line_funcs[line] = func or "<main>"

    def on_block(self, thread: VThread, obj: object) -> None:
        self._pending[thread] = self._advance()
        self._n_blocked += 1

    def on_unblock(
        self, thread: VThread, waker: Optional[VThread], blocked_ns: int
    ) -> None:
        integral = self._advance()
        self._n_blocked -= 1
        weighted = integral - self._pending.pop(thread)
        site = self._holder_site(waker)
        acc = self._sites.get(site)
        if acc is None:
            acc = self._sites[site] = [0, 0, 0]
        acc[0] += weighted
        acc[1] += blocked_ns
        acc[2] += 1
        self._total_weighted += weighted
        self._total_blocked += blocked_ns
        self._total_edges += 1

    # -- attribution -----------------------------------------------------------

    def _holder_site(self, waker: Optional[VThread]) -> SourceLine:
        """The waker's callchain walked to the first non-pseudo line.

        At notification time the waker is still executing its waking op, so
        its innermost line is the unlock/signal/post call site; pseudo-file
        frames (``<runtime>``, ``<libc>``) walk outward to app code exactly
        like Coz's out-of-scope sample attribution.
        """
        if waker is None:
            return RUNTIME_LINE
        for ln in waker.callchain():
            if ln is not None and not ln.file.startswith("<"):
                return ln
        return RUNTIME_LINE

    def profile(self) -> GappProfile:
        return GappProfile(
            self._sites,
            self._line_funcs,
            self._total_weighted,
            self._total_blocked,
            self._total_edges,
            self._runtime_ns,
        )
