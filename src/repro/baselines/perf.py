"""A perf-style sampling profiler (Linux ``perf record`` / ``perf report``).

Pure statistical profiling: samples the instruction pointer on each thread's
CPU clock and reports the share of samples per line and per function.  This
is the profiler the paper runs on SQLite (Figure 7b), where the three
functions Coz flags as 25%-of-runtime opportunities account for just 0.15%
of perf samples — the headline demonstration that "time spent" is not
"optimization opportunity".
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.hooks import Observer
from repro.sim.sampler import SEG_LITERAL, ColumnarBuf, Sample
from repro.sim.source import SourceLine


@dataclass
class PerfEntry:
    """One row of a perf report."""

    key: str          # function name or "file:line"
    samples: int
    pct: float


class PerfProfile:
    """Finished perf output: sample shares by line and by function."""

    def __init__(self, line_samples: Counter, func_samples: Counter) -> None:
        self.line_samples = Counter(line_samples)
        self.func_samples = Counter(func_samples)
        self.total = sum(line_samples.values())

    # rankings sort by (-samples, name): Counter.most_common breaks ties by
    # insertion order, which depends on execution history and would make two
    # bit-identical runs render differently-ordered reports

    def by_line(self) -> List[PerfEntry]:
        total = max(1, self.total)
        return [
            PerfEntry(str(line), n, 100.0 * n / total)
            for line, n in sorted(
                self.line_samples.items(), key=lambda kv: (-kv[1], str(kv[0]))
            )
        ]

    def by_func(self) -> List[PerfEntry]:
        total = max(1, self.total)
        return [
            PerfEntry(func, n, 100.0 * n / total)
            for func, n in sorted(
                self.func_samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def pct_line(self, line: SourceLine) -> float:
        return 100.0 * self.line_samples.get(line, 0) / max(1, self.total)

    def pct_func(self, func: str) -> float:
        return 100.0 * self.func_samples.get(func, 0) / max(1, self.total)

    def render(self, top: Optional[int] = 15, by: str = "func") -> str:
        """Text output shaped like ``perf report`` (Figure 7b)."""
        rows = self.by_func() if by == "func" else self.by_line()
        if top is not None:
            rows = rows[:top]
        buf = io.StringIO()
        buf.write(f"# Samples: {self.total}\n")
        buf.write(f"{'Overhead':>9}  {'Symbol'}\n")
        for e in rows:
            buf.write(f"{e.pct:>8.2f}%  {e.key}\n")
        return buf.getvalue()


class PerfObserver(Observer):
    """Attach to a run to collect a perf-style flat profile."""

    wants_samples = True

    def __init__(self) -> None:
        self._line_samples: Counter = Counter()
        self._func_samples: Counter = Counter()

    def on_sample(self, sample: Sample) -> None:
        self._line_samples[sample.line] += 1
        # top-level code interns as "<main>" here, at the observer boundary,
        # so by_func rows and pct_func lookups agree on one key
        self._func_samples[sample.func or "<main>"] += 1

    def on_sample_batch(self, batch: ColumnarBuf) -> None:
        # a flat profile only needs per-segment counts — every sample in a
        # run-length segment shares one (line, func), so the timestamps
        # never need expanding
        lines = self._line_samples
        funcs = self._func_samples
        for seg in batch.segs:
            if seg[0] == SEG_LITERAL:
                for s in seg[2]:
                    lines[s.line] += 1
                    funcs[s.func or "<main>"] += 1
            else:
                n = seg[1]
                lines[seg[3]] += n
                funcs[seg[5] or "<main>"] += n

    def profile(self) -> PerfProfile:
        return PerfProfile(self._line_samples, self._func_samples)
