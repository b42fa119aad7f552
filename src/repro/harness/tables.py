"""Table/figure rendering for the evaluation harness."""

from __future__ import annotations

import io
from typing import Sequence

from repro.harness.comparison import Comparison
from repro.harness.overhead import OverheadBreakdown


def render_table3(rows: Sequence[Comparison]) -> str:
    """Render the Table 3 analogue: speedup ± SE, significance."""
    buf = io.StringIO()
    buf.write("Summary of Optimization Results (Table 3 analogue)\n")
    buf.write(f"{'Application':<15}{'Speedup':>10}{'SE':>8}{'p-value':>11}{'sig(0.001)':>12}\n")
    for c in rows:
        sig = "yes" if c.stats.significant() else "no"
        buf.write(
            f"{c.name:<15}{c.stats.speedup_pct:>9.2f}%{c.stats.se_pct:>7.2f}%"
            f"{c.stats.p_value:>11.2g}{sig:>12}\n"
        )
    return buf.getvalue()


def render_figure9(rows: Sequence[OverheadBreakdown]) -> str:
    """Render the Figure 9 analogue: overhead breakdown per benchmark."""
    buf = io.StringIO()
    buf.write("Profiling overhead breakdown (Figure 9 analogue)\n")
    buf.write(f"{'Benchmark':<15}{'Startup':>9}{'Sampling':>10}{'Delays':>9}{'Total':>9}\n")
    for r in rows:
        buf.write(
            f"{r.name:<15}{r.startup_pct:>8.1f}%{r.sampling_pct:>9.1f}%"
            f"{r.delay_pct:>8.1f}%{r.total_pct:>8.1f}%\n"
        )
    if rows:
        n = len(rows)
        buf.write(
            f"{'MEAN':<15}{sum(r.startup_pct for r in rows) / n:>8.1f}%"
            f"{sum(r.sampling_pct for r in rows) / n:>9.1f}%"
            f"{sum(r.delay_pct for r in rows) / n:>8.1f}%"
            f"{sum(r.total_pct for r in rows) / n:>8.1f}%\n"
        )
    return buf.getvalue()
