"""Profiling-overhead breakdown (§4.4, Figure 9).

The paper measures Coz's overhead by running each benchmark in four
configurations and differencing successive runtimes:

1. no profiler at all                           -> baseline
2. Coz, terminated right after startup work     -> + startup overhead
3. Coz sampling but never inserting delays      -> + sampling overhead
4. Coz fully enabled                            -> + delay overhead

The simulator reproduces the same protocol: configuration 2 charges only the
debug-info processing cost, configuration 3 runs experiments whose virtual
speedup is always 0% (the paper's exact description), and configuration 4 is
the full profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import mean
from typing import Optional

from repro.apps.spec import AppSpec
from repro.core.config import CozConfig
from repro.harness.comparison import measure_runtimes


@dataclass
class OverheadBreakdown:
    """One Figure 9 bar: per-category overhead as % of baseline runtime."""

    name: str
    baseline_ns: float
    startup_pct: float
    sampling_pct: float
    delay_pct: float

    @property
    def total_pct(self) -> float:
        return self.startup_pct + self.sampling_pct + self.delay_pct

    def row(self) -> str:
        return (
            f"{self.name:<14} startup={self.startup_pct:>5.1f}%  "
            f"sampling={self.sampling_pct:>5.1f}%  delays={self.delay_pct:>5.1f}%  "
            f"total={self.total_pct:>5.1f}%"
        )


def measure_overhead(
    spec: AppSpec,
    coz_config: Optional[CozConfig] = None,
    runs: int = 3,
    base_seed: int = 0,
    jobs: int = 1,
    audit_report=None,
) -> OverheadBreakdown:
    """Run the four-configuration protocol on one app.

    Each configuration is timed by :func:`~repro.harness.comparison.
    measure_runtimes`; with ``jobs != 1`` its runs execute in worker
    processes (per-run seeding and averaging are unchanged, so the
    breakdown is identical to serial), and a run that fails is dropped
    from its configuration's mean with a warning.  With an
    ``audit_report`` (:class:`~repro.core.audit.AuditReport`) the three
    profiled configurations run under the invariant audit and the per-run
    reports are folded in.
    """
    coz_config = coz_config or CozConfig()
    if coz_config.scope.files is None and spec.scope.files is not None:
        coz_config = replace(coz_config, scope=spec.scope)

    def timed(cfg: Optional[CozConfig]) -> float:
        if cfg is not None and audit_report is not None:
            cfg = replace(cfg, audit=True)
        return mean(measure_runtimes(
            spec, runs=runs, base_seed=base_seed, jobs=jobs,
            coz_config=cfg, audit_report=audit_report,
        ))

    t_base = timed(None)
    # startup-only: debug info processed, but no sampling and no experiments
    t_startup = timed(replace(coz_config, enable_sampling=False))
    # sampling-only: experiments run with every virtual speedup forced to 0%
    t_sampling = timed(replace(coz_config, enable_delays=False))
    # full
    t_full = timed(coz_config)

    def pct(hi: float, lo: float) -> float:
        return 100.0 * (hi - lo) / t_base

    return OverheadBreakdown(
        name=spec.name,
        baseline_ns=t_base,
        startup_pct=pct(t_startup, t_base),
        sampling_pct=pct(t_sampling, t_startup),
        delay_pct=pct(t_full, t_sampling),
    )
