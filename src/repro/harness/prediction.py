"""Prediction-accuracy studies (§4.3).

The paper validates Coz by optimizing the *specific line* Coz flagged,
measuring how much faster that line got, reading the predicted program
speedup off the causal profile at that x-value, and comparing it with the
realized end-to-end speedup:

* ferret: line 320's throughput +27%  -> predicted 21.4%, observed 21.2%;
* dedup: hash chain 77.7 -> 3.09 trips (96% line speedup) -> predicted 9%,
  observed 8.95%.

:func:`accuracy_study` does the same on the simulator: profile the app with
a focused (fixed-line) configuration, actually speed the line up through
the engine's ``SimConfig.line_speedups``, and report predicted vs realized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import mean
from typing import Optional

from repro.apps.spec import AppSpec
from repro.core.analysis import predict_program_speedup
from repro.core.config import CozConfig
from repro.core.profile_data import LineProfile
from repro.harness.runner import profile_app
from repro.sim.engine import normalize_line_speedups
from repro.sim.program import Program
from repro.sim.source import SourceLine


@dataclass
class AccuracyResult:
    """Predicted vs realized program speedup for one line optimization."""

    app: str
    line: SourceLine
    line_speedup_pct: float
    predicted: float   # fraction
    realized: float    # fraction
    profile: LineProfile

    @property
    def error_pp(self) -> float:
        """Absolute prediction error in percentage points."""
        return abs(self.predicted - self.realized) * 100.0

    def row(self) -> str:
        return (
            f"{self.app:<10} {self.line}: line +{self.line_speedup_pct:.0f}% -> "
            f"predicted {100 * self.predicted:+.2f}%, realized {100 * self.realized:+.2f}% "
            f"(error {self.error_pp:.2f}pp)"
        )


def accuracy_study(
    spec: AppSpec,
    line: SourceLine,
    line_speedup_pct: float,
    coz_config: Optional[CozConfig] = None,
    profile_runs: int = 6,
    timing_runs: int = 5,
    base_seed: int = 0,
) -> AccuracyResult:
    """Profile ``line`` on ``spec``, then realize the optimization.

    The realized runs are ``spec``'s programs with ``line``'s costs scaled
    by ``1 - line_speedup_pct / 100`` through ``SimConfig.line_speedups``,
    on top of any line speedups the spec already carries.
    """
    # validated here, before profiling: a percentage over 100 is rejected
    sped_up = normalize_line_speedups({line: 1.0 - line_speedup_pct / 100.0})
    coz_config = coz_config or CozConfig()
    coz_config = replace(
        coz_config,
        scope=spec.scope if coz_config.scope.files is None else coz_config.scope,
        fixed_line=line,
    )
    outcome = profile_app(spec, runs=profile_runs, coz_config=coz_config,
                          base_seed=base_seed)
    profile = outcome.profile.get(line)
    if profile is None:
        raise RuntimeError(f"no profile collected for {line}")
    predicted = predict_program_speedup(profile, line_speedup_pct)

    base = mean(
        spec.build(base_seed + i).run().runtime_ns for i in range(timing_runs)
    )
    opt = mean(
        _runtime_with(spec.build(base_seed + i), sped_up)
        for i in range(timing_runs)
    )
    realized = (base - opt) / base
    return AccuracyResult(
        app=spec.name,
        line=line,
        line_speedup_pct=line_speedup_pct,
        predicted=predicted,
        realized=realized,
        profile=profile,
    )


def _runtime_with(program: Program, speedups) -> int:
    speedups = {**dict(program.config.line_speedups), **dict(speedups)}
    return program.run(config=replace(program.config, line_speedups=speedups)).runtime_ns
