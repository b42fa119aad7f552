"""The experiment-planning protocol: plans, planner state, and reports.

A profiling session is a sequence of *runs*; each run executes experiments
on (line, virtual speedup) pairs.  Historically the schedule was hard-coded
in :class:`~repro.core.profiler.CausalProfiler` — every run sampled lines
and speedups uniformly, spending as much measurement on lines whose
confidence intervals converged long ago as on contested knees of the
speedup curve.

This package makes the schedule a first-class, pluggable object:

* an :class:`ExperimentPlan` describes one run — either *free* (the
  profiler's own sampling-driven selection, today's behavior) or *directed*
  (a fixed line and an explicit speedup cycle, built on ``CozConfig``'s
  existing ``fixed_line`` / ``speedup_schedule`` mechanism);
* a :class:`Planner` proposes batches of plans, observes the merged
  :class:`~repro.core.experiment.ExperimentResult`\\ s that come back, and
  decides when the session is done;
* the session runner (:func:`repro.harness.runner.run_profile_session`)
  is the plan *executor*: propose → execute (serial or parallel) →
  observe, until the planner stops.

Determinism contract: a planner's decisions must be a pure function of the
data it has observed.  Observed data replays losslessly from the session
journal, so a resumed session re-derives bit-identical plan decisions
without journaling the plans themselves.  Planners must not consult wall
clocks or unseeded RNGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CozConfig
from repro.plan import PLANNERS
from repro.sim.source import SourceLine, intern_line

#: stopping reasons a planner may assign to a line (PlanReport.line_reason)
REASON_SCHEDULE = "schedule"      # measured by the static round-robin
REASON_CONVERGED = "converged"    # CI target reached; measurement stopped
REASON_ELIMINATED = "eliminated"  # dropped by successive halving
REASON_BUDGET = "budget"          # still active when the run budget ran out


@dataclass(frozen=True)
class PlanConfig:
    """The planner knobs of a :class:`~repro.harness.runner.ProfileRequest`.

    Part of the session fingerprint: a journal written under one planner
    cannot be resumed under another (the replayed data would feed a
    different decision process and silently diverge).
    """

    #: planner name: ``"static"`` (default, bit-identical to the historical
    #: schedule) or ``"adaptive"``
    planner: str = "static"
    #: total run budget; ``None`` = the request's ``runs``
    budget: Optional[int] = None
    #: free exploration runs before the adaptive planner starts directing
    #: (``None`` = ~40% of the budget, at least one)
    explore_runs: Optional[int] = None
    #: per-point bootstrap-SE convergence target for adaptive early
    #: stopping (fraction of program speedup, like ``ProfilePoint.se``)
    se_target: float = 0.01

    def validate(self) -> None:
        if self.planner not in PLANNERS:
            raise ValueError(
                f"unknown planner {self.planner!r} (choose from {PLANNERS})"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError("plan budget must be >= 1")
        if self.explore_runs is not None and self.explore_runs < 1:
            raise ValueError("explore_runs must be >= 1")
        if self.se_target <= 0:
            raise ValueError("se_target must be positive")


@dataclass(frozen=True)
class ExperimentPlan:
    """One planned run.

    ``line is None and speedups is None`` is a *free* run: the profiler
    selects lines from its own samples and speedups from its configured
    distribution — byte-identical to the historical behavior.  Setting
    either field makes the run *directed*: the profiler pins its selection
    to ``line`` and cycles deterministically through ``speedups``.
    """

    #: position in the session schedule; the run's seed is
    #: ``base_seed + index`` (the same rule as every other session run)
    index: int
    #: pin every experiment in the run to this line (None = free selection)
    line: Optional[SourceLine] = None
    #: cycle through these speedup percentages (None = config default);
    #: interleave 0s to keep the per-line baseline growing alongside
    speedups: Optional[Tuple[int, ...]] = None
    #: stop the run after this many experiments (None = run-length bound);
    #: lets a planner budget at experiment granularity — a directed run
    #: packs experiments denser than a free one, so without a cap it
    #: overspends relative to the run count
    max_experiments: Optional[int] = None
    #: human-readable planner intent ("explore", "halve", "knee", ...)
    note: str = ""

    @property
    def is_directed(self) -> bool:
        return (
            self.line is not None
            or self.speedups is not None
            or self.max_experiments is not None
        )

    def apply(self, cfg: CozConfig) -> CozConfig:
        """The run's profiler configuration (the session config, directed)."""
        if not self.is_directed:
            return cfg
        over: Dict[str, Any] = {}
        if self.line is not None:
            over["fixed_line"] = self.line
        if self.speedups is not None:
            over["speedup_schedule"] = tuple(self.speedups)
        if self.max_experiments is not None:
            over["max_experiments"] = self.max_experiments
        return replace(cfg, **over)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "line": [self.line.file, self.line.lineno] if self.line else None,
            "speedups": list(self.speedups) if self.speedups else None,
            "max_experiments": self.max_experiments,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExperimentPlan":
        line = d.get("line")
        speedups = d.get("speedups")
        return cls(
            index=d["index"],
            line=intern_line(*line) if line else None,
            speedups=tuple(speedups) if speedups else None,
            max_experiments=d.get("max_experiments"),
            note=d.get("note", ""),
        )


@dataclass
class PlannerState:
    """What a planner sees between batches: everything observed so far."""

    #: merged data from every completed (or journal-replayed) run
    data: "Any"  # ProfileData; typed loosely to avoid an import cycle
    #: the progress point profiles are built against
    primary_progress: str
    #: the session's resolved profiler configuration (scope filled)
    coz_config: CozConfig
    #: the session's distinct-speedup filter (profile admission rule)
    min_speedup_amounts: int = 2
    #: runs merged so far (executed + replayed)
    runs_completed: int = 0


@dataclass
class PlanReport:
    """How the planner spent the session: per-line spend and stop reasons."""

    planner: str
    budget: int
    rounds: int
    #: runs the planner actually scheduled (<= budget)
    runs_planned: int
    #: experiments observed per line
    line_spend: Dict[SourceLine, int] = field(default_factory=dict)
    #: why measurement of each line stopped (REASON_* above)
    line_reason: Dict[SourceLine, str] = field(default_factory=dict)
    #: chronological narration of the planner's decisions
    decisions: List[str] = field(default_factory=list)

    def spend(self, line: SourceLine) -> int:
        return self.line_spend.get(line, 0)

    def reason(self, line: SourceLine) -> str:
        return self.line_reason.get(line, REASON_SCHEDULE)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "planner": self.planner,
            "budget": self.budget,
            "rounds": self.rounds,
            "runs_planned": self.runs_planned,
            "line_spend": {str(k): v for k, v in sorted(self.line_spend.items())},
            "line_reason": {str(k): v for k, v in sorted(self.line_reason.items())},
            "decisions": list(self.decisions),
        }


class Planner:
    """The planning protocol; concrete planners subclass this.

    The session runner drives::

        while not planner.done():
            plans = planner.propose(state)   # [] also ends the session
            ... execute the batch, merge results ...
            planner.observe(batch_results)

    ``propose`` must be deterministic given the observed data (see the
    module docstring), and every proposed index must be fresh and dense
    (0, 1, 2, ... in scheduling order) so run seeds stay reproducible.
    """

    name = "planner"

    def propose(self, state: PlannerState) -> List[ExperimentPlan]:
        """The next batch of runs (empty = nothing left to learn)."""
        raise NotImplementedError

    def observe(self, results: Sequence[Any]) -> None:
        """Feed back one batch's merged ``ExperimentResult``\\ s."""

    def done(self) -> bool:
        """True once the planner has nothing more to propose."""
        raise NotImplementedError

    def report(self) -> PlanReport:
        """Summarize spend + stopping reasons (after the session ends)."""
        raise NotImplementedError
