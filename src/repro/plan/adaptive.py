"""The adaptive planner: spend measurement where it changes the answer.

Strategy (successive halving with variance-aware early stopping):

1. **Explore** — a short prefix of free runs (identical to the static
   schedule, so checkpoint fast-forward snapshots recorded by static
   sessions warm these runs too) discovers candidate lines and rough
   speedup curves.
2. **Halve** — between batches, build each candidate's line profile with
   the same code and bootstrap stream the final report uses
   (:func:`~repro.core.profile_data.build_line_profile`, whose per-point
   SEs resample index columns drawn by
   :func:`~repro.stats.bootstrap.resample_indices`).  Lines whose every
   measured point has standard error at or below ``se_target`` are
   *converged* and stop consuming budget; the bottom half of the
   remaining candidates (ranked by regression slope, with whole-run
   sample share as the prior for lines too thin to regress) is
   *eliminated* each round.
3. **Direct** — each surviving candidate gets one directed run per round:
   the profiler is pinned to the line (``fixed_line``) and cycles through
   the probe speedups with the widest confidence intervals, 0% baselines
   interleaved so the normalization denominator keeps pace.  When a curve
   turns downward past its peak (a *knee* — the contention signature of
   §2), the probes bracket the knee to pin down where the turn happens.
4. Stop when every candidate is converged or eliminated, or the run
   budget is exhausted (remaining candidates are marked ``budget``).

Every decision is a deterministic function of the observed experiment
results (bootstrap seeds are fixed), so a resumed session replays the
identical plan sequence from the journal's data alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.profile_data import LineProfile, build_line_profile
from repro.plan.base import (
    REASON_BUDGET,
    REASON_CONVERGED,
    REASON_ELIMINATED,
    ExperimentPlan,
    Planner,
    PlannerState,
    PlanReport,
)
from repro.sim.source import SourceLine


@dataclass
class _Arm:
    """One candidate line's bandit-arm state."""

    line: SourceLine
    status: str = "active"  # active | converged | eliminated | budget
    score: float = 0.0
    directed_runs: int = 0


class AdaptivePlanner(Planner):
    """Successive-halving planner over candidate lines."""

    name = "adaptive"

    def __init__(
        self,
        budget: int,
        explore_runs: Optional[int] = None,
        se_target: float = 0.01,
        probes: int = 2,
        min_keep: int = 2,
        directed_passes: int = 3,
    ) -> None:
        if budget < 1:
            raise ValueError("adaptive planner needs a budget of at least one run")
        self.budget = budget
        #: free exploration prefix: short — one run up to budget 5, ~30% after
        self.explore = min(
            budget,
            explore_runs if explore_runs is not None else max(1, budget // 3),
        )
        self.se_target = se_target
        self.probes = max(1, probes)
        self.min_keep = max(1, min_keep)
        #: directed runs stop after this many cycles through their probe
        #: schedule — the experiment-granularity budget (a directed run
        #: otherwise packs ~1.5x the experiments of a free run)
        self.directed_passes = max(1, directed_passes)
        #: per-run experiment cap for explore runs; candidate ranking rides
        #: on sample shares (sampling continues past the cap), so explore
        #: experiments only need to seed baselines and a few curve points
        self.explore_cap = 2 * probes + 2

        self.arms: Dict[SourceLine, _Arm] = {}
        self.rounds = 0
        self.decisions: List[str] = []
        self._next_index = 0
        self._spend: Counter = Counter()
        self._done = False

    # ------------------------------------------------------------------ protocol

    def propose(self, state: PlannerState) -> List[ExperimentPlan]:
        if self._done:
            return []
        if self._next_index == 0:
            n = self.explore
            self._next_index = n
            self.rounds += 1
            self.decisions.append(f"round {self.rounds}: explore {n} free run(s)")
            if n >= self.budget:
                self._close(REASON_BUDGET)
            # capped: exploration only needs to rank candidates, and line
            # discovery rides on sampling (which continues past the cap)
            return [
                ExperimentPlan(
                    index=i, max_experiments=self.explore_cap, note="explore"
                )
                for i in range(n)
            ]

        targets = self._analyze(state)
        if not targets:
            self._done = True
            return []
        plans: List[ExperimentPlan] = []
        for line, speedups, note in targets:
            if self._next_index >= self.budget:
                break
            plans.append(
                ExperimentPlan(
                    index=self._next_index,
                    line=line,
                    speedups=speedups,
                    max_experiments=self.directed_passes * len(speedups),
                    note=note,
                )
            )
            self.arms[line].directed_runs += 1
            self._next_index += 1
        if not plans:
            self._close(REASON_BUDGET)
            return []
        self.rounds += 1
        self.decisions.append(
            f"round {self.rounds}: direct " + "; ".join(p.note for p in plans)
        )
        if self._next_index >= self.budget:
            self._close(REASON_BUDGET)
        return plans

    def observe(self, results: Sequence[Any]) -> None:
        for r in results:
            self._spend[r.line] += 1

    def done(self) -> bool:
        return self._done

    def report(self) -> PlanReport:
        reasons = {
            line: (REASON_BUDGET if arm.status == "active" else arm.status)
            for line, arm in self.arms.items()
        }
        return PlanReport(
            planner=self.name,
            budget=self.budget,
            rounds=self.rounds,
            runs_planned=self._next_index,
            line_spend=dict(self._spend),
            line_reason=reasons,
            decisions=list(self.decisions),
        )

    # ------------------------------------------------------------------ analysis

    def _close(self, reason: str) -> None:
        self._done = True
        for arm in self.arms.values():
            if arm.status == "active":
                arm.status = reason

    def _analyze(
        self, state: PlannerState
    ) -> List[Tuple[SourceLine, Tuple[int, ...], str]]:
        """Converge / halve / pick probe schedules for the next round."""
        data = state.data
        grid = sorted({s for s in state.coz_config.speedup_values if s != 0})
        min_points = max(state.min_speedup_amounts, 2)
        total_samples = sum(
            sum(r.line_samples.values()) for r in data.runs
        ) or 1

        # candidates come from experiments *and* raw samples: capped explore
        # runs stop experimenting early, but sampling keeps attributing the
        # whole run, so sampled-only lines are still discoverable
        scope = state.coz_config.scope
        sampled = {
            line
            for r in data.runs
            for line in r.line_samples
            if scope.contains(line)
        }
        for line in sorted(sampled.union(data.lines())):
            if line not in self.arms:
                self.arms[line] = _Arm(line=line)

        profiles: Dict[SourceLine, Optional[LineProfile]] = {}
        for line, arm in self.arms.items():
            if arm.status != "active":
                continue
            lp = build_line_profile(
                data,
                line,
                state.primary_progress,
                phase_correction=state.coz_config.phase_correction,
            )
            profiles[line] = lp
            replicated = (
                sum(
                    1
                    for p in lp.points
                    if p.speedup_pct > 0 and p.n_experiments >= 2
                )
                if lp is not None
                else 0
            )
            if lp is not None and replicated >= 2:
                arm.score = lp.slope
                if self._is_converged(lp, min_points):
                    arm.status = REASON_CONVERGED
                    self.decisions.append(
                        f"converged {line} (max SE <= {self.se_target:g} "
                        f"over {len(lp.points)} speedups)"
                    )
            else:
                # too thin to regress (no profile, or nothing but singleton
                # points whose slope is noise): whole-run sample share as
                # the prior — a hot serial line's slope roughly tracks its
                # share, and optimism toward hot-but-unmeasured lines is
                # what keeps halving from discarding them on noise
                arm.score = data.total_line_samples(line) / total_samples

        active = sorted(
            (a for a in self.arms.values() if a.status == "active"),
            key=lambda a: (-a.score, a.line),
        )
        if not grid:
            # nothing but the 0% baseline is probeable; directed runs
            # cannot tighten anything
            self._close(REASON_BUDGET)
            return []
        if len(active) > self.min_keep:
            keep = max(self.min_keep, len(active) // 3)
            # a downward-sloping line is a finding in its own right (§2's
            # contention signature): contended arms displace the weakest
            # keepers rather than growing the round beyond ``keep`` runs
            contended = [
                a
                for a in active
                if (lp := profiles.get(a.line)) is not None and lp.is_contended()
            ]
            survivors = list(contended[:keep])
            for arm in active:
                if len(survivors) >= keep:
                    break
                if arm not in survivors:
                    survivors.append(arm)
            dropped = [a for a in active if a not in survivors]
            for arm in dropped:
                arm.status = REASON_ELIMINATED
            if dropped:
                self.decisions.append(
                    "halved: eliminated " + ", ".join(str(a.line) for a in dropped)
                )
            survivors.sort(key=lambda a: (-a.score, a.line))
            active = survivors

        # scale the probe count to observed run density: a schedule with
        # more targets than a run can cycle through replicates nothing
        # (4 experiments over (0,p1,0,p2) leaves every point a singleton,
        # where (0,p1) twice replicates p1).  Deterministic: derived from
        # observed experiment counts only.
        per_run = len(data.experiments) / max(1, state.runs_completed)
        probes = min(self.probes, max(1, int(per_run) // 4))

        # neediest first: when the remaining budget cannot cover every
        # surviving arm this round, spend it where the intervals are widest
        def need(arm: _Arm) -> float:
            lp = profiles.get(arm.line)
            if lp is None:
                return float("inf")
            widths = [
                (p.se if p.n_experiments >= 2 else float("inf"))
                for p in lp.points
                if p.speedup_pct > 0
            ]
            return max(widths, default=float("inf"))

        active.sort(key=lambda a: (-need(a), -a.score, a.line))
        targets = []
        for arm in active:
            speedups, note = self._probe_schedule(
                arm.line, profiles.get(arm.line), grid, probes
            )
            targets.append((arm.line, speedups, f"{note} {arm.line}"))
        return targets

    def _is_converged(self, lp: LineProfile, min_points: int) -> bool:
        if len(lp.points) < min_points:
            return False
        nonzero = [p for p in lp.points if p.speedup_pct > 0]
        if not nonzero:
            return False
        if any(p.se > self.se_target for p in nonzero):
            return False
        # singleton groups bootstrap-resample to themselves and understate
        # their variance, so a tight SE alone isn't proof: demand at least
        # ``min_points`` genuinely replicated speedups before trusting the
        # curve (stray singletons at other speedups are fine — their small
        # SEs no longer gate convergence)
        replicated = [p for p in nonzero if p.n_experiments >= 2]
        return len(replicated) >= min_points

    def _probe_schedule(
        self,
        line: SourceLine,
        lp: Optional[LineProfile],
        grid: List[int],
        probes: int,
    ) -> Tuple[Tuple[int, ...], str]:
        """Probe speedups for one directed run, 0% baselines interleaved."""
        note = "halve"
        if lp is None:
            targets = _spread(grid, probes)
        else:
            nonzero = [p for p in lp.points if p.speedup_pct > 0]
            # two tiers: replicated points whose CI is still wide (real
            # variance to shrink, widest first), then singletons in fixed
            # pct order — a *stable* order across rounds, so successive
            # directed runs replicate the same points instead of
            # scattering one experiment onto each
            wide = sorted(
                (
                    p
                    for p in nonzero
                    if p.n_experiments >= 2 and p.se > self.se_target
                ),
                key=lambda p: (-p.se, p.speedup_pct),
            )
            singles = sorted(
                (p for p in nonzero if p.n_experiments < 2),
                key=lambda p: p.speedup_pct,
            )
            targets = [p.speedup_pct for p in (wide + singles)[: probes]]
            knee = _find_knee(lp)
            if knee is not None:
                # bracket the knee, but never dilute the schedule: a probe
                # point's replication rate is cycles-per-run, which drops
                # as the target list grows
                note = "knee"
                measured = {p.speedup_pct for p in lp.points}
                for cand in _neighbors(grid, knee):
                    if len(targets) > probes:
                        break
                    if cand not in targets and cand not in measured:
                        targets.append(cand)
            if not targets:
                # every measured point is tight but the line needs more
                # distinct speedups to clear the profile admission filter
                measured = {p.speedup_pct for p in nonzero}
                targets = _spread([g for g in grid if g not in measured], probes)
            if not targets:
                targets = _spread(grid, probes)
        schedule: List[int] = []
        for pct in sorted(set(targets)):
            schedule.extend((0, pct))
        return tuple(schedule), note


def _spread(grid: List[int], n: int) -> List[int]:
    """Up to ``n`` values spanning the grid (quartile-ish positions)."""
    if not grid:
        return []
    if len(grid) <= n:
        return list(grid)
    picks = []
    for k in range(1, n + 1):
        idx = round(k * (len(grid) - 1) / (n + 1))
        picks.append(grid[idx])
    return sorted(set(picks))


def _find_knee(lp: LineProfile) -> Optional[int]:
    """Speedup pct where the curve peaks before turning down, if it does."""
    pts = sorted(lp.points, key=lambda p: p.speedup_pct)
    if len(pts) < 3:
        return None
    peak = max(pts, key=lambda p: p.program_speedup)
    after = [p for p in pts if p.speedup_pct > peak.speedup_pct]
    for p in after:
        drop = peak.program_speedup - p.program_speedup
        if drop > max(peak.se, p.se):
            return peak.speedup_pct
    return None


def _neighbors(grid: List[int], pct: int) -> List[int]:
    """Grid values bracketing ``pct`` (nearest below and above)."""
    below = [g for g in grid if g < pct]
    above = [g for g in grid if g > pct]
    out = []
    if below:
        out.append(below[-1])
    if above:
        out.append(above[0])
    return out
