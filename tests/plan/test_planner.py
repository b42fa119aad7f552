"""The planner API: static-planner identity with the historical schedule,
adaptive determinism and journal replay, plan wire format, experiment caps,
and the report's planner columns."""

import random

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.report import render_plan, render_profile
from repro.harness import (
    ExecutionConfig,
    JournalError,
    ProfileRequest,
    ResilienceConfig,
    run_profile_session,
)
from repro.plan import (
    AdaptivePlanner,
    ExperimentPlan,
    PlanConfig,
    RunScheduler,
    StaticPlanner,
    make_planner,
)
from repro.plan.base import REASON_SCHEDULE
from repro.sim import line


def _session(app="example", runs=3, **kw):
    return run_profile_session(registry.build(app), ProfileRequest(runs=runs, **kw))


def _adaptive_request(runs=4, **kw):
    return ProfileRequest(
        runs=runs,
        plan=PlanConfig(planner="adaptive", budget=runs),
        **kw,
    )


# -- planner resolution and config validation ----------------------------------------


def test_make_planner_resolves_names():
    static = make_planner(PlanConfig(), default_runs=7)
    assert isinstance(static, StaticPlanner)
    assert static.runs == 7

    adaptive = make_planner(PlanConfig(planner="adaptive", budget=4), default_runs=7)
    assert isinstance(adaptive, AdaptivePlanner)
    assert adaptive.budget == 4


@pytest.mark.parametrize(
    "kw",
    [
        {"planner": "annealing"},
        {"budget": 0},
        {"explore_runs": 0},
        {"se_target": 0.0},
    ],
)
def test_plan_config_rejects_bad_knobs(kw):
    with pytest.raises(ValueError):
        PlanConfig(**kw).validate()


def test_coz_config_rejects_bad_experiment_cap():
    with pytest.raises(ValueError, match="max_experiments"):
        CozConfig(max_experiments=0).validate()


# -- experiment plans: wire format and config application ----------------------------


def test_experiment_plan_roundtrip():
    free = ExperimentPlan(index=0)
    directed = ExperimentPlan(
        index=3,
        line=line("app.c:10"),
        speedups=(0, 25, 0, 75),
        max_experiments=6,
        note="knee",
    )
    for plan in (free, directed):
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
    assert not free.is_directed
    assert directed.is_directed
    assert ExperimentPlan(index=1, max_experiments=2).is_directed


def test_experiment_plan_apply():
    cfg = CozConfig()
    assert ExperimentPlan(index=0).apply(cfg) is cfg

    directed = ExperimentPlan(
        index=1, line=line("app.c:10"), speedups=(0, 50), max_experiments=4
    )
    applied = directed.apply(cfg)
    assert applied.fixed_line == line("app.c:10")
    assert applied.speedup_schedule == (0, 50)
    assert applied.max_experiments == 4
    # everything not directed stays the session's
    assert applied.seed == cfg.seed
    assert applied.experiment_duration_ns == cfg.experiment_duration_ns


# -- in-run selection (RunScheduler) -------------------------------------------------


def test_run_scheduler_directed_selection():
    cfg = CozConfig(fixed_line=line("app.c:10"), speedup_schedule=(5, 10))
    sched = RunScheduler(cfg, random.Random(0))
    assert sched.select_line([], has_samples=False) is None
    assert sched.select_line([], has_samples=True) == line("app.c:10")
    assert [sched.choose_speedup() for _ in range(4)] == [5, 10, 5, 10]
    assert sched.schedule_idx == 4


def test_run_scheduler_free_selection_uses_shared_rng():
    batch = [line("app.c:10"), line("app.c:20")]
    picks = {
        RunScheduler(CozConfig(), random.Random(seed)).select_line(batch, True)
        for seed in range(8)
    }
    assert picks == set(batch)


# -- the experiment cap --------------------------------------------------------------


def test_max_experiments_caps_a_run():
    spec = registry.build("example")
    capped = run_profile_session(
        spec,
        ProfileRequest(
            runs=1, coz_config=CozConfig(scope=spec.scope, max_experiments=3)
        ),
    )
    free = run_profile_session(
        spec, ProfileRequest(runs=1, coz_config=CozConfig(scope=spec.scope))
    )
    assert len(capped.data.experiments) == 3
    assert len(free.data.experiments) > 3
    # the capped run is a prefix of the free one: same seed, same selections
    assert capped.data.experiments == free.data.experiments[:3]


# -- static planner: bit-identical to the pre-planner schedule -----------------------


def test_static_planner_matches_default_session():
    default = _session()
    explicit = _session(plan=PlanConfig(planner="static"))
    assert explicit.data == default.data
    assert explicit.data.to_json() == default.data.to_json()

    report = explicit.plan
    assert report.planner == "static"
    assert report.runs_planned == 3
    assert all(r == REASON_SCHEDULE for r in report.line_reason.values())


# -- adaptive planner: determinism, efficiency, replay -------------------------------


def test_adaptive_planner_is_deterministic():
    first = _session(runs=4, plan=PlanConfig(planner="adaptive", budget=4))
    second = _session(runs=4, plan=PlanConfig(planner="adaptive", budget=4))
    assert first.data == second.data
    assert first.plan.to_dict() == second.plan.to_dict()
    assert first.plan.runs_planned <= 4


def _replicated_se(profile, line):
    # singleton bootstrap SEs understate variance (resampling one value
    # yields ~0), so CI-width comparisons only trust replicated points
    lp = profile.get(line)
    if lp is None:
        return None
    ses = [p.se for p in lp.points if p.speedup_pct > 0 and p.n_experiments >= 2]
    return max(ses) if ses else None


def test_adaptive_converges_cheaper_than_static():
    # the planner's acceptance bar, on the fastest app: an 8-run adaptive
    # session spends no more than 60% of the experiments a static 8-run
    # session does, with replicated CIs on the hottest line no wider
    runs, se_target = 8, 0.04
    spec = registry.build("example")
    cold = ExecutionConfig(jobs=1, checkpoint=False)
    static = run_profile_session(spec, ProfileRequest(runs=runs, execution=cold))
    adaptive = run_profile_session(spec, ProfileRequest(
        runs=runs,
        execution=cold,
        plan=PlanConfig(
            planner="adaptive", budget=runs, se_target=se_target, explore_runs=1,
        ),
    ))
    ratio = len(adaptive.data.experiments) / len(static.data.experiments)
    assert ratio <= 0.6

    # static's sample-hottest line: slope rank #1 flips with noise on an
    # evenly spread static schedule, but the hottest line depends on the
    # app alone, and it is the line an optimizer would chase
    top = max(
        (lp.line for lp in static.profile.lines),
        key=lambda ln: (static.data.total_line_samples(ln), ln),
    )
    static_se = _replicated_se(static.profile, top)
    adaptive_se = _replicated_se(adaptive.profile, top)
    # the convergence target stands in where static never replicated a point
    bound = max(static_se if static_se is not None else se_target, se_target)
    assert adaptive_se is not None and adaptive_se <= bound


def test_adaptive_resume_replays_identically(tmp_path):
    path = str(tmp_path / "adaptive.journal")
    uninterrupted = _session(runs=4, plan=PlanConfig(planner="adaptive", budget=4))

    _session(
        runs=4,
        plan=PlanConfig(planner="adaptive", budget=4),
        resilience=ResilienceConfig(journal=path, stop_after_runs=2),
    )
    resumed = _session(
        runs=4,
        plan=PlanConfig(planner="adaptive", budget=4),
        resilience=ResilienceConfig(resume=path),
    )
    assert resumed.data == uninterrupted.data
    assert resumed.plan.to_dict() == uninterrupted.plan.to_dict()


def test_journal_refuses_planner_mismatch(tmp_path):
    path = str(tmp_path / "static.journal")
    _session(resilience=ResilienceConfig(journal=path))
    with pytest.raises(JournalError):
        _session(
            plan=PlanConfig(planner="adaptive"),
            resilience=ResilienceConfig(resume=path),
        )


# -- report rendering ----------------------------------------------------------------


def test_render_profile_planner_columns():
    out = _session(plan=PlanConfig(planner="static"))
    plain = render_profile(out.profile)
    with_plan = render_profile(out.profile, plan=out.plan)
    assert "spent" not in plain
    assert "spent" in with_plan and "stopped" in with_plan
    assert REASON_SCHEDULE in with_plan

    narration = render_plan(out.plan)
    assert "Planner 'static'" in narration
    assert "static round-robin" in narration


def test_adaptive_plan_decisions_are_pinned():
    """A fixed adaptive session's decisions, recorded before the bootstrap
    moved to index columns: convergence and probe order both read the
    per-point SEs, so any drift in them changes this report."""
    out = _session(
        runs=8, plan=PlanConfig(planner="adaptive", budget=8, se_target=0.05)
    )
    assert out.plan.to_dict() == {
        "planner": "adaptive",
        "budget": 8,
        "rounds": 3,
        "runs_planned": 5,
        "line_spend": {"example.cpp:2": 20, "example.cpp:5": 16},
        "line_reason": {"example.cpp:2": "converged", "example.cpp:5": "converged"},
        "decisions": [
            "round 1: explore 2 free run(s)",
            "round 2: direct knee example.cpp:2; halve example.cpp:5",
            "converged example.cpp:2 (max SE <= 0.05 over 6 speedups)",
            "round 3: direct halve example.cpp:5",
            "converged example.cpp:5 (max SE <= 0.05 over 3 speedups)",
        ],
    }
    ses = {str(lp.line): [p.se for p in lp.points] for lp in out.profile.lines}
    assert ses["example.cpp:5"] == [
        0.026886797645997763, 0.031105461959174737, 0.019329699609268006,
    ]
