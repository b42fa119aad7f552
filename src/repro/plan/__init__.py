"""Pluggable experiment planning for profiling sessions.

See :mod:`repro.plan.base` for the protocol.  The session runner
(:func:`repro.harness.runner.run_profile_session`) resolves a
:class:`PlanConfig` into a concrete planner via :func:`make_planner`;
the CLI exposes the same choice as ``--planner static|adaptive`` and
``--budget N``.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.plan.adaptive": ("AdaptivePlanner",),
    "repro.plan.base": ("ExperimentPlan", "PlanConfig", "Planner", "PlannerState", "PlanReport"),
    "repro.plan.schedule": ("RunScheduler",),
    "repro.plan.static": ("StaticPlanner",),
})

#: the planner names PlanConfig accepts
PLANNERS = ("static", "adaptive")

__all__ = [
    "PLANNERS",
    "AdaptivePlanner",
    "ExperimentPlan",
    "PlanConfig",
    "Planner",
    "PlannerState",
    "PlanReport",
    "RunScheduler",
    "StaticPlanner",
    "make_planner",
]


def make_planner(plan: "PlanConfig", default_runs: int) -> "Planner":
    """Resolve a :class:`PlanConfig` into a concrete planner.

    ``plan.budget`` of ``None`` means "the request's ``runs``" — so the
    default static session schedules exactly the historical run count.
    """
    from repro.plan.base import PlanConfig

    plan = plan or PlanConfig()
    plan.validate()
    budget = plan.budget if plan.budget is not None else default_runs
    if plan.planner == "static":
        from repro.plan.static import StaticPlanner

        return StaticPlanner(runs=budget)
    if plan.planner == "adaptive":
        from repro.plan.adaptive import AdaptivePlanner

        return AdaptivePlanner(
            budget=budget,
            explore_runs=plan.explore_runs,
            se_target=plan.se_target,
        )
    raise ValueError(f"unknown planner {plan.planner!r} (choose from {PLANNERS})")
