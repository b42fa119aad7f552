"""Invariant audit for the delay-accounting algebra.

Coz's correctness rests on delay bookkeeping: effective duration is
"runtime minus the total inserted delay" (§2) and the phase correction
(eq. 8) divides by whole-run effective time, so any drift between *delays
actually inserted* and *delays accounted* silently skews every reported
speedup.  This module is an always-available checker that rides alongside
:class:`~repro.core.profiler.CausalProfiler` /
:class:`~repro.core.speedup.DelayEngine` and verifies the algebra
end-to-end:

* **local-count-identity** — the §3.4.3 invariant: for every thread,
  ``local count == inherited + samples-in-line + pauses`` (paid or
  credited), checked at every experiment end;
* **run-delay-reconciliation** — :class:`RunInfo.total_delay_ns` equals the
  audit's independent replay of every ``DelayEngine.end()`` (completed and
  partial experiments alike) plus the critical-path share of uncompensated
  nanosleep excess;
* **excess-algebra** — ``total_inserted_ns == total_required_ns +
  outstanding excess`` across all threads;
* **engine-delay-consistency** — pauses the delay engine decided equal
  pauses the simulator actually applied (modulo still-pending pauses);
* **effective-nonnegative** — ``effective_ns >= 0`` for every run and every
  experiment;
* **wire-roundtrip** — ``ProfileData.from_json(to_json(d)) == d``;
* **parallel-serial-identity** — a sampled subset of worker-process runs is
  re-executed in the parent and compared bit-for-bit (the full-session
  variant is checked by :func:`run_doctor`).

The auditor is strictly observational (no RNG, no cost, no scheduling
effect), so attaching it never changes a profiling result — parallel and
serial sessions stay bit-identical under audit.  Results travel as
:class:`AuditReport`, which has its own JSON wire format so parallel
workers ship audit results home alongside their profiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.profile_data import ProfileData
from repro.sim.hooks import AuditHook


@dataclass
class InvariantCheck:
    """Outcome of one invariant over some number of checked instances."""

    name: str
    passed: bool
    checked: int = 0
    failures: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": self.failures,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "InvariantCheck":
        return cls(
            name=d["name"],
            passed=d["passed"],
            checked=d.get("checked", 0),
            failures=d.get("failures", 0),
            detail=d.get("detail", ""),
        )


def _check(name: str, ok: bool, checked: int = 1, detail: str = "") -> InvariantCheck:
    return InvariantCheck(
        name=name,
        passed=ok,
        checked=checked,
        failures=0 if ok else 1,
        detail="" if ok else detail,
    )


@dataclass
class AuditReport:
    """Merged invariant results, one row per invariant name."""

    checks: List[InvariantCheck] = field(default_factory=list)

    WIRE_VERSION = 1

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[InvariantCheck]:
        return [c for c in self.checks if not c.passed]

    def get(self, name: str) -> Optional[InvariantCheck]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def add(self, check: InvariantCheck) -> "AuditReport":
        """Add a check, folding into an existing row of the same name."""
        mine = self.get(check.name)
        if mine is None:
            self.checks.append(check)
            return self
        mine.passed = mine.passed and check.passed
        mine.checked += check.checked
        mine.failures += check.failures
        if not mine.detail and check.detail:
            mine.detail = check.detail
        return self

    def merge(self, other: "AuditReport") -> "AuditReport":
        """Fold another report's rows into this one (by invariant name)."""
        for c in other.checks:
            self.add(InvariantCheck.from_dict(c.to_dict()))
        return self

    # -- wire format (cross-process result transfer) -------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to the wire format (a JSON document)."""
        return json.dumps(
            {
                "version": self.WIRE_VERSION,
                "checks": [c.to_dict() for c in self.checks],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        """Rebuild from :meth:`to_json` output."""
        doc = json.loads(text)
        version = doc.get("version")
        if version != cls.WIRE_VERSION:
            raise ValueError(f"unsupported AuditReport wire version: {version!r}")
        report = cls()
        for cd in doc["checks"]:
            report.add(InvariantCheck.from_dict(cd))
        return report


class DelayAuditor(AuditHook):
    """Per-run delay-accounting auditor.

    Rebuilds the §3.4 counter algebra from the :class:`AuditHook` event
    stream alone, then compares against what the profiler booked.  One
    auditor audits one run (like one profiler profiles one run).
    """

    def __init__(self) -> None:
        self._delays = None
        #: per-thread counters for the current experiment
        self._threads: Dict[Any, Dict[str, int]] = {}
        self._local_checked = 0
        self._local_failures = 0
        self._local_detail = ""
        #: every DelayEngine.end(): (final global count, delay_ns)
        self._end_log: List = []
        self._run_checks: List[InvariantCheck] = []

    # -- event stream ----------------------------------------------------------

    def _entry(self, thread) -> Dict[str, int]:
        return self._threads.setdefault(
            thread, {"inherited": 0, "hits": 0, "paid": 0, "credited": 0}
        )

    def on_delay_begin(self, delays, delay_ns: int, threads) -> None:
        self._delays = delays
        self._threads = {}
        for t in threads:
            self._entry(t)

    def on_delay_hits(self, thread, hits: int) -> None:
        self._entry(thread)["hits"] += hits

    def on_delay_pause(self, thread, count_delta, required_ns, inserted_ns) -> None:
        self._entry(thread)["paid"] += count_delta

    def on_delay_credit(self, thread, count_delta: int) -> None:
        self._entry(thread)["credited"] += count_delta

    def on_delay_inherit(self, thread, local_count: int) -> None:
        self._entry(thread)["inherited"] = local_count

    def on_delay_end(self, count: int, delay_ns: int) -> None:
        self._end_log.append((count, delay_ns))
        for thread, c in self._threads.items():
            expected = c["inherited"] + c["hits"] + c["paid"] + c["credited"]
            actual = self._delays.local_count(thread)
            self._local_checked += 1
            if actual != expected:
                self._local_failures += 1
                if not self._local_detail:
                    self._local_detail = (
                        f"thread {thread.name!r}: local={actual} != "
                        f"inherited {c['inherited']} + hits {c['hits']} + "
                        f"pauses {c['paid'] + c['credited']}"
                    )

    def on_profiler_run_end(self, profiler, engine) -> None:
        delays = profiler.delays
        threads = engine.threads
        info = profiler.data.runs[-1]

        expected_delay = sum(count * d for count, d in self._end_log)
        expected_delay += delays.max_outstanding_excess_ns(threads)
        self._run_checks.append(_check(
            "run-delay-reconciliation",
            info.total_delay_ns == expected_delay,
            detail=(
                f"RunInfo booked {info.total_delay_ns} ns but the audited "
                f"replay of {len(self._end_log)} experiment(s) says "
                f"{expected_delay} ns"
            ),
        ))

        outstanding = delays.outstanding_excess_ns(threads)
        self._run_checks.append(_check(
            "excess-algebra",
            delays.total_inserted_ns == delays.total_required_ns + outstanding,
            detail=(
                f"inserted {delays.total_inserted_ns} != required "
                f"{delays.total_required_ns} + outstanding excess {outstanding}"
            ),
        ))

        pending = sum(t.pending_pause_ns for t in threads)
        self._run_checks.append(_check(
            "engine-delay-consistency",
            delays.total_inserted_ns == engine.total_delay_ns + pending,
            detail=(
                f"delay engine decided {delays.total_inserted_ns} ns of "
                f"pauses but the simulator applied {engine.total_delay_ns} ns "
                f"(+{pending} ns still pending)"
            ),
        ))

        self._run_checks.append(_check(
            "effective-nonnegative",
            info.effective_ns >= 0,
            detail=(
                f"run effective_ns = {info.runtime_ns} - "
                f"{info.total_delay_ns} < 0"
            ),
        ))

    # -- results ---------------------------------------------------------------

    def report(self) -> AuditReport:
        """The run's audit results as a shippable report."""
        rep = AuditReport()
        rep.add(InvariantCheck(
            name="local-count-identity",
            passed=self._local_failures == 0,
            checked=self._local_checked,
            failures=self._local_failures,
            detail=self._local_detail,
        ))
        for c in self._run_checks:
            rep.add(c)
        return rep


def audit_profile_data(data: ProfileData) -> AuditReport:
    """Data-level invariants: nonnegative effective times, lossless wire."""
    rep = AuditReport()

    bad_runs = sum(1 for r in data.runs if r.effective_ns < 0)
    bad_exps = sum(1 for e in data.experiments if e.effective_ns < 0)
    rep.add(_check(
        "effective-nonnegative",
        bad_runs + bad_exps == 0,
        checked=len(data.runs) + len(data.experiments),
        detail=(
            f"{bad_runs} run(s) and {bad_exps} experiment(s) have "
            f"negative effective duration"
        ),
    ))
    # _check collapses failures to 1; record the real count
    if bad_runs + bad_exps > 0:
        rep.get("effective-nonnegative").failures = bad_runs + bad_exps

    try:
        ok = ProfileData.from_json(data.to_json()) == data
        detail = "decoded document differs from the original"
    except Exception as exc:
        ok, detail = False, f"round trip raised {type(exc).__name__}: {exc}"
    rep.add(_check("wire-roundtrip", ok, detail=detail))
    return rep


def run_accounting_check(attempted: int, data: ProfileData) -> InvariantCheck:
    """Every attempted run is accounted for: a RunInfo or a RunFailure.

    This is the no-silent-drop invariant of the resilience layer — a run
    may succeed or be recorded as failed, but it may never vanish.
    """
    accounted = len(data.runs) + len(data.failures)
    return _check(
        "run-accounting",
        accounted == attempted,
        checked=attempted,
        detail=(
            f"{attempted} run(s) attempted but only {len(data.runs)} "
            f"succeeded + {len(data.failures)} recorded as failed"
        ),
    )


def run_doctor(
    app_name: str,
    runs: int = 3,
    jobs: int = 2,
    base_seed: int = 0,
    experiment_ms: float = 40.0,
    jitter_ns: int = 2000,
    **build_kwargs: Any,
) -> AuditReport:
    """Run the full invariant suite against a registered app.

    Three audited profiling sessions: a serial one (delay accounting + data
    invariants), a jitter-enabled one (exercises the nanosleep-excess
    reconciliation), and a parallel one (worker-shipped audits, a sampled
    in-parent re-execution, and full-session bit-identity against the
    serial run).  On top of those it checks journal resume, planner
    identity/replay (an explicit StaticPlanner session must be bit-identical
    to the default session; an adaptive session must replay identically
    through a journal interruption), and checkpoint fast-forward identity.
    Returns the merged report; ``repro doctor`` renders it.

    ``jobs`` counts worker processes for the parallel session; 0 (the
    CLI's auto value) forces two workers so the cross-process path is
    exercised even on a single-CPU machine.
    """
    from dataclasses import replace

    from repro.apps import registry
    from repro.core.config import CozConfig
    from repro.harness.request import ExecutionConfig, ResilienceConfig
    from repro.harness.runner import ProfileRequest, run_profile_session
    from repro.sim.clock import MS

    if jobs == 0:
        jobs = 2
    spec = registry.build(app_name, **build_kwargs)
    cfg = CozConfig(scope=spec.scope, experiment_duration_ns=MS(experiment_ms))
    serial_exec = ExecutionConfig(jobs=1)
    report = AuditReport()

    audited = replace(cfg, audit=True)
    serial = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=audited,
        execution=serial_exec,
    ))
    report.merge(serial.audit)

    jittered = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed,
        coz_config=replace(audited, nanosleep_jitter_ns=jitter_ns),
        execution=serial_exec,
    ))
    report.merge(jittered.audit)

    parallel = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=audited,
        execution=ExecutionConfig(jobs=jobs),
    ))
    report.merge(parallel.audit)
    report.add(_check(
        "parallel-serial-full-identity",
        parallel.data == serial.data,
        detail=(
            f"parallel session ({len(parallel.data.runs)} runs) is not "
            f"bit-identical to the serial session"
        ),
    ))

    # batched dispatch (repro.harness.parallel.RunBatch): shipping several
    # runs per worker round trip is execution-only, so a session forced to
    # multi-run batches must be bit-identical to the serial one
    batched = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=audited,
        execution=ExecutionConfig(jobs=jobs, batch_runs=max(2, runs // jobs)),
    ))
    report.merge(batched.audit)
    report.add(_check(
        "batched-dispatch-identity",
        batched.data == serial.data,
        detail=(
            f"batched parallel session ({len(batched.data.runs)} runs, "
            f"batch size {max(2, runs // jobs)}) is not bit-identical to "
            f"the serial session"
        ),
    ))

    # checkpoint/resume: journal a session, stop it midway, resume it, and
    # demand bit-identity with the uninterrupted serial session
    import os
    import tempfile

    half = max(1, runs // 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "session.journal")
        run_profile_session(spec, ProfileRequest(
            runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
            resilience=ResilienceConfig(journal=path, stop_after_runs=half),
        ))
        resumed = run_profile_session(spec, ProfileRequest(
            runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
            resilience=ResilienceConfig(resume=path),
        ))
    report.add(_check(
        "journal-resume-identity",
        resumed.data == serial.data,
        detail=(
            f"session resumed after {half} of {runs} journaled runs is not "
            f"bit-identical to an uninterrupted session"
        ),
    ))

    # planner API (repro.plan): an explicit static planner must be a no-op
    # relative to the default session, and the adaptive planner — whose
    # schedule is derived from observed data — must replay deterministically
    # through a journal interruption
    from repro.plan import PlanConfig

    static_plan = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
        plan=PlanConfig(planner="static"),
    ))
    report.add(_check(
        "planner-static-identity",
        static_plan.data == serial.data,
        detail="explicit StaticPlanner session is not bit-identical to the "
               "default (plan-less) session",
    ))

    adaptive_req = dict(
        runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
        plan=PlanConfig(planner="adaptive", budget=runs),
    )
    adaptive = run_profile_session(spec, ProfileRequest(**adaptive_req))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "adaptive.journal")
        run_profile_session(spec, ProfileRequest(
            **adaptive_req,
            resilience=ResilienceConfig(journal=path, stop_after_runs=half),
        ))
        adaptive_resumed = run_profile_session(spec, ProfileRequest(
            **adaptive_req,
            resilience=ResilienceConfig(resume=path),
        ))
    same_data = adaptive_resumed.data == adaptive.data
    same_plan = (
        adaptive_resumed.plan is not None and adaptive.plan is not None
        and adaptive_resumed.plan.to_dict() == adaptive.plan.to_dict()
    )
    report.add(_check(
        "planner-resume-identity",
        same_data and same_plan,
        detail=(
            f"adaptive session resumed after {half} of {runs} journaled runs "
            f"diverged from an uninterrupted one "
            f"(data identical: {same_data}, plan identical: {same_plan}) — "
            f"the planner's decisions are not a pure function of observed data"
        ),
    ))

    # checkpoint fast-forward (repro.harness.checkpoint): populate a
    # snapshot store, then demand that warm-resumed sessions — serial from
    # memory, parallel from a shared disk cache, and under chaos faults —
    # are bit-identical to cold runs
    from repro.harness.checkpoint import clear_memory_cache
    from repro.sim.faults import FaultPlan

    cold = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=cfg,
        execution=ExecutionConfig(jobs=1, checkpoint=False),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        clear_memory_cache()
        run_profile_session(spec, ProfileRequest(   # cold populate pass
            runs=runs, base_seed=base_seed, coz_config=cfg,
            execution=ExecutionConfig(jobs=1, checkpoint_dir=tmp),
        ))
        warm = run_profile_session(spec, ProfileRequest(
            runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
        ))
        report.add(_check(
            "checkpoint-cold-identity",
            warm.data == cold.data,
            detail="snapshot-resumed serial session is not bit-identical "
                   "to a cold session",
        ))
        clear_memory_cache()  # force the workers/parent onto the disk cache
        warm_parallel = run_profile_session(spec, ProfileRequest(
            runs=runs, base_seed=base_seed, coz_config=cfg,
            execution=ExecutionConfig(jobs=jobs, checkpoint_dir=tmp),
        ))
        report.add(_check(
            "checkpoint-parallel-identity",
            warm_parallel.data == cold.data,
            detail="snapshot-resumed parallel session is not bit-identical "
                   "to a cold serial session",
        ))

    plan = FaultPlan.chaos(seed=base_seed, intensity=0.5)
    clear_memory_cache()
    chaos_cold = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=cfg,
        execution=ExecutionConfig(jobs=1, checkpoint=False),
        resilience=ResilienceConfig(faults=plan),
    ))
    run_profile_session(spec, ProfileRequest(       # chaos populate pass
        runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
        resilience=ResilienceConfig(faults=plan),
    ))
    chaos_warm = run_profile_session(spec, ProfileRequest(
        runs=runs, base_seed=base_seed, coz_config=cfg, execution=serial_exec,
        resilience=ResilienceConfig(faults=plan),
    ))
    report.add(_check(
        "checkpoint-chaos-identity",
        chaos_warm.data == chaos_cold.data,
        detail="snapshot-resumed chaos session (injected faults) is not "
               "bit-identical to a cold chaos session",
    ))

    return report
