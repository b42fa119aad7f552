"""Invariant-audit layer (:mod:`repro.core.audit`).

The regression tests here subclass :class:`CausalProfiler` to replicate two
historical accounting bugs — dropping a partial experiment's delays, and
never booking outstanding nanosleep excess — and assert the audit *fails*
on them while passing on the fixed profiler.  That is the audit layer's
contract: a reintroduced leak must show up as a red invariant, not as a
silently skewed profile.
"""

from dataclasses import replace

import pytest

from repro.apps import registry
from repro.core.audit import (
    AuditReport,
    InvariantCheck,
    audit_profile_data,
    run_doctor,
)
from repro.core.config import CozConfig
from repro.core.profile_data import ProfileData, RunInfo
from repro.core.profiler import CausalProfiler
from repro.harness.runner import profile_app
from repro.sim.clock import MS


def _example_spec(rounds=30):
    return registry.build("example", rounds=rounds)


def _cfg(scope, **kw):
    return CozConfig(scope=scope, experiment_duration_ns=MS(40), **kw)


# -- report plumbing ---------------------------------------------------------------

def test_report_wire_roundtrip():
    rep = AuditReport()
    rep.add(InvariantCheck("a", True, checked=3))
    rep.add(InvariantCheck("b", False, checked=2, failures=1, detail="boom"))
    again = AuditReport.from_json(rep.to_json())
    assert [c.to_dict() for c in again.checks] == [c.to_dict() for c in rep.checks]
    assert not again.passed


def test_report_wire_version_guard():
    with pytest.raises(ValueError, match="wire version"):
        AuditReport.from_json('{"version": 99, "checks": []}')


def test_report_merge_folds_by_name():
    a = AuditReport([InvariantCheck("x", True, checked=2)])
    b = AuditReport([
        InvariantCheck("x", False, checked=1, failures=1, detail="d"),
        InvariantCheck("y", True, checked=5),
    ])
    a.merge(b)
    x = a.get("x")
    assert (x.checked, x.failures, x.passed, x.detail) == (3, 1, False, "d")
    assert a.get("y").checked == 5
    assert not a.passed
    assert [c.name for c in a.failures()] == ["x"]


# -- clean runs pass ---------------------------------------------------------------

def test_clean_profiled_run_passes_audit():
    spec = _example_spec()
    out = profile_app(spec, runs=2, coz_config=_cfg(spec.scope, audit=True))
    assert out.audit is not None
    assert out.audit.passed
    names = {c.name for c in out.audit.checks}
    assert {
        "local-count-identity",
        "run-delay-reconciliation",
        "excess-algebra",
        "engine-delay-consistency",
        "effective-nonnegative",
        "wire-roundtrip",
    } <= names
    assert out.audit.get("local-count-identity").checked > 0


def test_audit_does_not_perturb_results():
    """The auditor is observational: profiles are bit-identical with it on."""
    spec = _example_spec()
    plain = profile_app(spec, runs=2, coz_config=_cfg(spec.scope))
    audited = profile_app(spec, runs=2, coz_config=_cfg(spec.scope, audit=True))
    assert plain.data == audited.data


def test_jittered_run_passes_audit():
    spec = _example_spec()
    cfg = _cfg(spec.scope, nanosleep_jitter_ns=5000, audit=True)
    out = profile_app(spec, runs=2, coz_config=cfg)
    assert out.audit.passed


# -- regression detection ----------------------------------------------------------

def _run_audited(profiler_cls, spec, cfg, seed=0):
    prof = profiler_cls(
        replace(cfg, seed=seed, audit=True),
        spec.progress_points,
        spec.latency_specs,
    )
    spec.build(seed).run(hook=prof)
    return prof


class _LeakyProfiler(CausalProfiler):
    """Replicates the old ``on_run_end``: a partial experiment's delays are
    discarded from the run total even though they are in the timeline."""

    def on_run_end(self, engine):
        if self.state == "running":
            self.delays.end()  # the bug: count never reaches _run_delay_ns
        self._run_delay_ns += self.delays.max_outstanding_excess_ns(engine.threads)
        self.data.add_run(RunInfo(
            runtime_ns=engine.now,
            total_delay_ns=self._run_delay_ns,
            line_samples=self.line_samples,
        ))
        if self.auditor is not None:
            self.auditor.on_profiler_run_end(self, engine)


class _RequiredOnlyProfiler(CausalProfiler):
    """Replicates the old jitter leak: nanosleep overshoot is inserted into
    the timeline but the run total only ever books count x delay."""

    def on_run_end(self, engine):
        if self.state == "running":
            count = self.delays.end()
            self._run_delay_ns += count * self._delay_ns
        # the bug: no max_outstanding_excess_ns term
        self.data.add_run(RunInfo(
            runtime_ns=engine.now,
            total_delay_ns=self._run_delay_ns,
            line_samples=self.line_samples,
        ))
        if self.auditor is not None:
            self.auditor.on_profiler_run_end(self, engine)


def test_audit_catches_dropped_partial_experiment_delays():
    spec = _example_spec()
    cfg = _cfg(spec.scope)
    leaky = _run_audited(_LeakyProfiler, spec, cfg)
    # the scenario is live: this run really does end mid-experiment
    assert leaky.state == "running"
    assert leaky.delays.global_count > 0
    rep = leaky.auditor.report()
    assert not rep.get("run-delay-reconciliation").passed
    # the shipped profiler passes on the identical scenario
    fixed = _run_audited(CausalProfiler, spec, cfg)
    assert fixed.state == "running"
    assert fixed.auditor.report().passed


def test_audit_catches_unbooked_nanosleep_excess():
    spec = _example_spec()
    cfg = _cfg(spec.scope, nanosleep_jitter_ns=5000)
    broken = _run_audited(_RequiredOnlyProfiler, spec, cfg)
    # the scenario is live: overshoot really is outstanding at run end
    assert broken.delays.max_outstanding_excess_ns(broken.engine.threads) > 0
    rep = broken.auditor.report()
    assert not rep.get("run-delay-reconciliation").passed
    fixed = _run_audited(CausalProfiler, spec, cfg)
    assert fixed.auditor.report().passed


def test_negative_effective_detected():
    data = ProfileData()
    data.add_run(RunInfo(runtime_ns=100, total_delay_ns=250))
    rep = audit_profile_data(data)
    assert not rep.passed
    assert not rep.get("effective-nonnegative").passed
    assert rep.get("wire-roundtrip").passed


# -- doctor & parallel -------------------------------------------------------------

def test_run_doctor_example_passes():
    rep = run_doctor("example", runs=2, jobs=2, experiment_ms=40.0)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {
        "local-count-identity",
        "run-delay-reconciliation",
        "excess-algebra",
        "engine-delay-consistency",
        "effective-nonnegative",
        "wire-roundtrip",
        "parallel-serial-identity",
        "parallel-serial-full-identity",
    } <= names


def test_parallel_audit_matches_serial():
    """Bit-identity holds under --audit, and workers ship their reports."""
    spec = _example_spec()
    cfg = _cfg(spec.scope, audit=True)
    serial = profile_app(spec, runs=3, coz_config=cfg, jobs=1)
    fanned = profile_app(spec, runs=3, coz_config=cfg, jobs=3)
    assert serial.data == fanned.data
    assert serial.audit.passed
    assert fanned.audit.passed
    identity = fanned.audit.get("parallel-serial-identity")
    assert identity is not None
    assert identity.checked > 0 and identity.failures == 0
    # worker-side audits crossed the process boundary (not just the spot check)
    assert fanned.audit.get("local-count-identity").checked == \
        serial.audit.get("local-count-identity").checked


# -- CLI ---------------------------------------------------------------------------

def test_cli_doctor_passes(capsys):
    from repro.cli import main

    assert main(["doctor", "example", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Invariant audit: PASS" in out
    assert "parallel-serial-full-identity" in out


def test_cli_profile_audit_flag(capsys):
    from repro.cli import main

    assert main([
        "profile", "example", "--runs", "2", "--jobs", "1",
        "--experiment-ms", "40", "--speedup-step", "50", "--audit",
    ]) == 0
    out = capsys.readouterr().out
    assert "audit: PASS" in out
