"""Chaos matrix: every injected fault class either retries cleanly or
becomes a recorded failure — never a hang, never a silent drop — and a
SIGKILL'd journaled session resumes bit-identically."""

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.apps.example import build_example
from repro.harness import (
    ExecutionConfig,
    ProfileRequest,
    ResilienceConfig,
    run_profile_session,
)
from repro.harness import parallel
from repro.harness.parallel import ParallelExecutionWarning
from repro.sim.faults import FaultPlan


def _spec():
    # long enough (~200 ms virtual) to cover the default fault window
    return build_example(rounds=30)


def _session(plan, runs=3):
    return run_profile_session(
        _spec(), ProfileRequest(runs=runs, resilience=ResilienceConfig(faults=plan))
    )


def _accounted(outcome, runs):
    """No silent drops: every scheduled run is a result or a failure."""
    assert len(outcome.run_results) + len(outcome.data.failures) == runs


# -- deterministic sim faults become recorded failures -------------------------------


def test_thread_crash_degrades_with_recorded_failures():
    runs = 3
    outcome = _session(FaultPlan(seed=1, thread_crash=1.0), runs=runs)
    assert outcome.degraded
    assert {f.error_type for f in outcome.data.failures} == {"ThreadCrashFault"}
    assert all(f.virtual_ns > 0 for f in outcome.data.failures)
    _accounted(outcome, runs)


def test_stuck_lock_degrades_with_recorded_failures():
    runs = 2
    outcome = _session(FaultPlan(seed=1, stuck_lock=1.0), runs=runs)
    assert outcome.degraded
    assert {f.error_type for f in outcome.data.failures} == {"StuckLockError"}
    _accounted(outcome, runs)


def test_failures_reproduce_on_reexecution():
    first = _session(FaultPlan(seed=1, thread_crash=1.0), runs=2)
    again = _session(FaultPlan(seed=1, thread_crash=1.0), runs=2)
    assert [f.to_dict() for f in first.data.failures] == [
        f.to_dict() for f in again.data.failures
    ]


# -- non-fatal faults never lose runs ------------------------------------------------


def test_nonfatal_faults_complete_undegraded():
    runs = 2
    plan = FaultPlan(seed=1, sample_loss=0.5, sample_dup=0.5, jitter_spike=0.5)
    outcome = _session(plan, runs=runs)
    assert not outcome.degraded
    assert len(outcome.run_results) == runs
    _accounted(outcome, runs)


# -- parallel chaos equals serial chaos ----------------------------------------------


def test_chaos_parallel_matches_serial():
    # the registry-backed app: picklable tasks, so jobs=2 really forks
    spec = registry.build("example")
    plan = replace(
        FaultPlan.chaos(seed=3, intensity=0.5), worker_kill=0.0, worker_hang=0.0
    )
    resilience = ResilienceConfig(faults=plan)
    serial = run_profile_session(spec, ProfileRequest(
        runs=6, execution=ExecutionConfig(jobs=1), resilience=resilience))
    parallel = run_profile_session(spec, ProfileRequest(
        runs=6, execution=ExecutionConfig(jobs=2), resilience=resilience))
    assert parallel.data == serial.data
    assert parallel.data.to_json() == serial.data.to_json()
    _accounted(parallel, 6)


# -- worker-level faults retry cleanly -----------------------------------------------


def test_worker_kill_is_retried_to_a_clean_session():
    spec = registry.build("example")
    clean = run_profile_session(
        spec, ProfileRequest(runs=2, execution=ExecutionConfig(jobs=1))
    )
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent|worker"):
        chaotic = run_profile_session(
            spec,
            ProfileRequest(
                runs=2,
                execution=ExecutionConfig(jobs=2),
                resilience=ResilienceConfig(faults=FaultPlan(seed=1, worker_kill=1.0)),
            ),
        )
    assert not chaotic.degraded
    assert chaotic.data == clean.data
    _accounted(chaotic, 2)


def test_worker_hang_recovers_within_deadline(monkeypatch):
    spec = registry.build("example")
    clean = run_profile_session(
        spec, ProfileRequest(runs=2, execution=ExecutionConfig(jobs=1))
    )
    plan = FaultPlan(seed=1, worker_hang=1.0, worker_hang_s=30.0)
    monkeypatch.setattr(parallel, "WATCHDOG_MAX_DEADLINE_S", 1.0)
    start = time.monotonic()
    with pytest.warns(ParallelExecutionWarning):
        chaotic = run_profile_session(
            spec,
            ProfileRequest(
                runs=2,
                execution=ExecutionConfig(jobs=2),
                resilience=ResilienceConfig(faults=plan),
            ),
        )
    elapsed = time.monotonic() - start
    assert elapsed < 20.0  # bounded by the deadline, not the 30 s hang
    assert not chaotic.degraded
    assert chaotic.data == clean.data
    _accounted(chaotic, 2)


# -- SIGKILL-and-resume bit-identity -------------------------------------------------

_CHILD = """
import sys
from repro.apps import registry
from repro.harness import ProfileRequest, ResilienceConfig, run_profile_session

run_profile_session(
    registry.build("example"),
    ProfileRequest(
        runs=int(sys.argv[2]), resilience=ResilienceConfig(journal=sys.argv[1])
    ),
)
"""


def test_sigkilled_session_resumes_bit_identically(tmp_path):
    runs = 8
    path = str(tmp_path / "session.jsonl")
    spec = registry.build("example")
    uninterrupted = run_profile_session(spec, ProfileRequest(runs=runs))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, path, str(runs)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    try:
        # wait for at least one durable run record, then SIGKILL mid-session
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if os.path.exists(path):
                with open(path) as fh:
                    if sum(1 for _ in fh) >= 2:  # header + >=1 run
                        break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    with open(path) as fh:
        journaled = sum(1 for line in fh if '"kind":"run"' in line)
    assert journaled >= 1

    with warnings.catch_warnings():
        # a torn final record is expected after a SIGKILL mid-append
        warnings.simplefilter("ignore", UserWarning)
        resumed = run_profile_session(
            spec, ProfileRequest(runs=runs, resilience=ResilienceConfig(resume=path))
        )

    assert resumed.data == uninterrupted.data
    assert resumed.data.to_json() == uninterrupted.data.to_json()
    # resuming replayed the journaled runs instead of re-running everything
    assert json.loads(open(path).readline())["kind"] == "header"
