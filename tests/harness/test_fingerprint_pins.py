"""Pinned fingerprint values.

Checkpoint files, journal headers and the service's result store are
keyed by these fingerprints, so a change to how any of them names a
program, a config or a fault plan would orphan every cached checkpoint and
stored result.  The relative properties (what a fingerprint ignores, what
it follows) are tested beside each fingerprint; this file pins the
absolute values.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.harness.checkpoint import checkpoint_fingerprint
from repro.harness.comparison import compare_builds
from repro.harness.request import ProfileRequest, ResilienceConfig
from repro.harness.runner import session_fingerprint
from repro.harness.service.wire import JobSpec, job_fingerprint
from repro.plan import PlanConfig
from repro.sim.faults import FaultPlan


def _sha256(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _example():
    spec = registry.build("example")
    return spec, CozConfig(scope=spec.scope), ProfileRequest()


def _sqlite_chaos_adaptive():
    # seed and audit are normalized out of every fingerprint, so setting
    # them here pins that too
    spec = registry.build("sqlite")
    cfg = replace(CozConfig(scope=spec.scope), seed=7, audit=True)
    request = ProfileRequest(
        runs=4,
        resilience=ResilienceConfig(faults=FaultPlan.chaos(seed=3, intensity=0.5)),
        plan=PlanConfig(planner="adaptive"),
    )
    return spec, cfg, request


SESSIONS = {
    "example": (
        _example,
        "da3a1e454c1855df2aa9b560b14ea34ed9c111ebbc29b879236aea5a047769cf",
        "065ce364fac2752021516b9a1415fbe5caed870f73b0f3849517a51b0f8efabc",
    ),
    "sqlite-chaos-adaptive": (
        _sqlite_chaos_adaptive,
        "4438ffd3002eb3e3db4d9758bea6df9410366ce55e0cd8f6cd773306b8f54452",
        "8479df11c5f654abfcd3bcef9e36cf46645e2e36bb97cc3cbabc2349a68bb8bb",
    ),
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_checkpoint_fingerprint_pinned(name):
    make, want, _ = SESSIONS[name]
    spec, cfg, request = make()
    assert checkpoint_fingerprint(spec, cfg, request.resilience.faults) == want


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_fingerprint_pinned(name):
    make, _, want = SESSIONS[name]
    spec, cfg, request = make()
    assert _sha256(session_fingerprint(spec, request, cfg)) == want


@pytest.mark.parametrize("jobspec, want", [
    (
        JobSpec(tenant="t", app="example"),
        "900165a2f5a10428486acb7268c51cdb79a8c72431c5cbc284601c55fbda3a0d",
    ),
    (
        JobSpec(tenant="t", app="sqlite", chaos=0.5, chaos_seed=3, planner="adaptive"),
        "6fbc0325f3350aed4f49e40f70c1d4aa84cd21d83313cceca59c9b5f60e40834",
    ),
])
def test_job_fingerprint_pinned(jobspec, want):
    assert job_fingerprint(jobspec) == want


def test_compare_journal_header_pinned(tmp_path):
    path = tmp_path / "compare.jsonl"
    compare_builds(
        "swaptions",
        registry.build("swaptions", n_iters=40),
        registry.build("swaptions", optimized=True, n_iters=40),
        runs=2,
        journal=str(path),
    )
    header = path.read_bytes().splitlines(keepends=True)[0]
    assert hashlib.sha256(header).hexdigest() == (
        "379f89c0783288a5ff641a218d5485b6bcc765df56d9554da8be417bceeea0a7"
    )
