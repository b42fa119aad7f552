"""Service wire protocol: job specs, fingerprints, and socket framing.

The daemon speaks newline-delimited JSON over a Unix domain socket: a
client connects, writes one request object on one line, and reads one
response object on one line.  Requests carry an ``op`` (``ping``,
``submit``, ``status``, ``wait``, ``result``, ``shutdown``) and a
``wire`` version; mismatched versions are refused, not guessed at.

:class:`JobSpec` is the profiling request a tenant submits — the subset of
:class:`~repro.harness.request.ProfileRequest` that shapes *results* plus
the service-level knobs (tenant id, deadline).  Two specs that canonicalize
to the same session fingerprint are the same work: in-flight submissions
coalesce onto one execution and completed ones are served from the
content-addressed result store.  The fingerprint is derived with the exact
:func:`~repro.harness.runner.session_fingerprint` machinery the journal
uses, so "same job" here means "bit-identical session" there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

WIRE_VERSION = 1

#: admission-control knobs that never affect results (excluded from the
#: job fingerprint: a resubmit with a different deadline is the same work)
_EXECUTION_ONLY = ("tenant", "deadline_s")


class WireError(ValueError):
    """A malformed or incompatible wire message."""


@dataclass(frozen=True)
class JobSpec:
    """One tenant's profiling request, as it crosses the wire.

    Everything except ``tenant`` and ``deadline_s`` determines the
    session's results and therefore its fingerprint; those two are
    admission-control inputs only.
    """

    #: tenant id the request is accounted (and shed) under
    tenant: str
    #: registered application name (:mod:`repro.apps.registry`)
    app: str
    runs: int = 5
    base_seed: int = 0
    experiment_ms: float = 50.0
    speedup_step: int = 20
    #: chaos intensity (:meth:`~repro.sim.faults.FaultPlan.chaos`); ``None``
    #: = no fault injection
    chaos: Optional[float] = None
    chaos_seed: int = 0
    planner: str = "static"
    budget: Optional[int] = None
    #: wall-clock budget in seconds: queued past this = shed, running past
    #: this = stopped at the completed prefix (resumable by resubmitting)
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise WireError("JobSpec.tenant must be non-empty")
        if not self.app:
            raise WireError("JobSpec.app must be non-empty")
        if self.runs < 1:
            raise WireError(f"JobSpec.runs must be >= 1, got {self.runs}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise WireError("JobSpec.deadline_s must be positive")

    def to_wire(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "JobSpec":
        if not isinstance(doc, dict):
            raise WireError(f"job spec must be an object, got {type(doc).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise WireError(f"unknown job spec field(s): {', '.join(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise WireError(f"invalid job spec: {exc}") from None

    # -- session materialization ------------------------------------------------

    def build_session(self) -> Tuple[Any, Any, Any]:
        """(AppSpec, CozConfig, ProfileRequest-parts) this spec describes.

        Builds exactly what ``repro profile`` would: the registered app,
        its scoped profiler configuration, the fault plan, and the plan
        config.  The daemon adds execution-only knobs (journal paths,
        checkpoint dir, worker count, deadline) on top.
        """
        from repro.apps import registry
        from repro.core.config import CozConfig
        from repro.plan import PlanConfig
        from repro.sim.clock import MS

        spec = registry.build(self.app)
        cfg = CozConfig(
            scope=spec.scope,
            experiment_duration_ns=MS(self.experiment_ms),
            speedup_values=tuple(range(0, 101, self.speedup_step)),
        )
        faults = None
        if self.chaos is not None:
            from repro.sim.faults import FaultPlan

            faults = FaultPlan.chaos(seed=self.chaos_seed, intensity=self.chaos)
        plan = PlanConfig(planner=self.planner, budget=self.budget)
        return spec, cfg, (faults, plan)


def job_fingerprint(jobspec: JobSpec) -> str:
    """Canonical content address of the work a spec describes.

    The session fingerprint (app, runs, seeds, profiler config, fault
    plan, plan config — never execution knobs) hashed together with the
    wire version, so a protocol change can never alias old cached results.
    """
    from repro.harness.request import ProfileRequest, ResilienceConfig
    from repro.harness.runner import session_fingerprint

    spec, cfg, (faults, plan) = jobspec.build_session()
    request = ProfileRequest(
        runs=jobspec.runs,
        base_seed=jobspec.base_seed,
        coz_config=cfg,
        resilience=ResilienceConfig(faults=faults),
        plan=plan,
    )
    payload = {
        "wire": WIRE_VERSION,
        "session": session_fingerprint(spec, request, cfg),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- socket framing ----------------------------------------------------------


def send_doc(sock: socket.socket, doc: Dict[str, Any]) -> None:
    """Write one newline-terminated JSON message."""
    sock.sendall(json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n")


def read_doc(fh) -> Optional[Dict[str, Any]]:
    """Read one newline-terminated JSON message from a socket file.

    Returns ``None`` on a cleanly closed connection; raises
    :class:`WireError` on garbage.
    """
    line = fh.readline()
    if not line:
        return None
    try:
        doc = json.loads(line)
    except ValueError:
        raise WireError("undecodable wire message") from None
    if not isinstance(doc, dict):
        raise WireError(f"wire message must be an object, got {type(doc).__name__}")
    return doc
