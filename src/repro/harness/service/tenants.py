"""Per-tenant admission control: quotas, rate limits, circuit breakers.

The daemon's robustness promise is *isolation*: one tenant's chaos-faulted
workload degrades that tenant's requests, never a neighbor's.  Three
controls enforce it, all per-tenant and all deterministic functions of
the harness wall clock, :func:`repro.harness.wallclock.now` (so tests
drive them by patching that one clock):

* **queue-depth quota** — a tenant may hold at most ``max_queue_depth``
  queued-or-running jobs; excess submissions are shed immediately rather
  than queued behind work the tenant cannot absorb;
* **token bucket** — sustained submission rate is capped at ``rate_per_s``
  with a burst allowance of ``burst`` tokens;
* **circuit breaker** — after ``breaker_threshold`` consecutive failed or
  degraded jobs the tenant is quarantined: submissions are shed until
  ``breaker_cooldown_s`` passes, then exactly one probe job is admitted
  (half-open).  A healthy probe re-closes the breaker; a failed one
  re-opens it for another cooldown.

Every shed is a typed :class:`~repro.sim.errors.ServiceOverloadError`
carrying the control that fired, and every control's counters surface in
the daemon's status document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.harness import wallclock
from repro.sim.errors import ServiceOverloadError

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "TenantPolicy",
    "TenantState",
    "TokenBucket",
]


@dataclass(frozen=True)
class TenantPolicy:
    """Admission-control limits applied to each tenant independently."""

    #: queued-or-running jobs a tenant may hold before shedding
    max_queue_depth: int = 8
    #: sustained submissions per second (token-bucket refill rate)
    rate_per_s: float = 20.0
    #: burst allowance (token-bucket capacity)
    burst: int = 40
    #: consecutive failed/degraded jobs that open the circuit breaker
    breaker_threshold: int = 3
    #: seconds the breaker stays open before admitting one half-open probe
    breaker_cooldown_s: float = 30.0
    #: deadline applied to jobs that do not carry their own (None = none)
    default_deadline_s: Optional[float] = None


class TokenBucket:
    """Classic token bucket, refilled on :func:`wallclock.now`."""

    def __init__(self, rate_per_s: float, burst: int) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = self.burst
        self._last = wallclock.now()

    def _refill(self) -> None:
        now = wallclock.now()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate_per_s)
        self._last = now

    def try_take(self) -> bool:
        """Consume one token if available; False means shed the request."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class CircuitBreaker:
    """Three-state (closed / open / half-open) per-tenant breaker.

    ``allow()`` gates admission; ``record_success``/``record_failure``
    feed it job outcomes.  The half-open state admits exactly one probe:
    a healthy probe closes the breaker (the tenant recovered), a failed
    probe re-opens it for another full cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a new job be admitted for this tenant right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if wallclock.now() - self._opened_at >= self.cooldown_s:
                self.state = self.HALF_OPEN
                return True  # the one probe
            return False
        return False  # half-open: the probe is already in flight

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or self.consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self._opened_at = wallclock.now()

    def release_probe(self) -> None:
        """Return an unused half-open probe slot.

        The admitted probe never became a job (the submission resolved as
        a cache hit, was shed on capacity, or its job ended without a
        health verdict), so no ``record_*`` call will ever arrive for it.
        Re-open *without* restarting the cooldown — the elapsed cooldown
        still counts, so the very next submission is re-admitted as a new
        probe instead of the tenant being quarantined forever.
        """
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN


@dataclass
class TenantState:
    """One tenant's live admission state and counters."""

    tenant: str
    policy: TenantPolicy
    bucket: TokenBucket
    breaker: CircuitBreaker
    #: queued-or-running jobs right now (quota accounting)
    active: int = 0
    counters: Dict[str, int] = field(default_factory=lambda: {
        "submitted": 0,
        "completed": 0,
        "degraded": 0,
        "failed": 0,
        "dedup_hits": 0,
        "cache_hits": 0,
        "shed_queue_depth": 0,
        "shed_rate_limit": 0,
        "shed_circuit_breaker": 0,
        "shed_deadline": 0,
    })

    @property
    def shed_total(self) -> int:
        return sum(v for k, v in self.counters.items() if k.startswith("shed_"))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "active": self.active,
            "breaker": self.breaker.state,
            "consecutive_failures": self.breaker.consecutive_failures,
            "shed_total": self.shed_total,
            **self.counters,
        }


class AdmissionController:
    """Applies one :class:`TenantPolicy` across all tenants of a daemon.

    Not thread-safe on its own — the daemon serializes calls under its
    state lock.  Cooldowns and refills read :func:`wallclock.now`, so
    tests drive them by patching that clock instead of sleeping.
    """

    def __init__(self, policy: TenantPolicy) -> None:
        self.policy = policy
        self.tenants: Dict[str, TenantState] = {}

    def tenant(self, tenant_id: str) -> TenantState:
        state = self.tenants.get(tenant_id)
        if state is None:
            state = TenantState(
                tenant=tenant_id,
                policy=self.policy,
                bucket=TokenBucket(self.policy.rate_per_s, self.policy.burst),
                breaker=CircuitBreaker(
                    self.policy.breaker_threshold, self.policy.breaker_cooldown_s
                ),
            )
            self.tenants[tenant_id] = state
        return state

    def check_breaker(self, state: TenantState) -> bool:
        """Shed when the tenant's breaker is open (checked first: a
        quarantined tenant is shed even for cached results, so its traffic
        stops hitting the service until the cooldown probe succeeds).

        Returns True when this admission consumed the tenant's half-open
        probe slot — the caller must either let a job run to completion
        (feeding ``record_success``/``record_failure``) or give the slot
        back with :meth:`CircuitBreaker.release_probe` if the submission
        resolves without executing anything.
        """
        was_open = state.breaker.state == CircuitBreaker.OPEN
        if not state.breaker.allow():
            state.counters["shed_circuit_breaker"] += 1
            raise ServiceOverloadError(
                f"tenant {state.tenant!r} circuit breaker is open "
                f"({state.breaker.consecutive_failures} consecutive "
                f"failed/degraded jobs; cooldown "
                f"{state.policy.breaker_cooldown_s:g}s)",
                tenant=state.tenant,
                reason="circuit-breaker",
            )
        return was_open and state.breaker.state == CircuitBreaker.HALF_OPEN

    def check_capacity(self, state: TenantState) -> None:
        """Shed when the tenant is over quota or over rate (checked only
        for submissions that would enqueue *new* work — coalesced
        duplicates and cache hits consume no capacity)."""
        if state.active >= state.policy.max_queue_depth:
            state.counters["shed_queue_depth"] += 1
            raise ServiceOverloadError(
                f"tenant {state.tenant!r} has {state.active} jobs "
                f"queued/running (quota {state.policy.max_queue_depth})",
                tenant=state.tenant,
                reason="queue-depth",
            )
        if not state.bucket.try_take():
            state.counters["shed_rate_limit"] += 1
            raise ServiceOverloadError(
                f"tenant {state.tenant!r} exceeded {state.policy.rate_per_s:g} "
                f"submissions/s (burst {state.policy.burst})",
                tenant=state.tenant,
                reason="rate-limit",
            )

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {t: s.snapshot() for t, s in sorted(self.tenants.items())}
