"""Deterministic fault injection for resilience testing (``--chaos``).

Long causal-profiling sessions are only useful if they survive to the end,
so every recovery path in the harness — typed failure records, watchdog
deadlines, in-parent retry, journal resume — must be exercisable on demand.
This module injects *virtual* faults into runs, seeded and deterministic:
the same :class:`FaultPlan` and run seed always produce the same faults at
the same virtual instants, which makes chaos tests repeatable and lets a
resumed session reproduce a faulted schedule bit-for-bit.

Fault classes (each an independent per-run probability):

* ``thread_crash`` — a thread aborts mid-activity
  (:class:`~repro.sim.errors.ThreadCrashFault`); the run fails with a
  typed, recordable error;
* ``stuck_lock`` — a running thread (typically a lock-holder mid-critical-
  section) stalls on-CPU for far longer than the in-sim stall detector
  tolerates; the detector raises
  :class:`~repro.sim.errors.StuckLockError` with every blocked peer's
  callchain, so the livelock is diagnosed instead of wedging the session;
* ``sample_loss`` / ``sample_dup`` — a delivered sample batch drops or
  duplicates one sample (a lossy perf_event ring buffer); the run completes
  and the profiler must tolerate the perturbed stream;
* ``jitter_spike`` — one inserted pause overshoots by ``spike_factor``x
  (extreme nanosleep overshoot); the run completes stretched, and the
  accounting drift is what the invariant audit exists to catch;
* ``worker_kill`` / ``worker_hang`` — executor-level faults: the *worker
  process* executing the run SIGKILLs itself or hangs before running.
  These fire only inside pool workers, so the executor's stop-the-pool and
  watchdog paths are exercised and the run, executed again in the parent,
  succeeds.

Sim-level faults are enabled via ``SimConfig.faults`` (the engine builds a
:class:`FaultInjector` per run); the harness plumbs a plan end-to-end with
``ProfileRequest(resilience=ResilienceConfig(faults=...))`` and the
``--chaos`` CLI flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import List, Optional

from repro.sim.clock import MS

#: mixes the plan seed and run seed into the injector's RNG stream,
#: keeping it disjoint from the profiler (seed) and delay (seed^0x5EED) RNGs
_FAULT_SALT = 0xFA17


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, how often, and from which seed.

    Probabilities are per run (``sample_loss``/``sample_dup`` per delivered
    batch, ``jitter_spike`` per inserted pause, once armed for the run).
    The plan is a frozen, picklable value: it crosses process boundaries
    with the task and participates in session fingerprints, so a resumed
    chaos session re-injects the exact same faults.
    """

    #: RNG stream seed; combined with each run's seed, see FaultInjector
    seed: int = 0
    #: probability a run's thread aborts mid-activity (ThreadCrashFault)
    thread_crash: float = 0.0
    #: probability a run gets a stuck on-CPU lock-holder (StuckLockError)
    stuck_lock: float = 0.0
    #: per-batch probability of dropping one delivered sample
    sample_loss: float = 0.0
    #: per-batch probability of duplicating one delivered sample
    sample_dup: float = 0.0
    #: per-pause probability of an extreme nanosleep overshoot
    jitter_spike: float = 0.0
    #: probability the pool worker executing the run SIGKILLs itself
    worker_kill: float = 0.0
    #: probability the pool worker executing the run hangs
    worker_hang: float = 0.0

    # --- magnitudes ---------------------------------------------------------
    #: window of virtual time in which timed faults arm, [lo, hi)
    fault_window_ns: tuple = (MS(2), MS(120))
    #: how long an injected stall grinds (must exceed stall_detect_ns)
    stall_ns: int = MS(10_000)
    #: in-sim stall detector deadline after the stall begins
    stall_detect_ns: int = MS(50)
    #: pause inflation factor for a jitter spike
    spike_factor: int = 50
    #: wall seconds a hung worker sleeps (bounded by the harness watchdog)
    worker_hang_s: float = 30.0

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and f.name.endswith(
                ("crash", "lock", "loss", "dup", "spike", "kill", "hang")
            ):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{f.name} must be a probability in [0, 1]")
        if self.stall_ns <= self.stall_detect_ns:
            raise ValueError("stall_ns must exceed stall_detect_ns")
        if self.spike_factor < 1:
            raise ValueError("spike_factor must be >= 1")

    @property
    def any_sim_faults(self) -> bool:
        """Does the plan inject anything inside the simulation?"""
        return any((
            self.thread_crash, self.stuck_lock, self.sample_loss,
            self.sample_dup, self.jitter_spike,
        ))

    @classmethod
    def chaos(cls, seed: int = 0, intensity: float = 0.25) -> "FaultPlan":
        """The ``--chaos`` preset: every fault class at ``intensity``."""
        return cls(
            seed=seed,
            thread_crash=intensity,
            stuck_lock=intensity,
            sample_loss=intensity,
            sample_dup=intensity,
            jitter_spike=intensity,
            worker_kill=intensity,
            worker_hang=intensity,
        )


class FaultInjector:
    """One run's fault schedule, drawn deterministically at construction.

    All randomness is consumed up front from a private
    ``Random((plan.seed << 32) ^ run_seed ^ salt)`` stream, so injection
    decisions never perturb the profiler's or the engine's RNGs, and two
    executions of the same (plan, seed) pair fault identically.  Worker-
    level faults draw from a second private stream; only pool workers enact
    them, so the parent's run in a failed worker's place succeeds.
    """

    def __init__(self, plan: FaultPlan, run_seed: int) -> None:
        plan.validate()
        self.plan = plan
        self.run_seed = run_seed
        rng = random.Random((plan.seed << 32) ^ run_seed ^ _FAULT_SALT)
        lo, hi = plan.fault_window_ns

        #: virtual time at which a thread aborts (None = no crash this run)
        self.crash_at_ns: Optional[int] = (
            rng.randrange(lo, hi) if rng.random() < plan.thread_crash else None
        )
        #: virtual time at which a running thread stalls (None = no stall)
        self.stall_at_ns: Optional[int] = (
            rng.randrange(lo, hi) if rng.random() < plan.stuck_lock else None
        )
        #: virtual time from which pause spikes are armed (None = never)
        self.spike_from_ns: Optional[int] = (
            rng.randrange(lo, hi) if plan.jitter_spike > 0 else None
        )
        wrng = random.Random((plan.seed << 32) ^ run_seed ^ 0xB0B0)
        self.worker_kill = wrng.random() < plan.worker_kill
        self.worker_hang = not self.worker_kill and wrng.random() < plan.worker_hang
        #: private stream for per-batch / per-pause draws during the run
        self._rng = rng
        self._spiked = False

    # -- sim-level faults (consumed by the engine) -----------------------------

    def perturb_batch(self, batch: List) -> List:
        """Maybe drop and/or duplicate one sample of a delivered batch."""
        plan = self.plan
        rng = self._rng
        if not batch:
            return batch
        if plan.sample_loss and rng.random() < plan.sample_loss:
            batch = list(batch)
            del batch[rng.randrange(len(batch))]
        if batch and plan.sample_dup and rng.random() < plan.sample_dup:
            batch = list(batch)
            batch.insert(rng.randrange(len(batch)), batch[rng.randrange(len(batch))])
        return batch

    def maybe_spike(self, pause_ns: int, now_ns: int) -> int:
        """Inflate one inserted pause once the spike window opens.

        At most one spike per run: a single extreme overshoot is the
        scenario (a descheduled profiler thread), and it keeps the injected
        timeline damage bounded.
        """
        if (
            self._spiked
            or pause_ns <= 0
            or self.spike_from_ns is None
            or now_ns < self.spike_from_ns
        ):
            return pause_ns
        if self._rng.random() < self.plan.jitter_spike:
            self._spiked = True
            return pause_ns * self.plan.spike_factor
        return pause_ns
