"""Virtual speedup delay accounting (§3.4).

The sampled virtual-speedup protocol, exactly as in the paper:

* every sample that falls in the selected line means *all other threads*
  must pause for ``delay_ns`` (= speedup% x sampling period, eq. 4);
* inter-thread pausing is mediated by counters, not signals: a shared
  **global** count of required pauses, and a per-thread **local** count of
  pauses already executed (or credited);
* the *minimal delay* optimization (§3.4.3): a thread that executed the
  selected line increments only its **local** count — so if every thread
  runs the line equally often, nobody pauses at all.  The invariant is
  ``local count == samples-in-line + pauses`` for every thread;
* a thread must catch up (``local < global`` => pause) after processing its
  samples, before any potentially blocking call (Table 2), and before any
  potentially waking call (Table 1);
* a thread woken by a peer is *credited*: ``local = global`` with no pause;
  a thread woken by a timer (sleep/IO) pays its accumulated delays;
* nanosleep may overshoot; the excess is tracked per thread and subtracted
  from future pauses ("Ensuring accurate timing").

Accounting instrumentation: alongside ``total_inserted_ns`` (pauses
actually taken) the engine tracks ``total_required_ns`` (nominal
count x delay pauses owed) so the excess algebra
``inserted == required + outstanding excess`` is checkable at any time, and
every counter mutation is narrated to an optional
:class:`~repro.sim.hooks.AuditHook` for the invariant audit layer
(:mod:`repro.core.audit`).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from repro.sim.hooks import AuditHook
from repro.sim.thread import VThread

class DelayEngine:
    """Counter-based delay coordination for one experiment at a time."""

    def __init__(
        self,
        minimal: bool = True,
        jitter_ns: int = 0,
        seed: int = 0,
        auditor: Optional[AuditHook] = None,
    ) -> None:
        self.minimal = minimal
        self.jitter_ns = jitter_ns
        self._rng = random.Random(seed)
        self.active = False
        self.delay_ns = 0
        self.global_count = 0
        #: pauses actually inserted, in ns, across all threads (diagnostics)
        self.total_inserted_ns = 0
        #: nominal pauses owed (count x delay), before excess/jitter adjustment
        self.total_required_ns = 0
        self.auditor = auditor

    # -- experiment lifecycle --------------------------------------------------

    def begin(self, delay_ns: int, threads: Iterable[VThread]) -> None:
        """Start an experiment with a per-sample delay of ``delay_ns``."""
        self.active = True
        self.delay_ns = delay_ns
        self.global_count = 0
        threads = list(threads)
        for t in threads:
            t.coz_local = 0
        if self.auditor is not None:
            self.auditor.on_delay_begin(self, delay_ns, threads)

    def end(self) -> int:
        """Stop inserting delays; returns the final global count."""
        self.active = False
        count = self.global_count
        if self.auditor is not None:
            self.auditor.on_delay_end(count, self.delay_ns)
        self.delay_ns = 0
        return count

    # -- per-thread protocol ---------------------------------------------------

    def on_hits(self, thread: VThread, hits: int) -> int:
        """``hits`` processed samples fell in the selected line.

        Returns the pause to insert in *this* thread right now (normally 0
        under the minimal-delay scheme, since executing the line is self-
        crediting).
        """
        if not self.active or hits <= 0:
            return self.reconcile(thread)
        thread.coz_local += hits
        if self.auditor is not None:
            self.auditor.on_delay_hits(thread, hits)
        if not self.minimal:
            # pre-optimization scheme (ablation): the global count rises on
            # every hit, so *all* other threads pause even when they execute
            # the selected line just as often (num_threads - 1 pauses/hit).
            self.global_count += hits
        # minimal scheme (§3.4.3): only the local count was incremented; the
        # reconcile below raises the global when local exceeds it, so other
        # threads pause — but a thread that runs the line itself is
        # self-credited and never pauses for its own executions.
        return self.reconcile(thread)

    def reconcile(self, thread: VThread) -> int:
        """Catch a thread up with the global count; returns pause ns."""
        if not self.active:
            return 0
        local = thread.coz_local
        if local > self.global_count:
            self.global_count = local
            return 0
        if local == self.global_count:
            return 0
        count_delta = self.global_count - local
        required = count_delta * self.delay_ns
        thread.coz_local = self.global_count
        pause = self._apply_excess(thread, required)
        if self.auditor is not None:
            self.auditor.on_delay_pause(thread, count_delta, required, pause)
        return pause

    def credit(self, thread: VThread) -> None:
        """Thread was woken by a peer: its waker already paid the delays."""
        if self.active:
            count_delta = self.global_count - thread.coz_local
            thread.coz_local = self.global_count
            if self.auditor is not None:
                self.auditor.on_delay_credit(thread, count_delta)

    def on_thread_created(self, child: VThread, parent: Optional[VThread]) -> None:
        """A new thread inherits its parent's local count (§3.4, 'Thread
        creation'): delays inserted into the parent also delayed the spawn."""
        if not self.active:
            return
        if parent is not None:
            child.coz_local = parent.coz_local
        else:
            child.coz_local = self.global_count
        if self.auditor is not None:
            self.auditor.on_delay_inherit(child, child.coz_local)

    def local_count(self, thread: VThread) -> int:
        """A thread's local delay count (diagnostics/audit)."""
        return thread.coz_local

    # -- nanosleep excess ----------------------------------------------------------

    def outstanding_excess_ns(self, threads: Iterable[VThread]) -> int:
        """Total nanosleep overshoot inserted but not yet compensated."""
        return sum(t.coz_excess for t in threads)

    def max_outstanding_excess_ns(self, threads: Iterable[VThread]) -> int:
        """Largest per-thread uncompensated overshoot (critical-path share)."""
        return max((t.coz_excess for t in threads), default=0)

    def _apply_excess(self, thread: VThread, required: int) -> int:
        """Adjust a required pause for previously-overshot sleeps."""
        self.total_required_ns += required
        excess = thread.coz_excess
        if excess >= required:
            thread.coz_excess = excess - required
            return 0
        pause = required - excess
        thread.coz_excess = 0
        if self.jitter_ns > 0:
            overshoot = self._rng.randrange(self.jitter_ns + 1)
            thread.coz_excess = overshoot
            pause += overshoot
        self.total_inserted_ns += pause
        return pause
