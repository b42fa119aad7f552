"""The causal profiler (§2-3): experiment coordination on the simulator.

:class:`CausalProfiler` is the simulator-world equivalent of Coz's
LD_PRELOADed runtime plus its dedicated profiler thread:

* it turns on per-thread IP sampling and charges the corresponding overhead
  (startup debug-info processing, per-thread perf_event setup, per-sample
  processing cost) so the Figure 9 overhead study is meaningful;
* it runs performance experiments: pick a line (the first in-scope sampled
  line, or a fixed line for focused/planner-directed studies), pick a
  virtual speedup (0% half the time), insert delays via the counter
  protocol for a fixed duration, log progress-point deltas, cool off,
  repeat.  The line/speedup selection policy itself lives in
  :class:`repro.plan.schedule.RunScheduler` — the profiler executes
  whatever schedule its configuration (free or planner-directed) implies;
* if an experiment sees fewer than ``min_visits`` progress visits, the
  experiment length doubles for the rest of the run (§2).

One profiler instance profiles one run; merge the resulting
:class:`~repro.core.profile_data.ProfileData` across runs for denser
profiles (the harness does this).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from collections import Counter

from repro.core.config import CozConfig
from repro.core.experiment import ExperimentResult
from repro.core.profile_data import ProfileData, RunInfo
from repro.core.progress import LatencySpec, ProgressPoint, ProgressTracker
from repro.core.speedup import DelayEngine
from repro.plan.schedule import RunScheduler
from bisect import bisect_left

from repro.sim.hooks import HookAction, ProfilerHook
from repro.sim.sampler import SEG_AFFINE, SEG_LITERAL, ColumnarBuf
from repro.sim.source import SourceLine
from repro.sim.thread import VThread

_WAIT = "wait"          # waiting to select a line for the next experiment
_RUNNING = "running"    # an experiment is in flight
_COOLOFF = "cooloff"    # draining samples between experiments


class _ProfTimer:
    """A pending profiler timer as a named, serializable callable.

    The experiment-end and cooloff timers used to be lambdas, which a
    checkpoint snapshot (repro.sim.snapshot) cannot carry across the
    capture/restore boundary.  This object is behaviourally identical but
    exposes ``snapshot_ref()`` so the recorder can serialize the pending
    timer and the profiler can rebuild it on restore.
    """

    __slots__ = ("profiler", "kind", "token")

    #: experiment-duration elapsed -> _end_experiment(token)
    END = "end"
    #: cooloff elapsed -> _leave_cooloff(token)
    COOL = "cool"

    def __init__(self, profiler: "CausalProfiler", kind: str, token: int) -> None:
        self.profiler = profiler
        self.kind = kind
        self.token = token

    def __call__(self) -> None:
        if self.kind == _ProfTimer.END:
            self.profiler._end_experiment(self.token)
        else:
            self.profiler._leave_cooloff(self.token)

    def snapshot_ref(self):
        return (self.kind, self.token)


class CausalProfiler(ProfilerHook):
    """Coz as a simulator hook."""

    wants_samples = True

    def __init__(
        self,
        config: Optional[CozConfig] = None,
        progress_points: Sequence[ProgressPoint] = (),
        latency_specs: Sequence[LatencySpec] = (),
        auditor=None,
    ) -> None:
        self.cfg = config or CozConfig()
        self.cfg.validate()
        self.tracker = ProgressTracker(list(progress_points))
        self.latency_specs = list(latency_specs)
        self.auditor = auditor
        if self.auditor is None and self.cfg.audit:
            from repro.core.audit import DelayAuditor

            self.auditor = DelayAuditor()
        self.delays = DelayEngine(
            minimal=self.cfg.minimal_delays,
            jitter_ns=self.cfg.nanosleep_jitter_ns,
            seed=self.cfg.seed ^ 0x5EED,
            auditor=self.auditor,
        )
        self.rng = random.Random(self.cfg.seed)
        # line/speedup selection policy (repro.plan.schedule); shares the
        # profiler's RNG so free runs keep the historical draw order
        self.scheduler = RunScheduler(self.cfg, self.rng)
        self.data = ProfileData()
        # hot-path bindings (see the before_block/before_wake_op trampolines)
        self.before_block = self.delays.reconcile
        self.before_wake_op = self.delays.reconcile

        self.engine = None
        self.state = _WAIT
        self.experiment_duration = self.cfg.experiment_duration_ns
        self._experiment_token = 0
        self._run_delay_ns = 0

        # per-run sampling totals (attributed lines), for the phase correction
        self.line_samples: Counter = Counter()

        # current experiment state
        self._line: Optional[SourceLine] = None
        self._pct: int = 0
        self._delay_ns: int = 0
        self._start_ns: int = 0
        self._counts_before = {}
        self._s_obs = 0

    # ------------------------------------------------------------------ lifecycle

    def attach(self, engine) -> None:
        self.engine = engine

    def on_run_start(self, engine) -> None:
        if self.cfg.enable_sampling:
            engine.enable_sampling()
        for line in self.tracker.breakpoint_lines:
            engine.watch_line(line)
        # startup: process debug information for the whole binary (§3.1)
        program = getattr(engine, "program", None)
        if program is not None and engine.main_thread is not None:
            cost = program.debug_size_kb * self.cfg.startup_cost_per_kb_ns
            engine.main_thread.pending_cpu_ns += cost

    def on_run_end(self, engine) -> None:
        if self.state == _RUNNING:
            # program ended mid-experiment; Coz discards the partial result,
            # but its delays are already in the timeline — leaving them off
            # the books would overcount total_effective_ns (the T of eq. 8)
            count = self.delays.end()
            self._run_delay_ns += count * self._delay_ns
        # nanosleep overshoot that was inserted but never compensated is real
        # timeline delay beyond the required count x delay bookkeeping;
        # threads pause concurrently, so the critical-path (largest
        # per-thread) share is what stretched the run
        self._run_delay_ns += self.delays.max_outstanding_excess_ns(engine.threads)
        self.data.add_run(
            RunInfo(
                runtime_ns=engine.now,
                total_delay_ns=self._run_delay_ns,
                line_samples=self.line_samples,
            )
        )
        if self.auditor is not None:
            self.auditor.on_profiler_run_end(self, engine)

    def on_thread_created(self, thread: VThread, parent: Optional[VThread]) -> None:
        self.delays.on_thread_created(thread, parent)
        if self.cfg.enable_sampling:
            # starting perf_event sampling in the new thread costs CPU (§4.4)
            thread.pending_cpu_ns += self.cfg.thread_attach_cost_ns

    # ------------------------------------------------------------------ samples

    def on_samples(self, thread: VThread, batch: ColumnarBuf) -> HookAction:
        """Attribute a sample batch and run the experiment protocol on it.

        Each segment carries one (line, callchain, func) for ``n``
        consecutive samples, so attribution, per-line totals, tracker
        counts, and the in-scope selection pool (which must preserve
        duplicate multiplicity — ``select_line`` draws uniformly over
        *samples*, not lines) are all O(1) per segment.  Experiment hits
        need the ``time >= start_ns`` cut: closed form for affine
        timestamp segments, a binary search over the (nondecreasing)
        expanded times for rescaled ones.  Literal segments (snapshot
        restore, fault perturbation) are walked sample by sample.  The
        golden-trace matrix is the referee.
        """
        cfg = self.cfg
        cost = batch.n * cfg.sample_process_cost_ns

        hits = 0
        in_scope: List[SourceLine] = []
        first_in_scope = cfg.scope.first_in_scope
        line_samples = self.line_samples
        sampled_lines_get = self.tracker._sampled_lines.get
        tracker_counts = self.tracker.counts
        running = self.state == _RUNNING
        waiting = self.state == _WAIT  # in_scope only feeds selection
        exp_line = self._line
        start_ns = self._start_ns
        prev_chain = prev_attr = None
        for seg in batch.segs:
            kind = seg[0]
            if kind == SEG_LITERAL:
                # pre-materialized samples: walk them one by one
                for s in seg[2]:
                    chain = s.callchain
                    if chain is prev_chain:
                        attributed = prev_attr
                    else:
                        prev_chain = chain
                        attributed = prev_attr = first_in_scope(chain)
                    if attributed is None:
                        continue
                    line_samples[attributed] = line_samples.get(attributed, 0) + 1
                    name = sampled_lines_get(attributed)
                    if name is not None:
                        tracker_counts[name] += 1
                    if waiting:
                        in_scope.append(attributed)
                    if running and attributed == exp_line and s.time >= start_ns:
                        hits += 1
                continue
            n = seg[1]
            chain = seg[4]
            if chain is prev_chain:
                attributed = prev_attr
            else:
                prev_chain = chain
                attributed = prev_attr = first_in_scope(chain)
            if attributed is None:
                continue
            line_samples[attributed] = line_samples.get(attributed, 0) + n
            name = sampled_lines_get(attributed)
            if name is not None:
                tracker_counts[name] += n
            if waiting:
                in_scope.extend([attributed] * n)
            if running and attributed == exp_line:
                # only samples taken after the experiment started count as
                # hits (stale buffered samples must not trigger delays)
                if kind == SEG_AFFINE:
                    base, period = seg[6], seg[7]
                    if base + period >= start_ns:
                        hits += n  # the first sample already passes the cut
                    else:
                        kmin = -(-(start_ns - base) // period)
                        if kmin <= n:
                            hits += n - kmin + 1
                else:
                    times = batch.seg_times(seg)
                    hits += n - bisect_left(times, start_ns)

        pause = 0
        if self.state == _RUNNING:
            self._s_obs += hits
            pause = self.delays.on_hits(thread, hits)
        elif self.state == _WAIT:
            cap = self.cfg.max_experiments
            if cap is None or len(self.data.experiments) < cap:
                selected = self.scheduler.select_line(in_scope, bool(batch))
                if selected is not None:
                    self._start_experiment(selected)
        return HookAction(pause_ns=pause, cpu_ns=cost)

    # ------------------------------------------------------------------ experiments

    def _start_experiment(self, line: SourceLine) -> None:
        engine = self.engine
        self._line = line
        self._pct = self.scheduler.choose_speedup()
        delay_ns = self._pct * engine.cfg.sample_period_ns // 100
        self._delay_ns = delay_ns
        self._start_ns = engine.now
        self._counts_before = self.tracker.snapshot()
        self._s_obs = 0
        self.delays.begin(delay_ns, (t for t in engine.threads if t.alive))
        self.state = _RUNNING
        self._experiment_token += 1
        token = self._experiment_token
        engine.call_after(
            self.experiment_duration, _ProfTimer(self, _ProfTimer.END, token)
        )

    def _end_experiment(self, token: int) -> None:
        if token != self._experiment_token or self.state != _RUNNING:
            return
        engine = self.engine
        # Settle the books: every runnable thread executes its outstanding
        # required delays now, so the effective-duration subtraction
        # (delay_count x delay) matches pauses actually inserted.  Blocked
        # threads are excluded: their wake is delayed by the waker's pauses,
        # which is exactly the credit rule.
        from repro.sim.thread import ThreadState

        for t in engine.threads:
            if t.alive and t.state is not ThreadState.BLOCKED:
                pause = self.delays.reconcile(t)
                if pause > 0:
                    t.pending_pause_ns += pause
        count = self.delays.end()
        counts_after = self.tracker.snapshot()
        visits = ProgressTracker.delta(self._counts_before, counts_after)
        delay_ns = self._delay_ns
        result = ExperimentResult(
            line=self._line,
            speedup_pct=self._pct,
            delay_ns=delay_ns,
            start_ns=self._start_ns,
            end_ns=engine.now,
            delay_count=count,
            selected_samples=self._s_obs,
            visits=visits,
            counts_before=self._counts_before,
            counts_after=counts_after,
        )
        self.data.add_experiment(result)
        self._run_delay_ns += result.inserted_delay_ns

        # Adaptive experiment length (§2): too few progress visits => double
        max_visits = max(visits.values(), default=0)
        if max_visits < self.cfg.min_visits:
            self.experiment_duration *= 2

        self.state = _COOLOFF
        cooloff = self.cfg.resolved_cooloff(
            engine.cfg.sample_period_ns, engine.cfg.sample_batch
        )
        self._experiment_token += 1
        cool_token = self._experiment_token
        engine.call_after(cooloff, _ProfTimer(self, _ProfTimer.COOL, cool_token))

    def _leave_cooloff(self, token: int) -> None:
        if token != self._experiment_token or self.state != _COOLOFF:
            return
        self.state = _WAIT

    # ------------------------------------------------------------------ snapshot

    # Checkpoint fast-forward protocol (repro.sim.snapshot): the recorder
    # captures the profiler's state alongside the engine's, and restore()
    # rehydrates a *fresh* profiler from it.  Per-thread delay bookkeeping
    # (coz_local / coz_excess) lives in VThread.prof and is carried by the
    # engine-side thread overlays, not here.

    def snapshot_state(self):
        from repro.sim.snapshot import SnapshotError

        if self.auditor is not None:
            # the auditor keeps its own shadow books mid-run; audited
            # sessions always run cold
            raise SnapshotError("audited profiler runs are not snapshot-aware")
        return {
            "data": self.data.to_json(),
            "tracker_counts": dict(self.tracker.counts),
            "line_samples": dict(self.line_samples),
            "state": self.state,
            "experiment_duration": self.experiment_duration,
            "schedule_idx": self.scheduler.schedule_idx,
            "experiment_token": self._experiment_token,
            "run_delay_ns": self._run_delay_ns,
            "line": self._line,
            "pct": self._pct,
            "delay_ns": self._delay_ns,
            "start_ns": self._start_ns,
            "counts_before": dict(self._counts_before),
            "s_obs": self._s_obs,
            "rng": self.rng.getstate(),
            "delays": {
                "active": self.delays.active,
                "delay_ns": self.delays.delay_ns,
                "global_count": self.delays.global_count,
                "total_inserted_ns": self.delays.total_inserted_ns,
                "total_required_ns": self.delays.total_required_ns,
                "rng": self.delays._rng.getstate(),
            },
        }

    def restore_state(self, state, engine) -> None:
        from repro.sim.snapshot import SnapshotError

        if self.auditor is not None:
            raise SnapshotError("audited profiler runs are not snapshot-aware")
        self.data = ProfileData.from_json(state["data"])
        self.tracker.counts = Counter(state["tracker_counts"])
        self.line_samples = Counter(state["line_samples"])
        self.state = state["state"]
        self.experiment_duration = state["experiment_duration"]
        self.scheduler.schedule_idx = state["schedule_idx"]
        self._experiment_token = state["experiment_token"]
        self._run_delay_ns = state["run_delay_ns"]
        self._line = state["line"]
        self._pct = state["pct"]
        self._delay_ns = state["delay_ns"]
        self._start_ns = state["start_ns"]
        self._counts_before = dict(state["counts_before"])
        self._s_obs = state["s_obs"]
        self.rng.setstate(state["rng"])
        d = state["delays"]
        self.delays.active = d["active"]
        self.delays.delay_ns = d["delay_ns"]
        self.delays.global_count = d["global_count"]
        self.delays.total_inserted_ns = d["total_inserted_ns"]
        self.delays.total_required_ns = d["total_required_ns"]
        self.delays._rng.setstate(d["rng"])

    def restore_timer(self, ref):
        kind, token = ref
        if kind not in (_ProfTimer.END, _ProfTimer.COOL):
            from repro.sim.snapshot import SnapshotError

            raise SnapshotError(f"unknown profiler timer kind {kind!r}")
        return _ProfTimer(self, kind, token)

    # ------------------------------------------------------------------ delay edges

    # before_block / before_wake_op are pure trampolines into the delay
    # engine; __init__ rebinds them as instance attributes pointing straight
    # at delays.reconcile so each sync-op edge costs one call, not two.
    def before_block(self, thread: VThread) -> int:
        return self.delays.reconcile(thread)

    def before_wake_op(self, thread: VThread) -> int:
        return self.delays.reconcile(thread)

    def on_unblock(self, thread: VThread, waker: Optional[VThread]) -> int:
        if waker is not None:
            self.delays.credit(thread)
            return 0
        return self.delays.reconcile(thread)

    # ------------------------------------------------------------------ progress

    def on_progress(self, thread: VThread, name: str) -> None:
        self.tracker.on_source_visit(name)

    def on_line_visit(self, thread: VThread, line: SourceLine) -> None:
        self.tracker.on_line_visit(line)

    # ------------------------------------------------------------------ stats

    @property
    def experiments_run(self) -> int:
        return len(self.data.experiments)
