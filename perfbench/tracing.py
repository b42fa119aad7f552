"""Traced-run instrumentation, installed from outside ``src/``.

Two mechanisms, both off unless a workload runs with ``--trace 1``:

* **Spans.**  :meth:`Tracer.install` wraps the public entry point of each
  layer (session, planner, executor, program run/resume, snapshot codec
  and restore, profile decode/merge, analysis, journal appends) with a
  ``perf_counter_ns`` bracket.  A span's self time is its duration minus
  the time of the spans nested inside it on the same thread.  Spans stay
  in memory; pool workers (forked, so they inherit the wrappers) append
  theirs to one JSON-lines file per worker, merged at the end.
* **Host-stack sampler.**  The hot in-engine layers (app generators, the
  event loop, the sampler, the profiler hook) run millions of tiny calls
  that spans cannot bracket.  A background thread wakes ``SAMPLE_HZ``
  times a second, looks at every thread that is inside a profile session,
  and charges the sample to the layer of the innermost ``repro`` frame.

:meth:`Tracer.write` saves everything as one Chrome trace-event JSON file
(Perfetto and ``about:tracing`` open it).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

SAMPLE_HZ = 50

#: module prefix -> layer, longest prefix wins
LAYERS = {
    "repro.apps": "apps",
    "repro.sim.ops": "apps",
    "repro.sim.source": "apps",
    "repro.sim": "engine",
    "repro.sim.sampler": "sampler",
    "repro.core.profiler": "profiler",
    "repro.core.speedup": "profiler",
    "repro.core.progress": "profiler",
    "repro.sim.snapshot": "snapshot",
    "repro.harness.checkpoint": "snapshot",
    "repro.core.profile_data": "analysis",
    "repro.core.experiment": "analysis",
    "repro.core.binwire": "analysis",
    "repro.stats": "analysis",
}


def layer_of(module: str) -> str:
    best, layer = "", "other"
    for prefix, name in LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


class Span(NamedTuple):
    name: str
    pid: int
    tid: int
    start_ns: int
    dur_ns: int
    #: duration minus the spans nested inside it on the same thread
    self_ns: int
    #: id of the outermost span on the thread: spans of one request share it
    root: int
    attrs: Dict[str, Any]


class Tracer:
    """Spans plus host-stack samples for one traced run."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.layer_samples: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._worker_file = None
        self._session_code = None
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def suspended(self):
        """Calls on this thread pass through unrecorded (output checks)."""
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = False

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(tracer._local, "off", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            root = stack[0][0] if stack else span_id
            frame = [span_id, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                extra = {}
                if ok and attrs is not None:
                    extra = attrs(args, kwargs, result)
                tracer._record(Span(
                    name, os.getpid(), threading.get_ident(), t0, dur,
                    dur - frame[1], root, extra,
                ))

        return traced

    def _record(self, span: Span) -> None:
        if span.pid == self.pid:
            self.spans.append(span)
            return
        # a forked pool worker: its memory dies with it, so spill each span
        if self._worker_file is None:
            path = os.path.join(self.out_dir, f"spans-{span.pid}.jsonl")
            self._worker_file = open(path, "a", encoding="utf-8")
        self._worker_file.write(json.dumps(span._asdict()) + "\n")
        self._worker_file.flush()

    def patch(self, owner: Any, attr: str, name: str,
              attrs: Optional[Callable] = None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, attrs))
        else:
            new = self._wrap(name, raw, attrs)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer entry point and start the stack sampler."""
        from repro.core.profile_data import ProfileData
        from repro.harness import runner
        from repro.harness.checkpoint import CheckpointStore
        from repro.harness.journal import SessionJournal
        from repro.harness.parallel import resolve_jobs
        from repro.harness.service.daemon import ServiceDaemon
        from repro.plan import AdaptivePlanner, StaticPlanner
        from repro.sim import snapshot
        from repro.sim.program import Program

        def session_attrs(args, kwargs, out):
            return {
                "runs": len(out.run_results),
                "experiments": out.experiment_count,
                "rounds": out.plan.rounds if out.plan else 0,
                "events": sum(r.events_processed for r in out.run_results),
                "samples": sum(r.sample_count for r in out.run_results),
                "delay_ns": sum(r.delay_ns for r in out.run_results),
            }

        def execute_attrs(args, kwargs, outs):
            tasks = args[0] if args else kwargs["tasks"]
            jobs = args[1] if len(args) > 1 else kwargs.get("jobs", 1)
            return {
                "runs": len(outs),
                "jobs": resolve_jobs(jobs, len(tasks)),
                "worker_s": sum(o.wall_s for o in outs),
                "wire_bytes": sum(len(o.data_bin or b"") for o in outs),
            }

        self._session_code = runner.run_profile_session.__code__
        self.patch(runner, "run_profile_session", "session", session_attrs)
        self.patch(runner, "execute_tasks", "execute_tasks", execute_attrs)
        self.patch(runner, "build_causal_profile", "analysis")
        for cls in (StaticPlanner, AdaptivePlanner):
            self.patch(cls, "propose", "plan.propose")
            self.patch(cls, "observe", "plan.observe")
        self.patch(Program, "run", "program.run")
        self.patch(Program, "resume", "program.resume")
        self.patch(snapshot, "restore", "snapshot.restore")
        self.patch(snapshot.EngineSnapshot, "to_bytes", "snapshot.encode",
                   lambda a, k, blob: {"bytes": len(blob)})
        self.patch(snapshot.EngineSnapshot, "from_bytes", "snapshot.decode")
        self.patch(CheckpointStore, "get", "snapshot.lookup",
                   lambda a, k, snap: {"hit": snap is not None})
        self.patch(ProfileData, "from_bytes", "profile.decode")
        self.patch(ProfileData, "merge", "profile.merge")
        self.patch(SessionJournal, "record_run", "journal.append")
        self.patch(SessionJournal, "record_failure", "journal.append")
        self.patch(ServiceDaemon, "_journal_event", "journal.append")
        self._stop.clear()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="perfbench-sampler", daemon=True
        )
        self._sampler.start()

    def uninstall(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)
            self._sampler = None
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        self.spans.clear()
        self.layer_samples.clear()

    # ---------------------------------------------------------- sampler

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(1.0 / SAMPLE_HZ):
            for tid, frame in sys._current_frames().items():
                if tid == own:
                    continue
                layer = self._classify(frame)
                if layer is not None:
                    self.layer_samples[layer] += 1

    def _classify(self, frame) -> Optional[str]:
        """Layer of the innermost ``repro`` frame, for threads inside a
        profile session; ``None`` for threads doing anything else."""
        innermost = None
        while frame is not None:
            if innermost is None:
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro."):
                    innermost = module
            if frame.f_code is self._session_code:
                return layer_of(innermost or "")
            frame = frame.f_back
        return None

    # ---------------------------------------------------------- results

    def all_spans(self) -> List[Span]:
        """Parent spans plus every pool worker's spilled spans."""
        spans = list(self.spans)
        if not os.path.isdir(self.out_dir):
            return spans
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
                    spans.extend(Span(**json.loads(row)) for row in fh if row.strip())
        return spans

    def write(self, path: str, labels: Dict[str, Any]) -> None:
        events = [
            {
                "name": s.name, "ph": "X", "pid": s.pid, "tid": s.tid,
                "ts": s.start_ns / 1000.0, "dur": s.dur_ns / 1000.0,
                "args": dict(s.attrs, self_us=s.self_ns / 1000.0, root=s.root),
            }
            for s in self.all_spans()
        ]
        doc = {
            "traceEvents": events,
            "otherData": dict(labels, layer_samples=dict(self.layer_samples)),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """name -> {count, dur_ns, self_ns} over ``spans``."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "dur_ns": 0, "self_ns": 0}
    )
    for s in spans:
        row = out[s.name]
        row["count"] += 1
        row["dur_ns"] += s.dur_ns
        row["self_ns"] += s.self_ns
    return out
