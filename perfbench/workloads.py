"""The three benchmark workloads and their output checks.

Every workload builds its inputs from the workload seed alone, measures
for ``seconds`` seconds, checks every output, and returns an
:class:`Outcome` holding the end-to-end metrics (untraced run) or the
per-layer metrics (traced run).  Untraced runs report host times at the
reference speed of ``speed.py``.  See ``README.md`` for why each exists.

* ``cold-profile``: closed loop of serial sqlite sessions with the default
  request (checkpointing on, cache cleared before each session).
* ``warm-parallel``: closed loop of 20-run ferret sessions at ``jobs=2``
  over a checkpoint cache that a serial cold session populates in set-up.
* ``service-mix``: open loop of job submissions, on a seeded schedule, to
  an in-process profiling daemon.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import json
import math
import os
import random
import selectors
import shutil
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import CausalProfiler, CozConfig, ExecutionConfig, ProfileRequest
from repro.apps import registry
from repro.harness import runner
from repro.harness.checkpoint import (
    CheckpointStore,
    checkpoint_fingerprint,
    clear_memory_cache,
)
from repro.harness.service import (
    WIRE_VERSION,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    TenantPolicy,
)
from repro.harness.service.wire import send_doc

from perfbench import oracle
from perfbench.common import (
    OUT_DIR,
    Ledger,
    import_probes,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.speed import Gauge
from perfbench.tracing import Tracer, summarize


@dataclass(frozen=True)
class Sizes:
    """How big the closed-loop workloads are; :data:`SHORT` is the
    self-test scale."""

    cold_app: str = "sqlite"
    cold_runs: int = 5
    warm_app: str = "ferret"
    warm_runs: int = 20
    #: fresh-interpreter import probes per set-up (median reported)
    probes: int = 5


FULL = Sizes()
SHORT = Sizes(cold_app="example", cold_runs=2, warm_app="example",
              warm_runs=4, probes=1)

WARM_JOBS = 2
#: service-mix jobs: adaptive-planner sessions of this app and run budget
SVC_APP = "example"
SVC_RUNS = 2
#: offered requests per second, duplicates included; a run sends
#: ``round(SVC_RATE * seconds)`` requests
SVC_RATE = 5.0
#: daemon workers: sessions are pure Python and share the interpreter
#: lock, so a second worker adds no capacity, only time-slicing
SVC_WORKERS = 1
#: latency limits behind ``slo_met_share``
COLD_LIMIT_S = 60.0
WARM_LIMIT_S = 15.0
SVC_LIMIT_S = 0.5

#: service-mix request mix, as (k, n): k of every n base arrivals are new
#: jobs, the rest resubmit a job due at least RESUBMIT_AGE_S earlier; k of
#: every n new jobs also draw an in-flight duplicate.  Fixed quotas in
#: seeded order keep the mix exact: misses ~72% of requests (more at the
#: start, before any job is old enough to resubmit), resubmits ~18%,
#: duplicates ~10%.
MISS_QUOTA = (4, 5)
DUP_QUOTA = (1, 7)
#: base arrival gaps are the mean gap times a uniform factor in this range:
#: near-regular, so a job rarely queues behind another at the offered rate
#: and latency percentiles follow the service, not arrival bursts
GAP_JITTER = (0.8, 1.2)
RESUBMIT_AGE_S = 2.0
TENANTS = ("alpha", "beta")
#: how long a submit waits server-side for its job, and the drain limit
WAIT_S = 60.0
#: untraced/traced session pairs behind service-mix's trace.overhead_pct
OVERHEAD_PAIRS = 9


@dataclass
class Outcome:
    metrics: Dict[str, float]
    ledger: Ledger
    #: what the percentiles are over, e.g. ``{"sessions": 3}``
    counts: Dict[str, int] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: the speed gauge's :meth:`~perfbench.speed.Gauge.summary`, untraced runs
    speed: Optional[Tuple[int, int, float]] = None
    #: the main latency metric in plain wall time, for the log
    unscaled: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------------ checks


def run_counters(results) -> List[Tuple[int, int, int, int]]:
    """Deterministic per-run counters: virtual ns, events, samples, delay."""
    return [
        (r.runtime_ns, r.events_processed, r.sample_count, r.delay_ns)
        for r in results
    ]


def check_session(outcome, runs: int) -> List[str]:
    """A clean session: every run merged, none failed, every run sampled."""
    problems = []
    if outcome.data.failures:
        problems.append(f"{len(outcome.data.failures)} runs failed")
    if len(outcome.run_results) != runs or len(outcome.data.runs) != runs:
        problems.append(
            f"{len(outcome.run_results)}/{runs} run results and "
            f"{len(outcome.data.runs)}/{runs} profile runs merged"
        )
    if any(r.sample_count == 0 for r in outcome.run_results):
        problems.append("a run took no samples")
    return problems


def check_identical(reference: bytes, got: bytes) -> List[str]:
    if got != reference:
        return ["merged profile is not byte-identical to the serial reference"]
    return []


def check_counters(expected, got) -> List[str]:
    if list(expected) != list(got):
        return ["deterministic counters differ for equal seeds"]
    return []


def check_answers(records: Sequence["Record"], runs: int) -> List[List[str]]:
    """Per-request problems for a service run.

    Each answer must be a clean result of the requested size; every answer
    for one job spec must equal the first one that arrived (cache hits and
    duplicates return what the execution returned); and all requests for
    one spec that reached a job must name the same job (it ran once).
    """
    first: Dict[int, str] = {}
    job_of: Dict[int, str] = {}
    problems: List[List[str]] = [[] for _ in records]
    order = sorted(range(len(records)), key=lambda i: records[i].arrived or math.inf)
    for i in order:
        rec, bad = records[i], problems[i]
        resp = rec.response
        if resp is None:
            bad.append(f"no answer ({rec.error or 'timed out'})")
            continue
        if not resp.get("ok"):
            bad.append(f"refused: {resp.get('error')}: {resp.get('message')}")
            continue
        result = resp.get("result") or {}
        if result.get("state") != "done" or result.get("degraded"):
            bad.append(f"job ended {result.get('state')!r}")
        if result.get("runs") != runs or not result.get("profile_data"):
            bad.append("result has the wrong size")
        key = rec.request.spec.base_seed
        doc = json.dumps(result, sort_keys=True)
        if first.setdefault(key, doc) != doc:
            bad.append("answer differs from the first answer for this spec")
        job = resp.get("job")
        if job is not None:
            if job_of.setdefault(key, job["job_id"]) != job["job_id"]:
                bad.append("spec executed more than once")
    return problems


# ----------------------------------------------------------------- helpers


def seed_stream(rng: random.Random, spacing: int = 100) -> Iterator[int]:
    """Distinct base seeds ``spacing`` apart, so no two sessions share a
    per-run seed (``base_seed + i``) and hence a checkpoint."""
    seen = set()
    while True:
        s = rng.randrange(1, 1_000_000)
        if s not in seen:
            seen.add(s)
            yield s * spacing


def quota(rng: random.Random, k: int, n: int) -> Iterator[bool]:
    """Booleans with exactly ``k`` true in every block of ``n``, shuffled."""
    while True:
        block = [True] * k + [False] * (n - k)
        rng.shuffle(block)
        yield from block


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def suspended(tracer: Optional[Tracer]):
    return tracer.suspended() if tracer is not None else contextlib.nullcontext()


def new_tracer(label: str) -> Tracer:
    out = os.path.join(OUT_DIR, f"spans-{label}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    return Tracer(out)


def fig3_gap(ledger: Ledger) -> float:
    """The oracle sweep, once per run and outside every timed section."""
    rows = oracle.gap_sweep()
    missing = [pct for pct, (_, v) in rows.items() if math.isnan(v)]
    ledger.op([f"Fig. 3 sweep lacks virtual points {missing}"] if missing else [])
    return oracle.max_gap_pp({p: r for p, r in rows.items() if p not in missing})


def standalone_counters(spec, seed: int):
    """Counters of one run executed outside any session, for comparison
    with the same seed's run inside a session."""
    cfg = CozConfig(scope=spec.scope, seed=seed)
    hook = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    return run_counters([spec.build(seed).run(hook=hook)])[0]


def fresh_heap() -> None:
    """Collect garbage before a timed section, outside it.

    A session leaves reference cycles behind (engines, generator frames);
    without this the next session would pay for collecting them, so its time
    would depend on what ran before it instead of starting from the clean
    heap a session in a fresh process has.
    """
    gc.collect()


def checkpoint_store(spec) -> CheckpointStore:
    """The in-memory checkpoint store a default session of ``spec`` uses."""
    return CheckpointStore(checkpoint_fingerprint(spec, CozConfig(scope=spec.scope), None))


def gauged(workload: Callable[..., Outcome]) -> Callable[..., Outcome]:
    """Run ``workload`` under a host-speed gauge, passed as ``gauge``.

    Untraced runs report every timing at reference speed (``speed.py``);
    traced runs report no timings, so their gauge is off and reads wall
    time.
    """

    @functools.wraps(workload)
    def run(seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> Outcome:
        gauge = Gauge(enabled=not trace)
        with gauge.running():
            outcome = workload(seed, seconds, trace, sizes, gauge)
        if gauge.enabled:
            outcome.speed = gauge.summary()
        return outcome

    return run


def wall(span: Tuple[float, float]) -> float:
    return span[1] - span[0]


def in_window(start: float, seconds: float, spans: Sequence[Tuple[float, float]]) -> bool:
    """Start another closed-loop session only if, at the median session
    wall, it would end less than half a session past the window."""
    return time.perf_counter() - start + median(list(map(wall, spans))) / 2 < seconds


def closed_loop_metrics(setup_s, times, runs, met, gap) -> Dict[str, float]:
    """End-to-end metrics of a closed loop of sessions, from their times at
    reference speed: each session is a request submitted when the previous
    one answered.  Throughput is taken from the median session, like the
    latencies, so one stalled session does not move it."""
    return {
        "setup_s": setup_s,
        "session_s_p50": median(times),
        "runs_per_s": runs / median(times),
        "submit_ms_p50": 1000.0 * median(times),
        "submit_ms_p90": 1000.0 * percentile(times, 0.9),
        "slo_met_share": met / len(times),
        "virtual_actual_gap_pp": gap,
        "peak_rss_mb": peak_rss_mb(),
    }


def _share(samples: Counter, layer: str) -> float:
    total = sum(samples.values())
    return samples[layer] / total if total else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float,
                  snap_bytes: Sequence[int] = (),
                  service: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric, from the traced sessions' spans and samples.

    Metrics of a layer the workload does not exercise read 0.
    """
    spans = tracer.all_spans()
    by = summarize(spans)
    sessions = [s for s in spans if s.name == "session"]
    n = max(1, len(sessions))
    runs = max(1, sum(s.attrs.get("runs", 0) for s in sessions))
    events = sum(s.attrs.get("events", 0) for s in sessions)
    rounds = sum(s.attrs.get("rounds", 0) for s in sessions)
    session_ns = sum(s.dur_ns for s in sessions)
    samples = tracer.layer_samples
    lookups = [s for s in spans if s.name == "snapshot.lookup"]
    pooled = [s for s in spans if s.name == "execute_tasks" and s.attrs.get("jobs", 1) > 1]
    pool_ns = sum(s.dur_ns * s.attrs["jobs"] for s in pooled)
    worker_ns = sum(s.attrs["worker_s"] * 1e9 for s in pooled)
    pool_runs = max(1, sum(s.attrs["runs"] for s in pooled))
    if not snap_bytes:
        snap_bytes = [s.attrs["bytes"] for s in spans if s.name == "snapshot.encode"]
    appends = by["journal.append"]
    service = service or {}

    def ms(ns: float) -> float:
        return ns / 1e6

    return {
        "apps.share": _share(samples, "apps"),
        "engine.share": _share(samples, "engine"),
        "engine.events": events / n,
        "engine.host_ns_per_event":
            _share(samples, "engine") * session_ns / events if events else 0.0,
        "sampler.share": _share(samples, "sampler"),
        "sampler.samples": sum(s.attrs.get("samples", 0) for s in sessions) / n,
        "profiler.share": _share(samples, "profiler"),
        "profiler.experiments": sum(s.attrs.get("experiments", 0) for s in sessions) / n,
        "profiler.delay_ms": ms(sum(s.attrs.get("delay_ns", 0) for s in sessions)) / n,
        "snapshot.capture_share": _share(samples, "snapshot"),
        "snapshot.resume_ms_per_run": ms(by["snapshot.restore"]["dur_ns"]) / runs,
        "snapshot.hit_rate":
            sum(1 for s in lookups if s.attrs.get("hit")) / len(lookups) if lookups else 0.0,
        "snapshot.bytes_per_run": sum(snap_bytes) / len(snap_bytes) if snap_bytes else 0.0,
        "pool.overhead_ms_per_run": ms(pool_ns - worker_ns) / pool_runs if pooled else 0.0,
        "pool.worker_busy_share": worker_ns / pool_ns if pool_ns else 0.0,
        "wire.bytes_per_run":
            sum(s.attrs["wire_bytes"] for s in pooled) / pool_runs if pooled else 0.0,
        "merge.ms_per_run":
            ms(by["profile.decode"]["dur_ns"] + by["profile.merge"]["dur_ns"]) / runs,
        "analysis.ms_per_session": ms(by["analysis"]["dur_ns"]) / n,
        "plan.rounds": rounds / n,
        "plan.experiments_per_job": sum(s.attrs.get("experiments", 0) for s in sessions) / n,
        "plan.ms_per_round":
            ms(by["plan.propose"]["dur_ns"] + by["plan.observe"]["dur_ns"]) / rounds
            if rounds else 0.0,
        "journal.appends": appends["count"] / n,
        "journal.ms_per_append":
            ms(appends["dur_ns"]) / appends["count"] if appends["count"] else 0.0,
        "service.admit_ms_p50": service.get("admit_ms_p50", 0.0),
        "service.queue_wait_ms_p50": service.get("queue_wait_ms_p50", 0.0),
        "service.cache_hit_rate": service.get("cache_hit_rate", 0.0),
        "service.dedup_hit_rate": service.get("dedup_hit_rate", 0.0),
        "service.shed": service.get("shed", 0.0),
        "loadgen.lag_ms_p90": service.get("lag_ms_p90", 0.0),
        "trace.overhead_pct": overhead_pct,
    }


# ------------------------------------------------------------ cold-profile


@gauged
def cold_profile(seed: int, seconds: float, trace: bool,
                 sizes: Sizes, gauge: Gauge) -> Outcome:
    """Serial sqlite sessions with the default request, each from a cleared
    checkpoint cache: what a developer pays on a first profile."""
    ledger = Ledger()
    seeds = seed_stream(random.Random(f"cold-profile/{seed}"))
    probes = import_probes(sizes.cold_app, sizes.probes)
    gap = fig3_gap(ledger)
    spec = registry.build(sizes.cold_app)
    store = checkpoint_store(spec)
    tracer = new_tracer("cold-profile") if trace else None
    snap_bytes: List[int] = []

    def session(base: int, tracer_on: Optional[Tracer] = None):
        clear_memory_cache()
        fresh_heap()
        with traced(tracer_on):
            t0 = time.perf_counter()
            out = runner.run_profile_session(
                spec, ProfileRequest(runs=sizes.cold_runs, base_seed=base)
            )
            t1 = time.perf_counter()
        with suspended(tracer_on):
            snaps = [store.get(s) for s in range(base, base + sizes.cold_runs)]
        problems = check_session(out, sizes.cold_runs)
        if None in snaps:
            problems.append(f"{snaps.count(None)} runs captured no checkpoint")
        elif tracer_on is not None:
            snap_bytes.extend(len(s.to_bytes()) for s in snaps)
        ok = ledger.op(problems)
        # keep counters, not the outcome: its run results hold whole engines
        return (t0, t1), run_counters(out.run_results), ok and t1 - t0 <= COLD_LIMIT_S

    first_seed = next(seeds)
    start = time.perf_counter()
    spans, met, first = [], 0, None
    if trace:
        # the same seed traced between two untraced sessions: tracing
        # overhead on identical work (the first session, which also pays the
        # process's one-off costs, is left out) and proof that tracing
        # leaves the results alone
        _, first, _ = session(first_seed)
        span_t, counters_t, _ = session(first_seed, tracer)
        span_u, counters_u, _ = session(first_seed)
        ledger.op(check_counters(first, counters_t) + check_counters(first, counters_u))
        spans.append(span_t)
        while in_window(start, seconds, spans):
            spans.append(session(next(seeds), tracer)[0])
    else:
        base = first_seed
        while not spans or in_window(start, seconds, spans):
            span, counters, ok = session(base)
            first = first or counters
            spans.append(span)
            met += ok
            base = next(seeds)
    # the first session's first run, re-executed outside any session, must
    # repeat every deterministic counter
    ledger.op(check_counters(first[:1], [standalone_counters(spec, first_seed)]))
    clear_memory_cache()
    if trace:
        overhead = 100.0 * (wall(span_t) / wall(span_u) - 1.0)
        return Outcome(layer_metrics(tracer, overhead, snap_bytes), ledger,
                       {"sessions": len(spans)}, tracer)
    setup_s = median([gauge.reference_s(*p) for p in probes])
    times = [gauge.reference_s(*s) for s in spans]
    metrics = closed_loop_metrics(setup_s, times, sizes.cold_runs, met, gap)
    return Outcome(metrics, ledger, {"sessions": len(spans)},
                   unscaled={"session_s_p50": median(list(map(wall, spans)))})


# ----------------------------------------------------------- warm-parallel


@gauged
def warm_parallel(seed: int, seconds: float, trace: bool,
                  sizes: Sizes, gauge: Gauge) -> Outcome:
    """Re-profiling an unchanged app: parallel ferret sessions resuming
    every run from the checkpoints a serial cold session recorded."""
    ledger = Ledger()
    base = next(seed_stream(random.Random(f"warm-parallel/{seed}")))
    runs = sizes.warm_runs
    probes = import_probes(sizes.warm_app, sizes.probes)
    spec = registry.build(sizes.warm_app)

    clear_memory_cache()
    t0 = time.perf_counter()
    reference = runner.run_profile_session(spec, ProfileRequest(runs=runs, base_seed=base))
    populate = (t0, time.perf_counter())
    ledger.op(check_session(reference, runs))
    ref_bytes = reference.data.to_bytes()
    ref_counters = run_counters(reference.run_results)
    del reference  # its run results hold whole engines
    gap = fig3_gap(ledger)
    tracer = new_tracer("warm-parallel") if trace else None
    # what each warm run resumes from: the deepest checkpoint of its seed
    snaps = map(checkpoint_store(spec).get, range(base, base + runs))
    snap_bytes = [len(s.to_bytes()) for s in snaps if s is not None] if trace else []
    request = ProfileRequest(
        runs=runs, base_seed=base, execution=ExecutionConfig(jobs=WARM_JOBS)
    )

    def session(tracer_on: Optional[Tracer] = None):
        fresh_heap()
        with traced(tracer_on):
            t0 = time.perf_counter()
            out = runner.run_profile_session(spec, request)
            t1 = time.perf_counter()
        ok = ledger.op(
            check_session(out, runs)
            + check_identical(ref_bytes, out.data.to_bytes())
            + check_counters(ref_counters, run_counters(out.run_results))
        )
        return (t0, t1), ok and t1 - t0 <= WARM_LIMIT_S

    spans: List[Tuple[float, float]] = []
    traced_spans: List[Tuple[float, float]] = []
    met = 0
    start = time.perf_counter()
    while not spans or in_window(start, seconds, spans):
        span, ok = session()
        spans.append(span)
        met += ok
        if trace:  # interleaved untraced/traced pairs of identical work
            traced_spans.append(session(tracer)[0])
    if trace:
        overhead = 100.0 * (median(list(map(wall, traced_spans)))
                            / median(list(map(wall, spans))) - 1.0)
        return Outcome(layer_metrics(tracer, overhead, snap_bytes), ledger,
                       {"sessions": len(traced_spans)}, tracer)
    setup_s = (median([gauge.reference_s(*p) for p in probes])
               + gauge.reference_s(*populate))
    times = [gauge.reference_s(*s) for s in spans]
    metrics = closed_loop_metrics(setup_s, times, runs, met, gap)
    return Outcome(metrics, ledger, {"sessions": len(spans)},
                   unscaled={"session_s_p50": median(list(map(wall, spans)))})


# ------------------------------------------------------------- service-mix


@dataclass
class Request:
    #: seconds after the loop starts that the request is due
    due: float
    #: "miss" (new job), "hit" (resubmit of a finished job) or "dup"
    #: (duplicate of a job that is probably still running)
    kind: str
    spec: JobSpec


@dataclass
class Record:
    request: Request
    send_start: Optional[float] = None
    arrived: Optional[float] = None
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def make_schedule(seed: int, seconds: float) -> List[Request]:
    """Seeded open-loop schedule of ``round(SVC_RATE * seconds)`` requests:
    jittered arrival times, request kinds and job specs."""
    rng = random.Random(f"service-mix/{seed}")
    seeds = seed_stream(rng)
    new_job = quota(rng, *MISS_QUOTA)
    duplicate = quota(rng, *DUP_QUOTA)
    dup_share = MISS_QUOTA[0] / MISS_QUOTA[1] * DUP_QUOTA[0] / DUP_QUOTA[1]
    base_rate = SVC_RATE / (1.0 + dup_share)
    total = max(1, round(SVC_RATE * seconds))
    requests: List[Request] = []
    misses: List[Tuple[float, JobSpec]] = []
    t = 0.0
    while len(requests) < total:
        t += rng.uniform(*GAP_JITTER) / base_rate
        finished = [spec for due, spec in misses if due <= t - RESUBMIT_AGE_S]
        if not next(new_job) and finished:
            spec = rng.choice(finished)
            requests.append(Request(t, "hit", dataclasses.replace(
                spec, tenant=rng.choice(TENANTS))))
            continue
        spec = JobSpec(tenant=TENANTS[len(misses) % len(TENANTS)],
                       app=SVC_APP, runs=SVC_RUNS,
                       base_seed=next(seeds), planner="adaptive")
        misses.append((t, spec))
        requests.append(Request(t, "miss", spec))
        if next(duplicate):
            other = TENANTS[len(misses) % len(TENANTS)]
            requests.append(Request(t + rng.uniform(0.005, 0.03), "dup",
                                    dataclasses.replace(spec, tenant=other)))
    requests.sort(key=lambda r: r.due)
    return requests[:total]


def drive(sock_path: str, requests: Sequence[Request]) -> Tuple[List[Record], float]:
    """Send each request when due, from this one thread, and collect every
    answer as it arrives.  Each submit asks the daemon to hold the answer
    until the job settles, so arrival time is result time.

    Returns the records and the loop's start time (``perf_counter``).
    """
    sel = selectors.DefaultSelector()
    records = [Record(r) for r in requests]
    buffers: Dict[socket.socket, bytes] = {}

    def pump(timeout: float) -> None:
        for key, _ in sel.select(timeout):
            sock, rec = key.fileobj, key.data
            try:
                chunk = sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError as exc:
                chunk, rec.error = b"", str(exc)
            buffers[sock] += chunk
            if chunk and b"\n" not in chunk:
                continue
            rec.arrived = time.perf_counter()
            line = buffers.pop(sock).split(b"\n", 1)[0]
            try:
                rec.response = json.loads(line) if line else None
            except ValueError:
                rec.error = "undecodable answer"
            sel.unregister(sock)
            sock.close()

    start = time.perf_counter() + 0.05
    try:
        for rec in records:
            due = start + rec.request.due
            while True:
                left = due - time.perf_counter()
                if left <= 0:
                    break
                if buffers:
                    pump(left)
                else:
                    time.sleep(left)
            rec.send_start = time.perf_counter()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(sock_path)
                send_doc(sock, {"wire": WIRE_VERSION, "op": "submit",
                                "spec": rec.request.spec.to_wire(), "wait_s": WAIT_S})
            except OSError as exc:
                rec.error = f"send failed: {exc}"
                sock.close()
                continue
            sock.setblocking(False)
            sel.register(sock, selectors.EVENT_READ, rec)
            buffers[sock] = b""
        drain_until = time.perf_counter() + WAIT_S + 5.0
        while buffers and time.perf_counter() < drain_until:
            pump(drain_until - time.perf_counter())
    finally:
        for sock in list(buffers):
            sel.unregister(sock)
            sock.close()
        sel.close()
    return records, start


def join_threads(timeout: float = 5.0) -> None:
    """Wait for every thread but this one (daemon workers and handlers)."""
    me = threading.current_thread()
    for t in threading.enumerate():
        if t is not me and t is not threading.main_thread():
            t.join(timeout)


class Service:
    """One in-process daemon in its own state directory under the checkout."""

    def __init__(self, label: str) -> None:
        self.state_dir = os.path.join(OUT_DIR, f"svc-{os.getpid()}-{label}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        sock = os.path.join(self.state_dir, "daemon.sock")
        if len(sock) > 100:  # AF_UNIX path limit; the cwd is the checkout
            sock = os.path.relpath(sock)
        self.daemon = ServiceDaemon(ServiceConfig(
            state_dir=self.state_dir,
            workers=SVC_WORKERS,
            policy=TenantPolicy(max_queue_depth=256, rate_per_s=1000.0, burst=1000),
            session_jobs=1,
            poll_s=0.05,
            socket_path=sock,
        ))
        self.client = ServiceClient(sock)

    def start(self) -> None:
        self.daemon.start()
        if not self.client.wait_until_ready(10.0):
            raise RuntimeError("profiling daemon never answered a ping")

    def close(self) -> None:
        self.daemon.stop()
        join_threads()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def run_job_session(spec: JobSpec):
    """Execute a job's session in-process, the way a daemon worker would."""
    app, cfg, (faults, plan) = spec.build_session()
    return runner.run_profile_session(app, ProfileRequest(
        runs=spec.runs, base_seed=spec.base_seed, coz_config=cfg, plan=plan,
    ))


@gauged
def service_mix(seed: int, seconds: float, trace: bool,
                sizes: Sizes, gauge: Gauge) -> Outcome:
    """Open-loop traffic to a profiling daemon: mostly new adaptive jobs
    (result-cache misses), plus resubmits (cache hits) and in-flight
    duplicates (dedup)."""
    ledger = Ledger()
    schedule = make_schedule(seed, seconds)
    probes = import_probes(SVC_APP, sizes.probes)
    starts = []
    for i in range(max(1, sizes.probes)):
        svc = Service(f"setup{i}")
        t0 = time.perf_counter()
        svc.start()
        starts.append((t0, time.perf_counter()))
        svc.close()
    gap = fig3_gap(ledger)
    tracer = new_tracer("service-mix") if trace else None
    overhead = 0.0
    if trace:
        # tracing overhead on identical work: one job's session untraced
        # and traced, in alternating order, with a fresh seed per pair
        seeds = seed_stream(random.Random(f"service-mix/overhead/{seed}"))
        ratios = []
        for i in range(OVERHEAD_PAIRS):
            spec = JobSpec(tenant="overhead", app=SVC_APP, runs=SVC_RUNS,
                           base_seed=next(seeds), planner="adaptive")
            walls = {}
            for tracer_on in ((None, tracer) if i % 2 else (tracer, None)):
                clear_memory_cache()
                fresh_heap()
                with traced(tracer_on):
                    t0 = time.perf_counter()
                    run_job_session(spec)
                    walls[tracer_on is None] = time.perf_counter() - t0
            ratios.append(walls[False] / walls[True])
        overhead = 100.0 * (median(ratios) - 1.0)
        tracer.reset()

    clear_memory_cache()
    svc = Service("run")
    svc.start()
    try:
        # one job before the clock starts: the first session in a process
        # pays one-off costs a long-running daemon pays once, not per request
        warmup = JobSpec(tenant="warmup", app=SVC_APP, runs=SVC_RUNS,
                         base_seed=1, planner="adaptive")
        t0 = time.perf_counter()
        answer = svc.client.submit(warmup, wait_s=WAIT_S)
        warmed = (t0, time.perf_counter())
        ledger.op([] if (answer.get("result") or {}).get("state") == "done"
                  else [f"warm-up job failed: {answer}"])
        fresh_heap()
        with traced(tracer):
            records, start = drive(svc.client.socket_path, schedule)
        status = svc.client.status()["status"]
    finally:
        svc.close()

    problems = check_answers(records, SVC_RUNS)
    latencies, walls, met = [], [], 0
    for rec, bad in zip(records, problems):
        ledger.op(bad)
        if rec.arrived is not None:
            latency = rec.arrived - (start + rec.request.due)
            walls.append(latency)
            latencies.append(gauge.reference_s(start + rec.request.due, rec.arrived))
            met += not bad and latency <= SVC_LIMIT_S
    # each executed job, and the speed factor over the first request that
    # waited for it (its execution lies inside that request's wait)
    jobs, job_factor = {}, {}
    for rec in records:
        job = (rec.response or {}).get("job")
        if job is not None:
            jobs[job["job_id"]] = job
            job_factor.setdefault(
                job["job_id"], gauge.factor(start + rec.request.due, rec.arrived))
    executed = status["jobs"]["total"] - 1  # the warm-up job
    ledger.op([] if executed == len(jobs) else
              [f"daemon ran {executed} jobs for {len(jobs)} distinct specs"])
    counts = {"requests": len(records), "jobs": len(jobs)}

    if trace:
        tenants = [status["tenants"][t] for t in TENANTS]
        submitted = max(1, sum(t["submitted"] for t in tenants))
        cached = [
            1000.0 * (r.arrived - start - r.request.due) for r in records
            if r.response and r.response.get("cached")
        ]
        service = {
            "admit_ms_p50": median(cached),
            "queue_wait_ms_p50": median(
                [1000.0 * j["queue_latency_s"] for j in jobs.values()]),
            "cache_hit_rate": sum(t["cache_hits"] for t in tenants) / submitted,
            "dedup_hit_rate": sum(t["dedup_hits"] for t in tenants) / submitted,
            "shed": float(sum(t["shed_total"] for t in tenants)),
            "lag_ms_p90": 1000.0 * percentile(
                [r.send_start - start - r.request.due for r in records], 0.9),
        }
        return Outcome(layer_metrics(tracer, overhead, service=service),
                       ledger, counts, tracer)

    # the offered rate, not the host, sets the open loop's throughput, so
    # runs_per_s stays in wall time
    last = max((r.arrived for r in records if r.arrived is not None), default=start)
    setup_s = (median([gauge.reference_s(*p) for p in probes])
               + median([gauge.reference_s(*s) for s in starts])
               + gauge.reference_s(*warmed))
    metrics = {
        "setup_s": setup_s,
        "session_s_p50": median([j["execute_s"] * job_factor[i] for i, j in jobs.items()]),
        "runs_per_s": SVC_RUNS * len(jobs) / max(1e-9, last - start),
        "submit_ms_p50": 1000.0 * median(latencies),
        "submit_ms_p90": 1000.0 * percentile(latencies, 0.9),
        "slo_met_share": met / len(records),
        "virtual_actual_gap_pp": gap,
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(metrics, ledger, counts,
                   unscaled={"submit_ms_p50": 1000.0 * median(walls)})


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "cold-profile": cold_profile,
    "warm-parallel": warm_parallel,
    "service-mix": service_mix,
}
