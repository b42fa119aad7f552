"""Engine performance microbenchmarks (the ``repro bench`` subcommand).

Every figure and table in this reproduction is bottlenecked on
``Engine.run``, so the engine's own throughput is a first-class deliverable
tracked across PRs.  This module runs a fixed matrix of profile-session
microbenchmarks over the bundled apps and emits ``BENCH_engine.json`` with
four throughput metrics per cell:

* ``wall_s`` / ``wall_s_per_run`` — best-of-``repeats`` wall-clock time;
* ``events_per_sec`` — simulator heap events processed per wall second;
* ``virtual_ns_per_wall_s`` — virtual nanoseconds simulated per wall second
  (the "how much slower than the hardware" north-star metric);
* ``samples`` — total IP samples taken (a workload-size sanity check: the
  simulated work is deterministic, so this must not change run to run).

The matrix covers three apps (example, ferret, sqlite) in eight variants:

``session``
    the public ``run_profile_session`` path, serial, default config —
    ``ferret/session`` is the canonical acceptance microbench;
``nosampling``
    the same session with ``enable_sampling=False`` (engine cost with the
    sampling machinery off);
``program``
    per-run ``Program.run`` loop with a fresh profiler per run (the
    session path minus merge/report, used as the base for ratios);
``nojitter``
    like ``program`` with ``sample_phase_jitter=False``;
``legacy``
    like ``program`` pinned to ``coalesce=False`` (quantum-chunked event
    loop) and ``backend="pure"`` (no compiled core).
    ``summary.speedup_vs_legacy`` = ``legacy.wall_s / program.wall_s`` is
    the reproducible, same-process measure of what coalescing plus the
    compiled core buy on each workload;
``checkpoint``
    the ``session`` cell with checkpoint fast-forward on
    (:mod:`repro.harness.checkpoint`): one untimed populate pass records
    prefix snapshots, then every timed trial resumes warm.
    ``summary.checkpoint_speedup`` = ``session.wall_s /
    checkpoint.wall_s`` records what snapshot/resume buys per app — and
    because the resumed sessions are bit-identical, the cell's
    deterministic metrics double as an identity check against the
    ``session`` cell (mismatches warn);
``service``
    the profiling-service acceptance cell: a fresh in-process daemon
    (:mod:`repro.harness.service`) per repeat, timing a cold
    submit-and-wait round trip over the Unix socket, then duplicate
    no-wait submissions of a second spec (in-flight dedup), then a warm
    resubmit of the completed spec (result-cache round trip).  ``extra``
    records ``cold_submit_s``, ``warm_submit_s``, ``dedup_hit_rate`` and
    the daemon's own cache/queue counters; ``summary.service`` promotes
    the warm-submit latency and dedup hit-rate per app.  Skipped (with a
    warning) on platforms without ``AF_UNIX`` sockets;
``planner``
    the adaptive-planner acceptance cell: an untimed static baseline
    session followed by a timed adaptive session (``--planner adaptive``)
    with the same budget.  ``summary.planner_efficiency`` records, per
    app, ``experiments_ratio`` (adaptive experiments / static
    experiments — the acceptance bar is <= 0.6) and ``ci_ok`` (the
    adaptive profile's replicated bootstrap SEs on static's top-ranked
    line are no wider than static's, or than the convergence target where
    static itself never replicated a point).  Singleton points are
    excluded from the CI comparison — resampling one value yields a ~0
    SE that says nothing about variance.  This cell runs more runs
    (8 full / 3 quick) than the timing cells so the static baseline has
    replicated measurements to compare against, and sqlite's cell runs
    shorter experiments (``PLANNER_CELL_CFG``) so a run holds more than
    ~3 of them;
``harness``
    the warm-worker data-plane acceptance cell (ferret only): one cold
    populate pass, then best-of-``HARNESS_TRIALS`` warm serial and warm
    parallel (``jobs=HARNESS_JOBS``, batched dispatch) sessions over the
    same checkpoint cache.  ``extra`` records both walls, the per-run
    pool dispatch overhead, and the merged profile's size on the JSON and
    binary wires; ``summary.harness`` promotes them (plus the parallel
    cell's ``events_per_sec``) per app, and :func:`check_regression`
    gates those numbers against the recorded history in CI.

Wall-clock numbers are noisy on shared machines; the sim-side metrics
(``virtual_ns``, ``events``, ``samples``) are bit-deterministic and double
as a cheap identity check.  ``--quick`` shrinks runs/repeats for CI smoke
jobs (no timing thresholds there — crash detection only); quick documents
are tagged ``quick: true`` and their history entries are excluded from
cross-PR baseline comparisons (:func:`baseline_history`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.harness.request import ExecutionConfig
from repro.harness.runner import ProfileRequest, run_profile_session
from repro.plan import PlanConfig
from repro.sim.clock import MS

SCHEMA = "bench-engine/v1"

#: the fixed app matrix every ``repro bench`` invocation runs
MATRIX_APPS = ("example", "ferret", "sqlite")

#: variant name -> (mode, coz overrides, sim overrides, bench options)
VARIANTS = {
    "session": ("session", {}, {}, {}),
    "nosampling": ("session", {"enable_sampling": False}, {}, {}),
    "program": ("program", {}, {}, {}),
    "nojitter": ("program", {}, {"sample_phase_jitter": False}, {}),
    "legacy": ("program", {}, {"coalesce": False, "backend": "pure"}, {}),
    "checkpoint": ("session", {}, {}, {"checkpoint": True}),
    "planner": ("planner", {}, {}, {}),
    "service": ("service", {}, {}, {}),
    "harness": ("harness", {}, {}, {}),
}

#: worker processes the ``harness`` cell pins — the acceptance protocol is
#: fixed so its numbers are comparable across PRs and machines
HARNESS_JOBS = 4
#: timed trials per leg inside the harness cell (best wall wins)
HARNESS_TRIALS = 2
#: apps the harness cell runs on (ferret is the canonical acceptance
#: workload; the cell measures the executor, not the app, so one app is
#: enough and keeps the matrix affordable)
HARNESS_APPS = ("ferret",)

#: planner-cell per-app profiler overrides: sqlite's default 50 ms
#: experiments fit only ~3 experiments in a whole run, which no schedule —
#: static or adaptive — can meaningfully allocate, so its cell runs
#: shorter experiments (identical on both sides of the comparison)
PLANNER_CELL_CFG: Dict[str, Dict] = {
    "sqlite": {"experiment_duration_ns": MS(10), "cooloff_ns": MS(2)},
}

#: per-point bootstrap-SE convergence target the planner cell's adaptive
#: session stops at (see ``summary.planner_efficiency``)
PLANNER_SE_TARGET = 0.04


@dataclass
class BenchCell:
    """One (app, variant) microbenchmark definition."""

    app: str
    variant: str
    runs: int
    repeats: int

    @property
    def name(self) -> str:
        return f"{self.app}/{self.variant}"


@dataclass
class CellResult:
    """Measured outcome of one cell (see module docstring for metrics)."""

    name: str
    app: str
    variant: str
    mode: str
    runs: int
    repeats: int
    wall_s: float                      # best (min) across repeats
    wall_s_all: List[float] = field(default_factory=list)
    virtual_ns: int = 0                # summed over the cell's runs
    events: int = 0
    samples: int = 0
    backend: str = ""                  # resolved engine backend ('pure'/'accel')
    extra: Optional[Dict] = None       # variant-specific metrics (planner cell)

    def to_json(self) -> Dict:
        wall = self.wall_s
        doc = {
            "name": self.name,
            "app": self.app,
            "variant": self.variant,
            "mode": self.mode,
            "backend": self.backend,
            "runs": self.runs,
            "repeats": self.repeats,
            "wall_s": round(wall, 4),
            "wall_s_all": [round(w, 4) for w in self.wall_s_all],
            "wall_s_per_run": round(wall / self.runs, 4),
            "virtual_ns": self.virtual_ns,
            "events": self.events,
            "samples": self.samples,
            "events_per_sec": round(self.events / wall) if wall else None,
            "virtual_ns_per_wall_s": round(self.virtual_ns / wall) if wall else None,
        }
        if self.extra:
            doc["extra"] = self.extra
        return doc


def default_matrix(
    quick: bool = False,
    apps: Optional[List[str]] = None,
    variants: Optional[List[str]] = None,
) -> List[BenchCell]:
    """The fixed cell matrix (shrunk runs/repeats under ``--quick``).

    ``variants`` restricts the matrix to the named variants (used by the
    CI perf gate to run just the full-scale ``harness`` cell).  The
    planner cell gets more runs than the timing cells (and a single
    repeat — its sessions are deterministic, so repeats only re-time
    identical work): the efficiency comparison needs a static baseline
    long enough to replicate its measurements.
    """
    import socket as socket_mod

    runs = 2 if quick else 5
    repeats = 1 if quick else 3
    has_unix_sockets = hasattr(socket_mod, "AF_UNIX")
    cells = []
    for app in apps or MATRIX_APPS:
        for variant in variants or VARIANTS:
            if variant not in VARIANTS:
                raise ValueError(
                    f"unknown bench variant {variant!r}; "
                    f"available: {', '.join(VARIANTS)}"
                )
            if variant == "planner":
                cells.append(
                    BenchCell(app=app, variant=variant, runs=3 if quick else 8, repeats=1)
                )
            elif variant == "harness":
                if app not in HARNESS_APPS:
                    continue
                # one repeat: the cell runs its own best-of-N trials per
                # leg (serial and parallel) over one shared warm cache
                cells.append(BenchCell(
                    app=app, variant=variant,
                    runs=6 if quick else 20, repeats=1,
                ))
            elif variant == "service":
                if not has_unix_sockets:
                    warnings.warn(
                        "no AF_UNIX sockets on this platform; skipping the "
                        "service bench cells",
                        stacklevel=2,
                    )
                    continue
                # one repeat: each trial spins up (and tears down) its own
                # daemon, and the deterministic warm/dedup paths don't vary
                cells.append(BenchCell(app=app, variant=variant, runs=runs, repeats=1))
            else:
                cells.append(BenchCell(app=app, variant=variant, runs=runs, repeats=repeats))
    return cells


def _run_session_cell(cell: BenchCell, coz_over: Dict, checkpoint: bool = False) -> Dict:
    # checkpoint is pinned per variant: the plain session cell must stay a
    # cold baseline (comparable across PRs) even though the public request
    # defaults checkpointing on
    spec = registry.build(cell.app)
    cfg = replace(CozConfig(scope=spec.scope), **coz_over) if coz_over else None
    out = run_profile_session(
        spec,
        ProfileRequest(
            runs=cell.runs,
            coz_config=cfg,
            execution=ExecutionConfig(jobs=1, checkpoint=checkpoint),
        ),
    )
    return _session_metrics(out)


def _session_metrics(out) -> Dict:
    return {
        "virtual_ns": sum(r.runtime_ns for r in out.run_results),
        "events": sum(r.events_processed for r in out.run_results),
        "samples": sum(r.sample_count for r in out.run_results),
    }


def _planner_request(cell: BenchCell, spec, adaptive: bool) -> ProfileRequest:
    # both sides of the comparison share the app config and run cold; only
    # the plan differs, so any experiment-count delta is the planner's
    over = PLANNER_CELL_CFG.get(cell.app)
    cfg = replace(CozConfig(scope=spec.scope), **over) if over else None
    plan = None
    if adaptive:
        plan = PlanConfig(
            planner="adaptive",
            budget=cell.runs,
            se_target=PLANNER_SE_TARGET,
            explore_runs=1,
        )
    return ProfileRequest(
        runs=cell.runs,
        coz_config=cfg,
        execution=ExecutionConfig(jobs=1, checkpoint=False),
        plan=plan,
    )


def _replicated_se(profile, line) -> Optional[float]:
    # singleton bootstrap SEs understate variance (resampling one value
    # yields ~0), so CI-width comparisons only trust replicated points
    lp = profile.get(line)
    if lp is None:
        return None
    ses = [p.se for p in lp.points if p.speedup_pct > 0 and p.n_experiments >= 2]
    return max(ses) if ses else None


def _planner_extra(static_out, adaptive_out) -> Dict:
    """The planner cell's acceptance metrics (see ``planner_efficiency``)."""
    s_exp = len(static_out.data.experiments)
    a_exp = len(adaptive_out.data.experiments)
    report = adaptive_out.plan
    base = {
        "se_target": PLANNER_SE_TARGET,
        "experiments_static": s_exp,
        "experiments_adaptive": a_exp,
        "experiments_ratio": round(a_exp / s_exp, 3) if s_exp else None,
        "rounds": report.rounds if report else None,
        "runs_planned": report.runs_planned if report else None,
    }
    if not static_out.profile.lines:
        # a --quick cell can be too short for static to profile anything;
        # there is no CI comparison to make, only the ratio above
        return dict(base, top_line=None, ci_ok=None)
    # compare CI widths on static's sample-hottest profiled line: slope
    # rank #1 flips with noise on an evenly-spread static schedule, but
    # the hottest line is determined by the app alone — and it is the
    # line an optimizer would actually chase
    top = max(
        (lp.line for lp in static_out.profile.lines),
        key=lambda ln: (static_out.data.total_line_samples(ln), ln),
    )
    s_se = _replicated_se(static_out.profile, top)
    a_se = _replicated_se(adaptive_out.profile, top)
    # adaptive must match static's replicated CI width on that line (or
    # the convergence target where static itself never replicated)
    bound = max(s_se if s_se is not None else PLANNER_SE_TARGET, PLANNER_SE_TARGET)
    return dict(
        base,
        top_line=str(top),
        static_top_rep_se=round(s_se, 4) if s_se is not None else None,
        adaptive_top_rep_se=round(a_se, 4) if a_se is not None else None,
        ci_ok=a_se is not None and a_se <= bound,
    )


def _run_service_cell(cell: BenchCell) -> Dict:
    """One daemon lifecycle: cold submit, dedup burst, warm resubmit.

    Runs entirely in-process (daemon threads + a real Unix socket in a
    throwaway state dir), so the timings include genuine wire round trips
    without any subprocess noise.  Returns the session metrics plus an
    ``extra`` dict under the ``"extra"`` key.
    """
    import shutil
    import tempfile

    from repro.harness.checkpoint import clear_memory_cache
    from repro.harness.service import (
        JobSpec,
        ServiceClient,
        ServiceConfig,
        ServiceDaemon,
        TenantPolicy,
    )

    state_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    # the cold submit must be genuinely cold: no leftover checkpoint
    # snapshots from earlier cells
    clear_memory_cache()
    daemon = ServiceDaemon(ServiceConfig(
        state_dir=state_dir,
        workers=2,
        policy=TenantPolicy(rate_per_s=1000.0, burst=1000),
    ))
    daemon.start()
    try:
        client = ServiceClient(daemon.config.sock)
        if not client.wait_until_ready(10.0):
            raise RuntimeError("bench service daemon never became ready")
        spec = JobSpec(tenant="bench", app=cell.app, runs=cell.runs)
        t0 = time.perf_counter()
        cold = client.submit(spec, wait_s=600.0)
        cold_submit_s = time.perf_counter() - t0
        if not cold.get("ok") or not cold.get("result"):
            raise RuntimeError(f"bench service cold submit failed: {cold}")
        result = cold["result"]

        # in-flight dedup: duplicate no-wait submissions of different work
        dup_spec = JobSpec(tenant="bench", app=cell.app, runs=cell.runs,
                           base_seed=1000)
        first = client.submit(dup_spec)
        dups = [client.submit(dup_spec) for _ in range(3)]
        if first.get("job_id"):
            client.wait(first["job_id"], timeout_s=600.0)
        dedup_hits = sum(1 for d in dups if d.get("dedup") or d.get("cached"))

        # warm resubmit: the content-addressed result cache round trip
        t0 = time.perf_counter()
        warm = client.submit(spec, wait_s=600.0)
        warm_submit_s = time.perf_counter() - t0

        status = client.status().get("status", {})
        metrics = result.get("metrics", {})
        return {
            "virtual_ns": metrics.get("virtual_ns", 0),
            "events": metrics.get("events", 0),
            "samples": metrics.get("samples", 0),
            "extra": {
                "cold_submit_s": round(cold_submit_s, 4),
                "warm_submit_s": round(warm_submit_s, 4),
                "warm_cached": bool(warm.get("cached")),
                "dedup_hit_rate": round(dedup_hits / len(dups), 3) if dups else None,
                "cache_hit_rate": status.get("cache", {}).get("hit_rate"),
                "queue_latency_avg_s": status.get("queue", {}).get("latency_avg_s"),
            },
        }
    finally:
        daemon.stop()
        shutil.rmtree(state_dir, ignore_errors=True)


def _run_harness_cell(cell: BenchCell) -> Dict:
    """Warm-path executor overhead: serial vs parallel over a hot cache.

    One untimed cold pass populates the in-memory checkpoint cache, then
    the warm serial and warm parallel (``jobs=HARNESS_JOBS``, auto-sized
    :class:`~repro.harness.parallel.RunBatch` dispatch) sessions each run
    ``HARNESS_TRIALS`` times; best wall wins.  The parallel profile must
    be bit-identical to the serial one (warned otherwise and recorded in
    ``extra.identical``).  ``dispatch_overhead_per_run_ms`` is the pool's
    per-run round-trip cost net of ideal-speedup compute,
    ``(parallel - serial/jobs) / runs``; on machines with fewer cores
    than ``HARNESS_JOBS`` the parallel leg is time-sliced, so the number
    is an upper bound.  ``bytes_per_run_json`` / ``bytes_per_run_binary``
    size the merged profile on each wire.
    """
    from repro.harness.checkpoint import clear_memory_cache
    from repro.harness.parallel import auto_batch_size

    def _request(jobs: int) -> ProfileRequest:
        return ProfileRequest(
            runs=cell.runs, execution=ExecutionConfig(jobs=jobs),
        )

    clear_memory_cache()
    run_profile_session(registry.build(cell.app), _request(1))  # populate

    def _timed(jobs: int):
        best = None
        out = None
        for _ in range(HARNESS_TRIALS):
            t0 = time.perf_counter()
            out = run_profile_session(registry.build(cell.app), _request(jobs))
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        return best, out

    serial_s, serial_out = _timed(1)
    parallel_s, parallel_out = _timed(HARNESS_JOBS)
    identical = parallel_out.data == serial_out.data
    if not identical:
        warnings.warn(
            f"{cell.app}: warm parallel session is NOT bit-identical to "
            f"the warm serial session",
            stacklevel=2,
        )
    json_bytes = len(parallel_out.data.to_json().encode("utf-8"))
    bin_bytes = len(parallel_out.data.to_bytes())
    overhead_ms = (parallel_s - serial_s / HARNESS_JOBS) / cell.runs * 1000.0
    metrics = _session_metrics(parallel_out)
    metrics["extra"] = {
        "jobs": HARNESS_JOBS,
        "batch_runs": auto_batch_size(cell.runs, HARNESS_JOBS),
        "warm_serial_wall_s": round(serial_s, 4),
        "warm_parallel_wall_s": round(parallel_s, 4),
        "dispatch_overhead_per_run_ms": round(overhead_ms, 3),
        "bytes_per_run_json": json_bytes // cell.runs,
        "bytes_per_run_binary": bin_bytes // cell.runs,
        "wire_ratio": round(json_bytes / bin_bytes, 2) if bin_bytes else None,
        "identical": identical,
    }
    # the cell's wall is the timed parallel leg, not the whole protocol
    metrics["_wall_s"] = parallel_s
    return metrics


def _run_program_cell(cell: BenchCell, coz_over: Dict, sim_over: Dict) -> Dict:
    # mirrors harness.parallel._run_task (seed i, profiler seeded the same),
    # with the engine config overridden per variant
    spec = registry.build(cell.app)
    virtual = events = samples = 0
    for i in range(cell.runs):
        cfg = replace(CozConfig(scope=spec.scope), seed=i, **coz_over)
        prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
        program = spec.build(i)
        config = replace(program.config, **sim_over) if sim_over else None
        result = program.run(hook=prof, config=config)
        virtual += result.runtime_ns
        events += result.events_processed
        samples += result.sample_count
    return {"virtual_ns": virtual, "events": events, "samples": samples}


def run_cell(cell: BenchCell) -> CellResult:
    """Measure one cell: ``repeats`` timed trials, best wall wins."""
    mode, coz_over, sim_over, opts = VARIANTS[cell.variant]
    checkpoint = bool(opts.get("checkpoint"))
    if checkpoint:
        # one untimed populate pass from an empty cache: every timed trial
        # below then measures the warm resume path, which is the thing the
        # checkpoint cell exists to track
        from repro.harness.checkpoint import clear_memory_cache

        clear_memory_cache()
        _run_session_cell(cell, coz_over, checkpoint=True)
    extra: Optional[Dict] = None
    static_out = None
    if mode == "planner":
        # the static baseline is deterministic and not what this cell
        # times, so it runs once, untimed, like the checkpoint populate
        spec = registry.build(cell.app)
        static_out = run_profile_session(spec, _planner_request(cell, spec, adaptive=False))
    walls: List[float] = []
    metrics: Dict = {}
    for _ in range(cell.repeats):
        t0 = time.perf_counter()
        if mode == "session":
            metrics = _run_session_cell(cell, coz_over, checkpoint=checkpoint)
        elif mode == "service":
            metrics = dict(_run_service_cell(cell))
            extra = metrics.pop("extra")
        elif mode == "planner":
            spec = registry.build(cell.app)
            out = run_profile_session(spec, _planner_request(cell, spec, adaptive=True))
            metrics = _session_metrics(out)
            extra = _planner_extra(static_out, out)
        elif mode == "harness":
            metrics = dict(_run_harness_cell(cell))
            extra = metrics.pop("extra")
        else:
            metrics = _run_program_cell(cell, coz_over, sim_over)
        walls.append(time.perf_counter() - t0)
    if mode == "harness" and "_wall_s" in metrics:
        walls = [metrics.pop("_wall_s")]
    # record how the cell actually executed: the variant's pinned backend
    # where set, else the process default the engines resolved to — so a
    # document read in isolation says which backend it measured
    from repro.sim import backend as backend_mod

    return CellResult(
        name=cell.name,
        app=cell.app,
        variant=cell.variant,
        mode=mode,
        runs=cell.runs,
        repeats=cell.repeats,
        wall_s=min(walls),
        wall_s_all=walls,
        backend=backend_mod.resolve_backend(sim_over.get("backend")),
        extra=extra,
        **metrics,
    )


def run_bench(
    quick: bool = False,
    apps: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    variants: Optional[List[str]] = None,
) -> Dict:
    """Run the full matrix and return the ``BENCH_engine.json`` document."""
    cells = []
    for cell in default_matrix(quick=quick, apps=apps, variants=variants):
        if progress is not None:
            progress(f"bench {cell.name} (runs={cell.runs} x{cell.repeats})")
        cells.append(run_cell(cell))

    by_name = {c.name: c for c in cells}
    speedup_vs_legacy = {}
    checkpoint_speedup = {}
    planner_efficiency = {}
    service_summary = {}
    harness_summary = {}
    for app in dict.fromkeys(c.app for c in cells):
        harness = by_name.get(f"{app}/harness")
        if harness and harness.extra:
            harness_summary[app] = dict(
                {
                    k: harness.extra[k]
                    for k in (
                        "warm_serial_wall_s",
                        "warm_parallel_wall_s",
                        "dispatch_overhead_per_run_ms",
                        "bytes_per_run_json",
                        "bytes_per_run_binary",
                        "wire_ratio",
                        "identical",
                    )
                    if k in harness.extra
                },
                events_per_sec=(
                    round(harness.events / harness.wall_s)
                    if harness.wall_s else None
                ),
            )
        service = by_name.get(f"{app}/service")
        if service and service.extra:
            service_summary[app] = {
                k: service.extra[k]
                for k in ("warm_submit_s", "dedup_hit_rate", "cache_hit_rate")
                if k in service.extra
            }
        planner = by_name.get(f"{app}/planner")
        if planner and planner.extra:
            planner_efficiency[app] = {
                k: planner.extra[k]
                for k in ("experiments_ratio", "ci_ok", "top_line")
                if k in planner.extra
            }
        base = by_name.get(f"{app}/program")
        legacy = by_name.get(f"{app}/legacy")
        if base and legacy and base.wall_s:
            speedup_vs_legacy[app] = round(legacy.wall_s / base.wall_s, 3)
        cold = by_name.get(f"{app}/session")
        warm = by_name.get(f"{app}/checkpoint")
        if cold and warm and warm.wall_s:
            checkpoint_speedup[app] = round(cold.wall_s / warm.wall_s, 3)
            # the resumed sessions claim bit-identity with the cold ones;
            # the deterministic metrics are a free cross-check
            if (cold.virtual_ns, cold.events, cold.samples) != (
                warm.virtual_ns,
                warm.events,
                warm.samples,
            ):
                warnings.warn(
                    f"{app}: checkpoint cell metrics differ from the cold "
                    f"session cell — snapshot resume is NOT bit-identical",
                    stacklevel=2,
                )

    from repro.sim import backend as backend_mod

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    doc = {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "numpy": numpy_version,
            "accel_built": backend_mod.accel_available(),
        },
        "backend": backend_mod.resolve_backend(None),
        "cells": [c.to_json() for c in cells],
        "summary": {
            "speedup_vs_legacy": speedup_vs_legacy,
            "checkpoint_speedup": checkpoint_speedup,
            "planner_efficiency": planner_efficiency,
            "service": service_summary,
            "harness": harness_summary,
            "ferret_session_wall_s": (
                round(by_name["ferret/session"].wall_s, 4)
                if "ferret/session" in by_name
                else None
            ),
        },
        "history": [],
    }
    return doc


def baseline_history(
    history: List[Dict], backend: Optional[str] = None
) -> List[Dict]:
    """History entries usable as cross-PR performance baselines.

    ``--quick`` runs exist for CI crash detection only — their tiny
    runs/repeats make the timings meaningless — so their entries carry
    ``quick: true`` and are excluded from any ``speedup_vs_legacy`` /
    ``checkpoint_speedup`` trajectory comparison.  Entries written before
    the tag existed have no ``quick`` key and count as full runs.

    When ``backend`` is given, entries recorded under a *different* engine
    backend are excluded too: a pure-backend wall time is not a baseline
    for an accel run.  Entries predating the tag ran before the compiled
    core existed and count as ``"pure"``.
    """
    usable = [h for h in history if not h.get("quick")]
    if backend is not None:
        usable = [h for h in usable if h.get("backend", "pure") == backend]
    return usable


def check_regression(
    doc: Dict, history: Optional[List[Dict]] = None, pct: float = 25.0
) -> List[str]:
    """Gate a fresh bench document against the recorded cross-PR history.

    Compares the ``harness`` cell's summary — throughput
    (``events_per_sec``, lower is worse) and pool dispatch overhead
    (``dispatch_overhead_per_run_ms``, higher is worse) — against the most
    recent usable baseline entry: a full (non-``--quick``) run recorded
    under the same engine backend (:func:`baseline_history`) whose summary
    carries a ``harness`` section.  A metric regresses when it is more
    than ``pct`` percent worse than the baseline.  Overhead baselines
    under 1 ms/run are not gated — at that magnitude the comparison is
    scheduler noise, not dispatch cost.  Returns human-readable
    regression descriptions; an empty list means pass (including when no
    usable baseline exists yet — a fresh gate has nothing to compare).
    """
    if history is None:
        history = doc.get("history", [])
    usable = baseline_history(history, backend=doc.get("backend"))
    baseline: Optional[Dict] = None
    for entry in reversed(usable):
        harness = (entry.get("summary") or {}).get("harness") or {}
        if harness:
            baseline = harness
            break
    if baseline is None:
        return []
    current = (doc.get("summary") or {}).get("harness") or {}
    problems: List[str] = []
    for app, base_m in baseline.items():
        cur_m = current.get(app)
        if not isinstance(base_m, dict) or not isinstance(cur_m, dict):
            continue
        b_eps = base_m.get("events_per_sec")
        c_eps = cur_m.get("events_per_sec")
        if b_eps and c_eps and c_eps < b_eps * (1.0 - pct / 100.0):
            problems.append(
                f"{app}/harness events_per_sec {c_eps:,} is more than "
                f"{pct:g}% below the baseline {b_eps:,}"
            )
        b_ov = base_m.get("dispatch_overhead_per_run_ms")
        c_ov = cur_m.get("dispatch_overhead_per_run_ms")
        if (
            b_ov is not None and c_ov is not None and b_ov >= 1.0
            and c_ov > b_ov * (1.0 + pct / 100.0)
        ):
            problems.append(
                f"{app}/harness dispatch_overhead_per_run_ms {c_ov:g} is "
                f"more than {pct:g}% above the baseline {b_ov:g}"
            )
    return problems


def write_bench(doc: Dict, path: str) -> None:
    """Write the document, carrying forward any recorded ``history``.

    ``history`` is the cross-PR perf trajectory: a list of hand-promoted
    summary entries (see EXPERIMENTS.md).  A fresh bench run must never
    erase it, so the writer merges the existing file's history in.  A
    missing prior file is the normal first run; a corrupt or unreadable
    one is tolerated with a warning (the bench starts a fresh history
    rather than raising away a finished measurement).
    """
    history: List = []
    if os.path.exists(path):
        try:
            with open(path) as f:
                prev = json.load(f)
            history = prev.get("history", [])
            if not isinstance(history, list):
                raise ValueError(f"history is {type(history).__name__}, not a list")
        except (OSError, ValueError) as exc:
            history = []
            warnings.warn(
                f"prior bench history at {path} is unreadable "
                f"({type(exc).__name__}: {exc}); starting a fresh history",
                stacklevel=2,
            )
    doc = dict(doc, history=history + list(doc.get("history", [])))
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
