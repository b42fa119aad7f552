"""Command-line interface: ``coz-sim`` (or ``python -m repro.cli``).

Subcommands:

* ``profile <app>`` — run a bundled app under the causal profiler and print
  the ranked profile (the simulator's ``coz run --- <program>``);
* ``compare <app>`` — Table 3 style before/after optimization comparison;
* ``overhead <app>`` — Figure 9 style overhead breakdown;
* ``diff`` — differential profiler report: run causal + gprof + perf + GAPP
  on each app and compare their rankings (:mod:`repro.harness.differential`);
* ``doctor <app>`` — run the delay-accounting invariant audit
  (:mod:`repro.core.audit`) and print a pass/fail table;
* ``serve`` — run the multi-tenant profiling daemon
  (:mod:`repro.harness.service`): a bounded worker pool over a Unix
  socket, with fingerprint dedup, per-tenant admission control, and
  restart recovery from its crash-safe queue journal;
* ``submit`` — submit a profiling job to a running daemon (duplicate
  submissions coalesce; completed ones are served from the result cache);
* ``status`` — the daemon's ``/healthz``-style status document;
* ``shutdown`` — ask a running daemon to stop;
* ``list`` — list the registered applications.

Apps are resolved through the public :mod:`repro.apps.registry`; the CLI is
a thin consumer, and third-party apps that call ``registry.register`` show
up in every subcommand.  ``profile``, ``compare``, and ``overhead`` accept
``--jobs N`` to fan independent runs out over worker processes (``0``, the
default, auto-sizes to ``min(runs, cpu count)``; ``1`` forces serial).
Parallel and serial sessions produce identical results.  The same three
subcommands accept ``--audit`` to run under the invariant audit; a failed
audit prints its report and exits nonzero.

``profile`` also accepts ``--planner static|adaptive`` and ``--budget N``:
the static planner reproduces the historical round-robin schedule
bit-identically, while the adaptive planner spends the run budget on
successive halving over candidate lines with variance-aware early
stopping, printing per-line spend/stop columns and its decision log.

Resilience flags (``profile`` and ``compare``): ``--journal PATH`` writes
a crash-safe session journal (one fsync'd record per completed run) and
``--resume PATH`` continues an interrupted session from one, merging
bit-identically to an uninterrupted run.  ``--chaos [INTENSITY]`` injects
the deterministic fault matrix (:mod:`repro.sim.faults`) — thread
crashes, stuck lock-holders, sample loss/duplication, jitter spikes,
worker kills/hangs — seeded by ``--chaos-seed``; sessions that lose runs
complete *degraded*, printing one failure record per lost run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

from repro.plan import PLANNERS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.spec import AppSpec

# Each command imports the layers it runs inside its own function, so that
# ``list`` and the service clients (``submit``, ``status``, ``shutdown``)
# start without the profiler, the executor, the statistics or numpy.


def _build(name: str, optimized: bool = False) -> AppSpec:
    from repro.apps import registry

    try:
        return registry.build(name, optimized=optimized)
    except registry.UnknownAppError as exc:
        raise SystemExit(str(exc))
    except ValueError as exc:  # e.g. no optimized variant
        raise SystemExit(str(exc))


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.apps import registry

    for entry in registry.entries():
        print(f"{entry.name:<15} {'(+ optimized variant)' if entry.has_optimized else ''}")
    return 0


def _finish_audit(report) -> int:
    """Render an audit outcome; nonzero when any invariant failed."""
    if report is None:
        return 0
    if report.passed:
        print(f"audit: PASS ({len(report.checks)} invariants)")
        return 0
    from repro.core.report import render_audit

    print(render_audit(report), end="")
    return 1


def _fault_plan(args: argparse.Namespace):
    """The ``--chaos`` preset, or None when chaos is off."""
    if args.chaos is None:
        return None
    from repro.sim.faults import FaultPlan

    return FaultPlan.chaos(seed=args.chaos_seed, intensity=args.chaos)


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.config import CozConfig
    from repro.core.report import (
        render_failures,
        render_line_graph,
        render_plan,
        render_profile,
        to_coz_format,
    )
    from repro.harness.request import ExecutionConfig, ResilienceConfig
    from repro.harness.runner import ProfileRequest, run_profile_session
    from repro.plan.base import PlanConfig
    from repro.sim.clock import MS

    spec = _build(args.app, optimized=args.optimized)
    cfg = CozConfig(
        scope=spec.scope,
        experiment_duration_ns=MS(args.experiment_ms),
        speedup_values=tuple(range(0, 101, args.speedup_step)),
        audit=args.audit,
    )
    request = ProfileRequest(
        runs=args.runs, coz_config=cfg,
        execution=ExecutionConfig(
            jobs=args.jobs,
            checkpoint=not args.no_checkpoint,
            checkpoint_dir=args.checkpoint_dir,
        ),
        resilience=ResilienceConfig(
            faults=_fault_plan(args), journal=args.journal, resume=args.resume,
        ),
        plan=PlanConfig(planner=args.planner, budget=args.budget),
    )
    outcome = run_profile_session(spec, request)
    ran = outcome.plan.runs_planned if outcome.plan else args.runs
    print(f"{outcome.experiment_count} experiments over {ran} runs")
    if outcome.degraded:
        print(render_failures(outcome.data))
    print(render_profile(outcome.profile, top=args.top, plan=outcome.plan))
    if args.planner != "static" and outcome.plan:
        print(render_plan(outcome.plan))
    if args.graphs:
        for lp in outcome.profile.ranked()[: args.graphs]:
            print(render_line_graph(lp))
    if args.coz_output:
        with open(args.coz_output, "w") as f:
            f.write(to_coz_format(outcome.data))
        print(f"raw profile written to {args.coz_output}")
    return _finish_audit(outcome.audit)


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.comparison import compare_builds

    audit_report = None
    if args.audit:
        from repro.core.audit import AuditReport

        audit_report = AuditReport()
    base = _build(args.app, optimized=False)
    opt = _build(args.app, optimized=True)
    try:
        cmp_result = compare_builds(
            args.app, base, opt, runs=args.runs, jobs=args.jobs,
            audit_report=audit_report, faults=_fault_plan(args),
            journal=args.journal, resume=args.resume,
        )
    except ValueError as exc:  # e.g. a fully-degraded chaos session
        raise SystemExit(str(exc))
    print(cmp_result.row())
    return _finish_audit(audit_report)


def cmd_overhead(args: argparse.Namespace) -> int:
    from repro.harness.overhead import measure_overhead

    audit_report = None
    if args.audit:
        from repro.core.audit import AuditReport

        audit_report = AuditReport()
    spec = _build(args.app)
    breakdown = measure_overhead(
        spec, runs=args.runs, jobs=args.jobs, audit_report=audit_report
    )
    print(breakdown.row())
    return _finish_audit(audit_report)


def _service_socket(args: argparse.Namespace) -> str:
    if getattr(args, "socket", None):
        return args.socket
    return os.path.join(args.state_dir, "daemon.sock")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.harness.service import ServiceConfig, ServiceDaemon, TenantPolicy

    policy = TenantPolicy(
        max_queue_depth=args.max_queue_depth,
        rate_per_s=args.rate,
        burst=args.burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        default_deadline_s=args.default_deadline_s,
    )
    config = ServiceConfig(
        state_dir=args.state_dir,
        workers=args.workers,
        policy=policy,
        session_jobs=args.session_jobs,
        socket_path=args.socket,
    )
    try:
        daemon = ServiceDaemon(config)
    except OSError as exc:  # no AF_UNIX on this platform
        raise SystemExit(str(exc))
    print(f"profiling daemon listening on {config.sock} "
          f"({args.workers} workers, state in {args.state_dir})")
    try:
        daemon.run_forever()
    except KeyboardInterrupt:
        print("daemon interrupted, state journaled — restart to recover",
              file=sys.stderr)
        return 130
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.harness.service import (
        JobSpec,
        ServiceClient,
        ServiceUnavailableError,
        WireError,
    )

    try:
        spec = JobSpec(
            tenant=args.tenant,
            app=args.app,
            runs=args.runs,
            base_seed=args.base_seed,
            experiment_ms=args.experiment_ms,
            speedup_step=args.speedup_step,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
            planner=args.planner,
            budget=args.budget,
            deadline_s=args.deadline_s,
        )
    except WireError as exc:
        raise SystemExit(str(exc))
    client = ServiceClient(_service_socket(args))
    try:
        response = client.submit(
            spec, wait_s=None if args.no_wait else args.timeout_s
        )
    except ServiceUnavailableError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(response, sort_keys=True, indent=2))
    if not response.get("ok"):
        if not args.json:
            print(f"shed: {response.get('message', response.get('error'))}")
        # sheds are load, not bugs: a distinct exit code lets scripts retry
        return 75 if response.get("error") == "ServiceOverloadError" else 1
    if args.json:
        return 0
    job_doc = response.get("job") or {}
    state = response.get("state") or job_doc.get("state")
    flags = [k for k in ("cached", "dedup") if response.get(k)]
    suffix = f" ({', '.join(flags)})" if flags else ""
    job_id = (response.get("job_id") or job_doc.get("job_id")
              or response.get("fingerprint", "?")[:16])
    print(f"job {job_id}: {state}{suffix}")
    result = response.get("result")
    if result:
        failures = result.get("failures", [])
        print(f"  {result['experiments']} experiments, "
              f"{len(failures)} failed runs"
              f"{', partial (deadline)' if result.get('partial') else ''}")
        for row in result.get("top", [])[:3]:
            print(f"  {row['line']:<24} slope {row['slope']:+.4f}")
    return 0


def cmd_service_status(args: argparse.Namespace) -> int:
    from repro.harness.service import ServiceClient, ServiceUnavailableError

    client = ServiceClient(_service_socket(args))
    try:
        doc = client.status()
    except ServiceUnavailableError as exc:
        raise SystemExit(str(exc))
    status = doc.get("status") or {}
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
    else:
        workers = status.get("workers", {})
        queue = status.get("queue", {})
        cache = status.get("cache", {})
        print(f"status {status.get('status')}  uptime {status.get('uptime_s')}s  "
              f"workers {workers.get('alive')}/{workers.get('configured')} "
              f"({workers.get('busy')} busy)")
        print(f"queue depth {queue.get('depth')} running {queue.get('running')} "
              f"latency avg {queue.get('latency_avg_s')}s "
              f"p95 {queue.get('latency_p95_s')}s")
        print(f"cache hit-rate {cache.get('hit_rate')} "
              f"({cache.get('result_hits')} hits / "
              f"{cache.get('result_misses')} misses, "
              f"{cache.get('dedup_coalesced')} coalesced)")
        for tenant, snap in (status.get("tenants") or {}).items():
            print(f"tenant {tenant:<12} breaker {snap['breaker']:<9} "
                  f"active {snap['active']} completed {snap['completed']} "
                  f"degraded {snap['degraded']} shed {snap['shed_total']}")
    return 0 if status.get("status") == "ok" else 1


def cmd_service_shutdown(args: argparse.Namespace) -> int:
    from repro.harness.service import ServiceClient, ServiceUnavailableError

    client = ServiceClient(_service_socket(args))
    try:
        client.shutdown()
    except ServiceUnavailableError as exc:
        raise SystemExit(str(exc))
    print("daemon stopping")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.apps import registry
    from repro.harness.differential import (
        DiffConfig,
        diff_to_json,
        render_diff,
        run_differential,
    )

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    if not apps:
        raise SystemExit("--apps: no application names given")
    config = DiffConfig(
        runs=args.runs,
        jobs=args.jobs,
        experiment_ms=args.experiment_ms,
        top_k=args.top,
        checkpoint=not args.no_checkpoint,
        quick=args.quick,
    )
    diffs = []
    for app in apps:
        try:
            diffs.append(run_differential(app, config))
        except registry.UnknownAppError as exc:
            raise SystemExit(str(exc))
    if args.output == "json":
        print(diff_to_json(diffs))
    else:
        print(render_diff(diffs, top=args.top), end="")
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.apps import registry
    from repro.core.audit import run_doctor
    from repro.core.report import render_audit

    try:
        report = run_doctor(args.app, runs=args.runs, jobs=args.jobs)
    except registry.UnknownAppError as exc:
        raise SystemExit(str(exc))
    print(render_audit(report), end="")
    return 0 if report.passed else 1


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = auto)")
    return jobs


def _count_arg(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _nonnegative_arg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _probability_arg(value: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError("must be a probability in [0, 1]")
    return p


def _experiment_ms_arg(value: str) -> float:
    from repro.sim.clock import MS

    ms = float(value)
    if not (math.isfinite(ms) and MS(ms) >= 1):
        raise argparse.ArgumentTypeError("must be a finite duration of at least 1 ns")
    return ms


def _speedup_step_arg(value: str) -> int:
    step = int(value)
    if not 1 <= step <= 100:
        raise argparse.ArgumentTypeError("must be between 1 and 100 (percent)")
    return step


def _add_jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=_jobs_arg, default=0, metavar="N",
        help="worker processes for independent runs "
             "(0 = auto: min(runs, cpu count); 1 = serial)",
    )


def _add_audit_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--audit", action="store_true",
        help="run under the delay-accounting invariant audit; "
             "exit nonzero if any invariant fails",
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--chaos", type=_probability_arg, nargs="?", const=0.25, default=None,
        metavar="INTENSITY",
        help="inject the deterministic fault matrix at this per-run "
             "probability (bare flag = 0.25); lost runs are reported, "
             "not fatal",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed for the fault-injection RNG stream (default 0)",
    )
    p.add_argument(
        "--journal", metavar="PATH",
        help="write a crash-safe session journal (one fsync'd JSONL "
             "record per completed run)",
    )
    p.add_argument(
        "--resume", metavar="PATH",
        help="resume an interrupted session from its journal; replays "
             "completed runs and executes only the rest",
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coz-sim",
        description="Causal profiling on a simulated machine (Coz reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered applications").set_defaults(fn=cmd_list)

    p = sub.add_parser("profile", help="causal-profile an app")
    p.add_argument("app")
    p.add_argument("--runs", type=_count_arg, default=8)
    p.add_argument("--experiment-ms", type=_experiment_ms_arg, default=50.0)
    p.add_argument("--speedup-step", type=_speedup_step_arg, default=20)
    p.add_argument("--top", type=_nonnegative_arg, default=10)
    p.add_argument("--graphs", type=_nonnegative_arg, default=0, help="render N ASCII graphs")
    p.add_argument("--optimized", action="store_true")
    p.add_argument("--coz-output", help="write raw experiments in Coz's file format")
    p.add_argument(
        "--no-checkpoint", action="store_true",
        help="disable checkpoint fast-forward (always simulate runs cold; "
             "results are bit-identical either way)",
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="on-disk checkpoint cache shared across sessions and workers; "
             "a cache built for a different configuration is invalidated "
             "with a warning, never silently reused",
    )
    p.add_argument(
        "--planner", choices=PLANNERS, default="static",
        help="experiment planner: 'static' reproduces the historical "
             "round-robin schedule bit-identically; 'adaptive' runs "
             "successive halving over candidate lines with variance-aware "
             "early stopping (default: static)",
    )
    p.add_argument(
        "--budget", type=_count_arg, default=None, metavar="N",
        help="planner run budget (default: --runs); the adaptive planner "
             "may stop early when every line converges",
    )
    _add_jobs_flag(p)
    _add_audit_flag(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("compare", help="before/after optimization (Table 3 row)")
    p.add_argument("app")
    p.add_argument("--runs", type=_count_arg, default=10)
    _add_jobs_flag(p)
    _add_audit_flag(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("overhead", help="overhead breakdown (Figure 9 bar)")
    p.add_argument("app")
    p.add_argument("--runs", type=_count_arg, default=3)
    _add_jobs_flag(p)
    _add_audit_flag(p)
    p.set_defaults(fn=cmd_overhead)

    def _add_socket_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--state-dir", default=".repro-service", metavar="DIR",
            help="daemon state directory (default: ./.repro-service)",
        )
        sp.add_argument(
            "--socket", metavar="PATH", default=None,
            help="socket path override (default: <state-dir>/daemon.sock)",
        )

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant profiling daemon (Unix socket)",
    )
    _add_socket_flags(p)
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads draining the job queue (default 2)")
    p.add_argument(
        "--session-jobs", type=_jobs_arg, default=1, metavar="N",
        help="executor worker processes per session (default 1 = in-process)",
    )
    p.add_argument("--max-queue-depth", type=int, default=8,
                   help="per-tenant queued+running job quota (default 8)")
    p.add_argument("--rate", type=float, default=20.0,
                   help="per-tenant submissions/second (default 20)")
    p.add_argument("--burst", type=int, default=40,
                   help="per-tenant rate-limit burst allowance (default 40)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive failed/degraded jobs that open a "
                        "tenant's circuit breaker (default 3)")
    p.add_argument("--breaker-cooldown-s", type=float, default=30.0,
                   help="seconds a breaker stays open before one half-open "
                        "probe is admitted (default 30)")
    p.add_argument("--default-deadline-s", type=float, default=None,
                   help="deadline applied to jobs without one (default none)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a profiling job to a running daemon"
    )
    p.add_argument("app")
    _add_socket_flags(p)
    p.add_argument("--tenant", default="default",
                   help="tenant the job is accounted under (default: default)")
    p.add_argument("--runs", type=_count_arg, default=8)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--experiment-ms", type=_experiment_ms_arg, default=50.0)
    p.add_argument("--speedup-step", type=_speedup_step_arg, default=20)
    p.add_argument("--planner", choices=PLANNERS, default="static")
    p.add_argument("--budget", type=_count_arg, default=None, metavar="N")
    p.add_argument("--deadline-s", type=float, default=None,
                   help="wall-clock budget; an expired job returns its "
                        "completed prefix (resumable by resubmitting)")
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and return immediately instead of waiting "
                        "for the result")
    p.add_argument("--timeout-s", type=float, default=120.0,
                   help="how long to wait for the result (default 120)")
    p.add_argument("--json", action="store_true",
                   help="print the daemon's raw JSON response")
    p.add_argument(
        "--chaos", type=_probability_arg, nargs="?", const=0.25, default=None,
        metavar="INTENSITY",
        help="inject the deterministic fault matrix at this per-run "
             "probability (bare flag = 0.25)",
    )
    p.add_argument("--chaos-seed", type=int, default=0, metavar="SEED")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "status", help="print a running daemon's health/status document"
    )
    _add_socket_flags(p)
    p.add_argument("--json", action="store_true",
                   help="print the raw status document")
    p.set_defaults(fn=cmd_service_status)

    p = sub.add_parser("shutdown", help="ask a running daemon to stop")
    _add_socket_flags(p)
    p.set_defaults(fn=cmd_service_shutdown)

    p = sub.add_parser(
        "diff",
        help="differential profiler report: causal vs gprof vs perf vs GAPP",
    )
    p.add_argument(
        "--apps", default="example",
        help="comma-separated application names (default: example)",
    )
    p.add_argument("--runs", type=_count_arg, default=6,
                   help="causal free-selection runs per app (default 6)")
    p.add_argument("--experiment-ms", type=_experiment_ms_arg, default=25.0)
    p.add_argument("--top", type=_nonnegative_arg, default=10,
                   help="rows per ranking and the k of top-k disagreement")
    p.add_argument(
        "--output", choices=("text", "json"), default="text",
        help="report format; json is the canonical sorted-keys document",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="shrink runs/experiments/workloads for CI smoke jobs",
    )
    p.add_argument(
        "--no-checkpoint", action="store_true",
        help="disable checkpoint fast-forward for the causal sessions",
    )
    _add_jobs_flag(p)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "doctor", help="audit the delay-accounting invariants on an app"
    )
    p.add_argument("app")
    p.add_argument("--runs", type=_count_arg, default=3)
    _add_jobs_flag(p)
    p.set_defaults(fn=cmd_doctor)

    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader went away (``... --json | head``): exit quietly, with
        # stdout on /dev/null so the interpreter's final flush cannot raise
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout is not a file descriptor (an in-process caller)
        return 1


if __name__ == "__main__":
    sys.exit(main())
