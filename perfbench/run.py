"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload cold-profile --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run that reports the per-layer ones
and writes a Chrome trace to ``.perfbench_out/``.  Human-readable lines
(environment labels, each metric with its unit and sample count, any
failed check) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn and ends with one JSON
object mapping each workload to its result line.

Exit status: 0 when a result was printed, 2 when the checkout cannot run
the benchmark (no ``src/repro``, unreadable ``BENCHMARK.json``) or the
workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if sys.path[0] == os.path.dirname(os.path.abspath(__file__)):
    sys.path[0] = ROOT
else:
    sys.path.insert(0, ROOT)

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    SetupError,
    env_labels,
    load_spec,
    use_checkout_sources,
)
from perfbench.speed import REF_PROBE_NS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(spec, outcome, trace: bool) -> dict:
    """The final JSON object: the declared metrics with their units."""
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": outcome.ledger.failed == 0,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def run_one(spec, workload: str, args: argparse.Namespace) -> dict:
    """Run one workload, print its human-readable block, save its result
    file (and trace), and return the result line."""
    from perfbench.workloads import WORKLOADS

    labels = dict(env_labels(), workload=workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    print("env: " + " ".join(f"{k}={v}" for k, v in labels.items()), flush=True)
    outcome = WORKLOADS[workload](args.seed, args.seconds, bool(args.trace))
    line = result_line(spec, outcome, bool(args.trace))
    counted = ", ".join(f"{v} {k}" for k, v in outcome.counts.items())
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} ({counted})")
    if outcome.speed is not None:
        kept, dropped, median_ns = outcome.speed
        print(f"host speed = {REF_PROBE_NS / median_ns:.4g} of reference "
              f"(median of {kept} probes, {dropped} dropped; "
              f"timings above are at reference speed)")
    for name, value in outcome.unscaled.items():
        print(f"unscaled {name} = {value:.6g} (wall time)")
    ledger = outcome.ledger
    print(f"failed_share = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    stem = f"{workload}-s{args.seed}-t{args.trace}"
    if outcome.tracer is not None:
        trace_path = os.path.join(OUT_DIR, f"trace-{stem}.json")
        outcome.tracer.write(trace_path, labels)
        shutil.rmtree(outcome.tracer.out_dir, ignore_errors=True)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(line, labels=labels, counts=outcome.counts,
                       speed_probes=outcome.speed, unscaled=outcome.unscaled),
                  fh, indent=2)
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        use_checkout_sources()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(names)} or all)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        print(json.dumps(run_one(spec, args.workload, args)), flush=True)
        return 0
    lines = {name: run_one(spec, name, args) for name in names}
    print(json.dumps(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
