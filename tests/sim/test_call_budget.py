"""Host-cost budget of the workload layer, counted rather than timed.

A wall-clock bound depends on the machine; the number of Python-level
calls the simulator makes per engine event does not.  This test runs a
small profiled sqlite program on the pure backend under ``sys.setprofile``
and counts every call into code under ``src/repro`` (generator resumes
included), per engine event.

Reference counts for this program (identical on CPython 3.10–3.13): 12.95
calls per event while app models rebuilt their ops every loop iteration
and routed them through per-op helper generators; 5.98 once they build
constant ops once and yield them from flat loops.  The budget leaves room
for ordinary engine changes but fails if the per-op tax comes back.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import repro
from repro.apps import registry
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.sim.clock import MS

CALLS_PER_EVENT_BUDGET = 8.0

_ROOT = os.path.dirname(repro.__file__)


def calls_per_event(spec, seed=1):
    program = spec.build(seed)
    config = replace(program.config, backend="pure")
    hook = CausalProfiler(
        CozConfig(scope=spec.scope, experiment_duration_ns=MS(10), seed=seed),
        spec.progress_points,
    )
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_ROOT):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = program.run(hook=hook, config=config)
    finally:
        sys.setprofile(previous)
    return calls / result.events_processed


def test_sqlite_calls_per_event_within_budget():
    spec = registry.build("sqlite", threads=4, inserts_per_thread=150)
    ratio = calls_per_event(spec)
    assert ratio <= CALLS_PER_EVENT_BUDGET, (
        f"{ratio:.2f} Python calls per engine event on sqlite "
        f"(budget {CALLS_PER_EVENT_BUDGET})"
    )
