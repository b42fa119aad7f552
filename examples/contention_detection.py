#!/usr/bin/env python3
"""Contention detection: reading a downward-sloping causal profile (§4.2.6).

The paper's second headline insight: a causal profile can slope *downward*
— virtually speeding a line up makes the program slower — which is a strong
signature of contention.  In memcached, Coz flagged the start of
``item_remove``: the striped item lock it takes collides with unrelated
items, so "optimizing" that code path just raises the collision rate, while
*removing* the lock (reference counts are atomic anyway) gives ~9%.

This script profiles the memcached model's refcount line, shows the
negative slope, applies the paper's fix, and confirms the speedup.

Run:  python examples/contention_detection.py
"""

from repro.apps import registry
from repro.apps.memcached import LINE_REFCOUNT, build_memcached
from repro.core.config import CozConfig
from repro.core.report import render_line_graph
from repro.harness.comparison import compare_builds
from repro.harness.runner import profile_app
from repro.sim.clock import MS


def main() -> None:
    spec = build_memcached(False, n_requests=50_000)
    cfg = CozConfig(
        scope=spec.scope,
        experiment_duration_ns=MS(5),
        fixed_line=LINE_REFCOUNT,
        speedup_schedule=[0, 15, 0, 35, 0, 60],
    )
    print("profiling memcached's item_remove refcount line "
          "(inside the striped item lock)...")
    out = profile_app(spec, runs=3, coz_config=cfg)
    lp = out.profile.get(LINE_REFCOUNT)

    print()
    print(render_line_graph(lp))
    verdict = "CONTENTION" if lp.is_contended() else "optimize"
    print(f"slope {lp.slope:+.2f} -> {verdict}")
    print(
        "\nThe profile slopes DOWN: making this line faster would increase\n"
        "pressure on the contended lock stripe and slow the server down.\n"
        "The right fix is not to optimize the line but to remove the lock:\n"
    )

    cmp_result = compare_builds(
        "memcached",
        registry.build("memcached", n_requests=8000),
        registry.build("memcached", optimized=True, n_requests=8000),
        runs=5,
    )
    print(f"lock removed (atomic refcount): {cmp_result.row()}")
    print("(the paper measured 9.39% ± 0.95% for the same change)")


if __name__ == "__main__":
    main()
