"""§4.3: prediction accuracy — Coz's predicted speedups match realized ones.

Paper results:

* ferret: raising indexing threads 16 -> 22 speeds line 320 by 27%
  (1 - 16/22); Coz predicted +21.4%, observed +21.2%;
* dedup: the hash fix cuts the chain walk by ~96%; Coz predicted +9%,
  observed +8.95%.
"""

import pytest

from benchmarks.conftest import run_once
from repro.apps import registry
from repro.apps.dedup import LINE_HASH_LOOP, build_dedup
from repro.apps.ferret import (
    DEFAULT_THREADS,
    LINE_INDEX,
    OPTIMIZED_THREADS,
    build_ferret,
)
from repro.core.analysis import predict_program_speedup
from repro.core.config import CozConfig
from repro.harness.comparison import compare_builds
from repro.harness.runner import profile_app
from repro.sim.clock import MS


def test_accuracy_ferret_line_speedup(benchmark):
    """Predicted effect of speeding line 320 by 27.3% (the paper's 16 -> 22
    thread arithmetic: 1 - 16/22) vs the *realized* effect of actually
    speeding that line by the same amount.

    Scale note: in our half-scale pipeline the ranking stage sits closer to
    the indexing stage than in the paper's configuration, so a 27% line-320
    speedup caps at ~4-5% (rank becomes the bottleneck) rather than the
    paper's 21%; prediction and realization must still agree — that is the
    §4.3 accuracy claim.
    """
    line_speedup_pct = 100 * (1 - DEFAULT_THREADS[2] / OPTIMIZED_THREADS[2])

    def regen():
        spec = build_ferret(DEFAULT_THREADS, n_queries=1500)
        cfg = CozConfig(
            scope=spec.scope,
            experiment_duration_ns=MS(30),
            fixed_line=LINE_INDEX,
            speedup_schedule=[0, 15, 0, 30, 0, 45],
        )
        out = profile_app(spec, runs=10, coz_config=cfg)
        lp = out.profile.get(LINE_INDEX)
        predicted = predict_program_speedup(lp, line_speedup_pct)
        factor = 1.0 - line_speedup_pct / 100.0
        realized = compare_builds(
            "ferret-line",
            registry.build("ferret", threads=DEFAULT_THREADS, n_queries=800),
            registry.build(
                "ferret", threads=DEFAULT_THREADS, n_queries=800,
                line_speedups={LINE_INDEX: factor},
            ),
            runs=4,
        ).stats.speedup
        return predicted, realized

    predicted, realized = run_once(benchmark, regen)
    print()
    print(f"ferret line-320 speedup {line_speedup_pct:.1f}% -> "
          f"predicted {100*predicted:+.2f}%, realized {100*realized:+.2f}%"
          f"  (paper: predicted +21.4%, observed +21.2% at its scale)")

    assert predicted == pytest.approx(realized, abs=0.03)
    assert 0.0 < realized < 0.10


def test_accuracy_dedup_hash_fix(benchmark):
    """Predicted effect of a ~96% speedup of the chain-walk line vs the
    realized hash-function replacement."""

    def regen():
        spec = build_dedup("original", n_blocks=4000)
        cfg = CozConfig(
            scope=spec.scope,
            experiment_duration_ns=MS(25),
            fixed_line=LINE_HASH_LOOP,
            speedup_schedule=[0, 30, 0, 60, 0, 90],
        )
        out = profile_app(spec, runs=8, coz_config=cfg)
        lp = out.profile.get(LINE_HASH_LOOP)
        predicted = predict_program_speedup(lp, 96.0)
        realized = compare_builds(
            "dedup",
            registry.build("dedup", n_blocks=1500),
            registry.build("dedup", optimized=True, n_blocks=1500),
            runs=4,
        ).stats.speedup
        return predicted, realized

    predicted, realized = run_once(benchmark, regen)
    print()
    print(f"dedup hash-loop speedup 96% -> predicted {100*predicted:+.2f}%, "
          f"realized {100*realized:+.2f}%  (paper: predicted +9%, observed +8.95%)")

    assert realized == pytest.approx(0.09, abs=0.03)
    assert predicted == pytest.approx(realized, abs=0.05)
