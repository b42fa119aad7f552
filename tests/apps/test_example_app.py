"""The Figure 1/2 example program."""

import pytest

from repro.apps import registry
from repro.apps.example import (
    A_NS,
    B_NS,
    LINE_A,
    LINE_B,
    build_example,
    expected_profile_point,
    optimal_speedup_fraction,
)


def test_round_time_is_critical_path():
    spec = build_example(rounds=20)
    r = spec.build(0).run()
    per_round = r.runtime_ns / 20
    assert per_round == pytest.approx(max(A_NS, B_NS), rel=0.02)
    assert r.progress("round") == 20


def test_ground_truth_helpers():
    assert optimal_speedup_fraction() == pytest.approx(0.0448, abs=0.001)
    assert expected_profile_point(0) == 0.0
    assert expected_profile_point(2) == pytest.approx(0.02, abs=0.002)
    assert expected_profile_point(100) == optimal_speedup_fraction()


def test_line_speedups_change_real_runtime():
    base = build_example(rounds=20).build(0).run().runtime_ns
    # eliminating a(): b becomes the critical path
    opt_a = registry.build("example", rounds=20, line_speedups={LINE_A: 0.0})
    opt_a = opt_a.build(0).run().runtime_ns
    assert (base - opt_a) / base == pytest.approx(optimal_speedup_fraction(), abs=0.01)
    # eliminating b(): no effect
    opt_b = registry.build("example", rounds=20, line_speedups={LINE_B: 0.0})
    opt_b = opt_b.build(0).run().runtime_ns
    assert (base - opt_b) / base == pytest.approx(0.0, abs=0.01)


def test_spec_metadata():
    spec = build_example()
    assert spec.primary_progress == "round"
    assert spec.scope.contains(LINE_A)
    assert not spec.scope.contains(__import__("repro.sim.source", fromlist=["line"]).line("other.c:1"))
