"""Progress points: source, breakpoint, sampled; latency via Little's law."""

import pytest

from repro.core.config import CozConfig
from repro.core.experiment import ExperimentResult
from repro.core.profiler import CausalProfiler
from repro.core.progress import ProgressPoint
from repro.sim import MS, US, Program, Progress, Scope, SimConfig, Work, line

L = line("pp.c:5")


def test_point_validation():
    with pytest.raises(ValueError):
        ProgressPoint("x", kind="bogus")
    with pytest.raises(ValueError):
        ProgressPoint("x", kind="breakpoint")  # needs a line
    ProgressPoint("x", kind="breakpoint", line=L)  # ok


def _profile(main, points=()):
    """One profiled run of ``main`` with back-to-back 1 ms experiments on L."""
    prof = CausalProfiler(
        CozConfig(
            scope=Scope.all_main(),
            fixed_line=L,
            speedup_schedule=[0],
            experiment_duration_ns=MS(1),
            cooloff_ns=0,
        ),
        progress_points=points,
    )
    result = Program(main, config=SimConfig(sample_period_ns=US(50))).run(hook=prof)
    return prof, result


def test_source_visits_counted_even_unregistered():
    """Coz counts every COZ_PROGRESS, so apps can declare points lazily."""

    def main(t):
        for _ in range(3):
            yield Work(L, US(10))
            yield Progress("a")
            yield Progress("lazy")

    prof, result = _profile(main, [ProgressPoint("a")])
    assert result.progress_counts == {"a": 3, "lazy": 3}
    assert prof.sampled_counts == {}


def test_breakpoint_visits_by_line():
    """``watch_line(line, name)`` counts each Work that starts on ``line``."""

    def main(t):
        for _ in range(4):
            yield Work(L, US(10))
            yield Work(line("pp.c:999"), US(10))  # unwatched

    _, result = _profile(main, [ProgressPoint("bp", kind="breakpoint", line=L)])
    assert result.progress_counts == {"bp": 4}


def test_sampled_points_count_samples():
    """Sampled points count attributed samples, and only the profiler can."""
    other = line("pp.c:1")

    def main(t):
        for _ in range(50):
            yield Work(L, US(100))
            yield Work(other, US(100))

    prof, result = _profile(main, [ProgressPoint("sp", kind="sampled", line=L)])
    assert prof.sampled_counts["sp"] == prof.line_samples[L] > 0
    assert "sp" not in result.progress_counts


def test_delta_between_snapshots():
    """An experiment's visits are ``after - before`` per point, keyed in
    first-visit order (points first seen mid-experiment included)."""

    def main(t):
        for i in range(1000):
            yield Work(L, US(10))
            yield Progress("b")
            if i >= 500:
                yield Progress("a")

    prof, _ = _profile(main)
    exps = prof.data.experiments
    assert len(exps) >= 2
    for e in exps:
        assert list(e.visits) == list(e.counts_after)
        assert e.visits == {
            k: n - e.counts_before.get(k, 0) for k, n in e.counts_after.items()
        }
    assert list(exps[-1].counts_after) == ["b", "a"]
    assert any("a" in e.visits and "a" not in e.counts_before for e in exps)


def test_latency_via_littles_law():
    """W = L / lambda with L from begin/end count gaps."""
    e = ExperimentResult(
        line=L,
        speedup_pct=0,
        delay_ns=0,
        start_ns=0,
        end_ns=MS(100),
        delay_count=0,
        selected_samples=0,
        visits={"begin": 1000, "end": 1000},
        counts_before={"begin": 0, "end": 0},
        counts_after={"begin": 1000, "end": 996},
    )
    # arrival rate = 1000 visits / 100ms; average in-flight = (0+4)/2 = 2
    lam = 1000 / MS(100)
    assert e.in_flight("begin", "end") == 2.0
    assert e.latency_ns("begin", "end") == pytest.approx(2.0 / lam)


def test_latency_none_without_arrivals():
    e = ExperimentResult(
        line=L, speedup_pct=0, delay_ns=0, start_ns=0, end_ns=MS(1),
        delay_count=0, selected_samples=0, visits={},
    )
    assert e.latency_ns("begin", "end") is None
