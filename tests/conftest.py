"""Shared fixtures and small program builders for the test suite."""

from __future__ import annotations

import pytest

from repro.harness import wallclock
from repro.sim import MS, US, Program, SimConfig, Work, line

L1 = line("app.c:10")
L2 = line("app.c:20")
L3 = line("lib.c:5")


def single_thread_program(work_ns: int = MS(5), src=L1, config: SimConfig = None) -> Program:
    """One thread, one Work op."""

    def main(t):
        yield Work(src, work_ns)

    return Program(main, name="single", config=config or SimConfig())


@pytest.fixture
def fast_config() -> SimConfig:
    """A small-machine config used across engine tests."""
    return SimConfig(cores=2, quantum_ns=MS(1), sample_period_ns=US(100))


class FakeClock:
    """A wall clock that moves only when a test advances it."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def fake_clock(monkeypatch) -> FakeClock:
    """Drive every harness wall-clock reader (:mod:`repro.harness.wallclock`)."""
    clock = FakeClock()
    monkeypatch.setattr(wallclock, "now", clock)
    return clock
