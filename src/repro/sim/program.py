"""Program wrapper: build an engine, run a main thread, collect results.

A :class:`Program` is the simulator's equivalent of an executable: a main
generator function plus metadata (name, a notional debug-info size used by
the startup-overhead model).  Each :meth:`run` builds a *fresh* engine and
main thread, so repeated runs are independent — the app-building convention
is that all shared state (mutexes, channels, tables) is created inside the
main body's closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.sim.engine import Engine, SimConfig
from repro.sim.hooks import Observer, ProfilerHook


@dataclass
class RunResult:
    """Aggregate outcome of one simulated execution."""

    #: total virtual wall-clock time
    runtime_ns: int
    #: total nominal CPU time across all threads (incl. profiler overhead)
    cpu_ns: int
    #: CPU time charged by the profiler (startup + sample processing)
    profiler_cpu_ns: int
    #: total profiler-inserted pause time across all threads
    delay_ns: int
    #: exact progress-point visits: source-level points, plus the
    #: breakpoint lines a profiler watched
    progress_counts: Dict[str, int]
    #: number of threads that ran
    thread_count: int
    #: total IP samples taken
    sample_count: int
    #: simulator events the engine processed (perf trajectory metric)
    events_processed: int = 0
    #: the engine, for tests and profilers that need post-run state
    engine: Engine = field(repr=False, default=None)

    def progress(self, name: str) -> int:
        """Visit count of one progress point (0 if never hit)."""
        return self.progress_counts.get(name, 0)


class Program:
    """A runnable simulated application."""

    def __init__(
        self,
        main: Callable,
        name: str = "program",
        config: Optional[SimConfig] = None,
        debug_size_kb: int = 256,
    ) -> None:
        self.main = main
        self.name = name
        self.config = config or SimConfig()
        #: notional size of debug information, drives Coz's startup cost model
        self.debug_size_kb = debug_size_kb

    def run(
        self,
        hook: Optional[ProfilerHook] = None,
        observers: Sequence[Observer] = (),
        config: Optional[SimConfig] = None,
        recorder=None,
    ) -> RunResult:
        """Execute the program once and return aggregate metrics.

        ``recorder`` (a :class:`repro.sim.snapshot.Recorder`) attaches
        checkpoint capture to the run; see :func:`resume` for the matching
        restore-side entry point.
        """
        engine = Engine(config or self.config)
        engine.program = self  # type: ignore[attr-defined] # for hooks needing metadata
        if hook is not None:
            engine.install(hook)
        for obs in observers:
            engine.add_observer(obs)
        if recorder is not None:
            recorder.attach(engine)
        engine.spawn(self.main, name="main")
        engine.run()
        return result_from_engine(engine)

    def resume(self, snapshot, hook=None, config=None) -> RunResult:
        """Finish a run from a checkpoint instead of from t=0.

        Bit-identical to :meth:`run` with the same hook/config by the
        argument in DESIGN.md §5f.  The program instance must be freshly
        built: the snapshot replay partially re-executes its generators,
        so a program whose closures already ran to completion cannot be
        resumed.
        """
        from repro.sim.snapshot import restore

        engine = restore(snapshot, self, hook=hook, config=config)
        engine.resume_run()
        return result_from_engine(engine)


def result_from_engine(engine: Engine) -> RunResult:
    """Aggregate metrics of a finished engine (cold or snapshot-resumed)."""
    profiler_cpu = sum(t.profiler_cpu_ns for t in engine.threads)
    return RunResult(
        runtime_ns=engine.now,
        cpu_ns=engine.total_cpu_ns,
        profiler_cpu_ns=profiler_cpu,
        delay_ns=engine.total_delay_ns,
        progress_counts=dict(engine.progress_counts),
        thread_count=len(engine.threads),
        sample_count=engine.sampler.total_samples,
        events_processed=engine.events_processed,
        engine=engine,
    )
