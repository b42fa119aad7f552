"""Discrete-event execution simulator: the substrate for causal profiling.

This package models what the Linux kernel, perf_event, and pthreads provide
to the real Coz profiler:

* virtual threads (generator coroutines) scheduled on a fixed number of
  virtual cores with a nanosecond-resolution virtual clock
  (:mod:`repro.sim.engine`, :mod:`repro.sim.thread`);
* synchronization primitives whose blocking/waking edges are visible to a
  profiler hook (:mod:`repro.sim.sync`);
* per-thread CPU-time instruction-pointer sampling with batched processing
  (:mod:`repro.sim.sampler`);
* source-line attribution and scope filtering, the stand-in for DWARF debug
  information (:mod:`repro.sim.source`).

Programs are written as generator functions that yield operations from
:mod:`repro.sim.ops`; see :mod:`repro.apps` for full examples.
"""

from repro.sim.clock import MS, NS_PER_MS, NS_PER_SEC, NS_PER_US, SEC, US, fmt_ns
from repro.sim.engine import Engine, SimConfig
from repro.sim.errors import (
    DeadlockError,
    RunFaultedError,
    SimulationError,
    StuckLockError,
    SyncError,
    ThreadCrashFault,
    WorkerCrashError,
    WorkerHungError,
)
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.hooks import HookAction, Observer, ProfilerHook
from repro.sim.ops import (
    IO,
    POP_FRAME,
    BarrierWait,
    Broadcast,
    CondWait,
    Join,
    Lock,
    PopFrame,
    Progress,
    PushFrame,
    SemPost,
    SemWait,
    SetSpinning,
    Signal,
    Sleep,
    Spawn,
    TryLock,
    Unlock,
    Work,
    call,
    push_frame,
)
from repro.sim.program import Program, RunResult
from repro.sim.sampler import Sample, Sampler
from repro.sim.source import Scope, SourceLine, line
from repro.sim.sync import Barrier, Channel, CondVar, Mutex, Semaphore, SpinBarrier
from repro.sim.thread import ThreadState, VThread

__all__ = [
    "MS",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "SEC",
    "US",
    "fmt_ns",
    "Engine",
    "SimConfig",
    "DeadlockError",
    "FaultInjector",
    "FaultPlan",
    "RunFaultedError",
    "SimulationError",
    "StuckLockError",
    "SyncError",
    "ThreadCrashFault",
    "WorkerCrashError",
    "WorkerHungError",
    "HookAction",
    "Observer",
    "ProfilerHook",
    "IO",
    "POP_FRAME",
    "BarrierWait",
    "Broadcast",
    "CondWait",
    "Join",
    "Lock",
    "PopFrame",
    "Progress",
    "PushFrame",
    "SemPost",
    "SemWait",
    "SetSpinning",
    "Signal",
    "Sleep",
    "Spawn",
    "TryLock",
    "Unlock",
    "Work",
    "call",
    "push_frame",
    "Program",
    "RunResult",
    "Sample",
    "Sampler",
    "Scope",
    "SourceLine",
    "line",
    "Barrier",
    "Channel",
    "CondVar",
    "Mutex",
    "Semaphore",
    "SpinBarrier",
    "ThreadState",
    "VThread",
]
