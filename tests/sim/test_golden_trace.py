"""Golden-trace equivalence matrix (engine bit-identity referee).

The ``GOLDEN`` hashes below were first recorded on the pre-optimization
engine (quantum-chunked inner loop, PR 2 state plus the tid/sampler-rounding
bug fixes that land in the same PR as the coalescing overhaul) and
re-recorded when the ``ProfileData`` wire format gained the interned line
table (version 2) — a serialization-only change: the engine traces were
verified bit-identical against the version-1 hashes immediately before the
wire flip, so trace identity still chains back to the original recording.
Every cell runs
an app x config combination — serial/parallel sessions, sampling on/off,
sample-phase jitter on/off, nanosleep jitter on/off, interference on/off,
sample loss/duplication on/off —
and fingerprints everything observable about the execution:

* the merged :class:`~repro.core.profile_data.ProfileData` wire bytes
  (``to_json``) for profile-session cells, and
* a :class:`~repro.sim.trace.TraceHasher` digest (thread lifecycle, every
  sample with its interpolated timestamp and callchain, progress visits,
  per-line CPU totals, run aggregates) plus the profiler's wire bytes for
  program-level cells.

The optimized engine must reproduce every hash **in both chunking modes**
(``coalesce=True`` and the legacy quantum path), proving the hot-path
overhaul is bit-identical to the engine it replaced.

Re-record (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/sim/test_golden_trace.py --capture
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.apps import registry
from repro.apps.example import build_example
from repro.apps.streamcluster import build_streamcluster
from repro.core.config import CozConfig
from repro.core.profiler import CausalProfiler
from repro.harness.request import ExecutionConfig
from repro.harness.runner import ProfileRequest, run_profile_session
from repro.sim.clock import MS
from repro.sim.faults import FaultPlan
from repro.sim.trace import TraceHasher


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _apply_mode(config, coalesce):
    """Force a chunking mode on a SimConfig, if the engine supports it."""
    if coalesce is None or not hasattr(config, "coalesce"):
        return config
    return replace(config, coalesce=coalesce)


def _session_cell(spec_args, runs=2, jobs=1):
    def run(coalesce=None):
        spec = registry.build(*spec_args[:1], **spec_args[1])
        if coalesce is not None:
            # session cells run through app-built SimConfigs; skip forcing
            # legacy mode here (program-level cells cover both modes)
            pass
        out = run_profile_session(
            spec,
            ProfileRequest(runs=runs, execution=ExecutionConfig(jobs=jobs)),
        )
        return _sha(out.data.to_json())

    return run


def _program_cell(build_spec, seed, coz_kwargs=None, sim_override=None,
                  record_samples=True, extra_observers=None):
    def run(coalesce=None):
        spec = build_spec()
        program = spec.build(seed)
        config = program.config
        if sim_override:
            config = replace(config, **sim_override)
        config = _apply_mode(config, coalesce)
        cfg = CozConfig(
            scope=spec.scope, experiment_duration_ns=MS(10), seed=seed,
            **(coz_kwargs or {}),
        )
        prof = CausalProfiler(cfg, spec.progress_points)
        hasher = TraceHasher(record_samples=record_samples)
        observers = [hasher] + (extra_observers() if extra_observers else [])
        result = program.run(hook=prof, observers=observers, config=config)
        return _sha(
            prof.data.to_json()
            + f"|{hasher.hexdigest()}|{result.runtime_ns}|{result.cpu_ns}"
            + f"|{result.delay_ns}|{result.sample_count}"
        )

    return run


CELLS = {
    "example_session": _session_cell(("example", {"rounds": 40})),
    "sqlite_session": _session_cell(
        ("sqlite", {"threads": 4, "inserts_per_thread": 150})
    ),
    "ferret_session": _session_cell(("ferret", {"n_queries": 80})),
    "example_jitter": _program_cell(
        lambda: build_example(rounds=40), seed=5
    ),
    "example_nojitter": _program_cell(
        lambda: build_example(rounds=40), seed=5,
        sim_override={"sample_phase_jitter": False},
    ),
    "example_cozjitter": _program_cell(
        lambda: build_example(rounds=40), seed=5,
        coz_kwargs={"nanosleep_jitter_ns": 400},
    ),
    "example_nosampling": _program_cell(
        lambda: build_example(rounds=40), seed=5,
        coz_kwargs={"enable_sampling": False}, record_samples=False,
    ),
    # lossy ring buffer: every delivered batch passes through
    # FaultInjector.perturb_batch, so the profiler and the hasher see
    # dropped and duplicated samples re-wrapped as a literal segment
    "example_chaos": _program_cell(
        lambda: build_example(rounds=40), seed=5,
        sim_override={"faults": FaultPlan(seed=1, sample_loss=0.5, sample_dup=0.5)},
    ),
    "streamcluster_interference": _program_cell(
        lambda: build_streamcluster(n_threads=4, n_phases=40), seed=7
    ),
    "streamcluster_nointerference": _program_cell(
        lambda: build_streamcluster(
            n_threads=4, n_phases=40, interference_coeff=0.0
        ),
        seed=7,
    ),
}

# Trace identity chains to the pre-optimization engine; bytes re-recorded
# for wire format v2 (interned line table) — see module doc.
GOLDEN = {
    "example_chaos": "b6b4ab079a64cb3ac4f51a7fa4df5eb96ccd0ca8f3054480b0797b4a2b240abd",
    "example_cozjitter": "39dfbd00a904be109ecf8823ec9a47a3b2b505d05c46a808b1458f6a8fe9e92d",
    "example_jitter": "8e0552a088f1d57e532dae8dc25ebfa54ad1759580910c3470e058ed27f9a63c",
    "example_nojitter": "00a81d641a380220c227519bb5eceb7f3637a004f548f96adedf9e924231ab32",
    "example_nosampling": "c809a2f8891175a002ffbf431a074b99bb95c8458beb61e8524619099ca678fa",
    "example_session": "fe87d61875f284ee7597737248cfcd4d9335a30646cb6ec8b5c9e086128455ef",
    "ferret_session": "9aa134f090497f01d53174cd808384a3ff0dd30c9fe1c3ea2f78098afb017a2b",
    "sqlite_session": "2caa2afdec70bc9eca636ff7040ef52619106181c44800cb40881e932f438584",
    "streamcluster_interference": "a22cada3ee8bd315b961582fdbe45b792f5282254baf201f07c8b089203e670f",
    "streamcluster_nointerference": "1c8f03fcba89987620ad428ef2e9c81c3783f6511cd04bcf1a73d8d082d31af8",
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_trace_coalesced(cell):
    """The optimized (coalescing) engine reproduces the recorded hashes."""
    assert CELLS[cell]() == GOLDEN[cell], (
        f"{cell}: optimized engine diverged from the pre-optimization trace"
    )


_PROGRAM_CELLS = [c for c in sorted(CELLS) if not c.endswith("_session")]


@pytest.mark.parametrize("cell", _PROGRAM_CELLS)
def test_golden_trace_legacy_mode(cell):
    """The retained legacy quantum path also reproduces the hashes."""
    assert CELLS[cell](coalesce=False) == GOLDEN[cell], (
        f"{cell}: legacy quantum path diverged from the recorded trace"
    )


def test_block_observers_do_not_perturb_golden_traces():
    """Observers on the block/unblock surface leave golden hashes unchanged.

    A profiled run with a GAPP observer (plus a plain block-counting
    observer) attached next to the trace hasher must reproduce the recorded
    hash exactly — the notification path is purely observational.
    """
    from repro.baselines.gapp import GappObserver
    from repro.sim.hooks import Observer

    class BlockCounter(Observer):
        def __init__(self):
            self.edges = 0

        def on_block(self, thread, obj):
            self.edges += 1

        def on_unblock(self, thread, waker, blocked_ns):
            pass

    extras = lambda: [GappObserver(), BlockCounter()]  # noqa: E731
    observed = {
        "example_jitter": _program_cell(
            lambda: build_example(rounds=40), seed=5, extra_observers=extras
        ),
        "streamcluster_interference": _program_cell(
            lambda: build_streamcluster(n_threads=4, n_phases=40), seed=7,
            extra_observers=extras,
        ),
    }
    for name, cell in observed.items():
        assert cell() == GOLDEN[name], (
            f"{name}: block observer perturbed the trace"
        )


def test_parallel_session_matches_serial():
    """Worker-process fan-out produces the same ProfileData wire bytes."""
    serial = CELLS["example_session"]()
    parallel = _session_cell(("example", {"rounds": 40}), jobs=2)()
    assert serial == parallel == GOLDEN["example_session"]


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        for name in sorted(CELLS):
            print(f'    "{name}": "{CELLS[name]()}",')
