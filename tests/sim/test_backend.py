"""Engine backend selection and compiled-core bit-identity.

The compiled core (``repro.sim.backend._core``) is an optional extension;
everything here that needs it skips cleanly when it is not built, and the
selection plumbing (env vars, ``SimConfig`` pins, fail-loud explicit
requests) is tested either way.

The heart of the file re-runs representative golden-trace cells under every
available backend and demands the recorded hashes —
the same gate ``tests/sim/test_golden_trace.py`` pins for the default
configuration.  Session cells run observer-free, so the compiled loop
actually engages there; program cells attach a ``TraceHasher`` observer,
which makes the accel wrapper fall back to the pure loop mid-matrix —
deliberately exercising the per-run fallback.
"""

from __future__ import annotations

import importlib.util
import pathlib
from dataclasses import replace

import pytest

from repro.sim import backend as backend_mod
from repro.sim.backend import accel_available

# load the golden-trace module by path (tests/sim is not a package): its
# CELLS/GOLDEN are the single source of recorded hashes — no duplicates to
# drift when a re-record happens
_spec = importlib.util.spec_from_file_location(
    "golden_trace_cells", pathlib.Path(__file__).with_name("test_golden_trace.py")
)
_gt = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gt)

#: representative cells: two observer-free sessions (compiled loop engages)
#: and one observed program cell (compiled loop falls back per run)
MATRIX_CELLS = ("example_session", "ferret_session", "example_jitter")

BACKENDS = ["pure"] + (["accel"] if accel_available() else [])


@pytest.mark.parametrize("cell", MATRIX_CELLS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_hashes_hold_for_every_backend(monkeypatch, backend, cell):
    monkeypatch.setenv(backend_mod.BACKEND_ENV, backend)
    assert _gt.CELLS[cell]() == _gt.GOLDEN[cell], (
        f"{cell} diverged under backend={backend}"
    )


def _run_example(config_over, observers=None):
    """One observer-light example run; returns the engine it ran on."""
    from repro.apps import registry
    from repro.sim.engine import Engine

    engines = []
    orig_init = Engine.__init__

    def spy(self, *a, **k):
        orig_init(self, *a, **k)
        engines.append(self)

    spec = registry.build("example", rounds=10)
    program = spec.build(0)
    config = replace(program.config, **config_over)
    import unittest.mock as mock

    with mock.patch.object(Engine, "__init__", spy):
        program.run(config=config, observers=observers or [])
    assert engines, "program.run never built an engine"
    return engines[-1]


@pytest.mark.skipif(not accel_available(), reason="compiled core not built")
def test_accel_loops_proves_engagement_and_fallback():
    """``Engine.accel_loops`` counts real compiled loops, not the label.

    An observer-free run under ``backend='accel'`` must engage the compiled
    loop; attaching any passive observer must drop the same engine back to
    the pure loop (its notification fan-out lives in Python).
    """
    engaged = _run_example({"backend": "accel"})
    assert engaged.backend == "accel"
    assert engaged.accel_loops >= 1

    from repro.sim.trace import TraceHasher

    fellback = _run_example({"backend": "accel"}, observers=[TraceHasher()])
    assert fellback.backend == "accel"  # selected, but...
    assert fellback.accel_loops == 0    # ...never eligible with observers


def test_simconfig_backend_pin_beats_environment(monkeypatch):
    if accel_available():
        monkeypatch.setenv(backend_mod.BACKEND_ENV, "accel")
    engine = _run_example({"backend": "pure"})
    assert engine.backend == "pure"
    assert engine.accel_loops == 0


def test_explicit_accel_without_core_fails_loudly(monkeypatch):
    """A benchmark must never *think* it measured the compiled core."""
    # an env pin is also an explicit request and would raise below; clear
    # it so the automatic-selection half of the test sees the default path
    monkeypatch.delenv(backend_mod.BACKEND_ENV, raising=False)
    monkeypatch.setattr(backend_mod, "_accel_checked", True)
    monkeypatch.setattr(backend_mod, "_accel_module", None)
    with pytest.raises(RuntimeError, match="not built"):
        backend_mod.resolve_backend("accel")
    # automatic selection degrades silently instead
    assert backend_mod.resolve_backend(None) == "pure"


def test_unknown_backend_and_pipeline_names_are_rejected():
    with pytest.raises(ValueError):
        backend_mod.resolve_backend("fast")


def _checkpoint_bytes(name, backend):
    """Deepest checkpoint of one profiled run under ``backend``, as bytes,
    plus the number of loops the compiled core ran."""
    from repro.apps import registry
    from repro.core.config import CozConfig
    from repro.core.profiler import CausalProfiler
    from repro.sim.clock import MS
    from repro.sim.engine import Engine
    from repro.sim.snapshot import Recorder

    spec = registry.build(name)
    program = spec.build(1)
    engine = Engine(replace(program.config, backend=backend))
    engine.program = program
    engine.install(
        CausalProfiler(
            CozConfig(scope=spec.scope, experiment_duration_ns=MS(10), seed=1),
            spec.progress_points,
        )
    )
    recorder = Recorder()
    recorder.attach(engine)
    engine.spawn(program.main, name="main")
    engine.run()
    assert recorder.snapshots and not recorder.failed
    return recorder.snapshots[-1].to_bytes(), engine.accel_loops


@pytest.mark.skipif(not accel_available(), reason="compiled core not built")
@pytest.mark.parametrize("name", ["example", "ferret", "sqlite"])
def test_checkpoint_bytes_identical_across_backends(name):
    """Both backends write the same op log, so a checkpoint captured under
    the pure loop and one captured under the compiled core are the same
    bytes: id column, special entries, sync ids and every overlay."""
    pure_blob, pure_loops = _checkpoint_bytes(name, "pure")
    accel_blob, accel_loops = _checkpoint_bytes(name, "accel")
    assert pure_loops == 0 and accel_loops >= 1
    assert accel_blob == pure_blob, f"{name}: checkpoint differs across backends"
