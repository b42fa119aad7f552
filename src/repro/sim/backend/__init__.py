"""Engine execution backends: pure-Python reference and optional compiled core.

The engine's event loop — the per-op-class dispatch inner loop and the
heap-event hot path — has two interchangeable implementations:

* :mod:`repro.sim.backend.pure` — the reference loop, plain Python.  Always
  available, always the semantic ground truth.
* :mod:`repro.sim.backend.accel` — a thin eligibility wrapper around the
  ahead-of-time compiled ``repro.sim.backend._core`` CPython extension
  (built by ``python setup.py build_ext --inplace`` or a
  ``pip install 'repro[accel]'`` with a C toolchain present).  Runs whose
  configuration the compiled core does not cover fall back to the pure loop
  mid-flight; either way every observable result is bit-identical
  (``tests/sim/test_golden_trace.py`` is the referee, ``repro doctor``'s
  ``backend-identity`` invariant re-checks full sessions).

Selection happens at engine construction: ``SimConfig.backend`` if set,
else the ``REPRO_ENGINE_BACKEND`` environment variable (``pure`` or
``accel``), else ``accel`` whenever the compiled core imports.  Requesting
``accel`` without the extension built is an error only via the env var /
config (an explicit ask); automatic selection silently uses ``pure``.
"""

from __future__ import annotations

import os
from typing import Optional

BACKEND_ENV = "REPRO_ENGINE_BACKEND"

_accel_module = None
_accel_checked = False


def accel_module():
    """The compiled core module, or ``None`` when it is not built."""
    global _accel_module, _accel_checked
    if not _accel_checked:
        _accel_checked = True
        try:
            from repro.sim.backend import _core  # type: ignore[attr-defined]
        except ImportError:
            _core = None
        _accel_module = _core
    return _accel_module


def accel_available() -> bool:
    return accel_module() is not None


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to ``'pure'`` or ``'accel'``.

    ``name`` (from ``SimConfig.backend``) wins over the environment; both
    must name a known backend.  An explicit ``accel`` request fails loudly
    when the extension is missing — silent degradation is reserved for the
    availability default, so a benchmark run can never *think* it measured
    the compiled core.
    """
    requested = name or os.environ.get(BACKEND_ENV, "").strip().lower() or None
    if requested is None:
        return "accel" if accel_available() else "pure"
    if requested not in ("pure", "accel"):
        raise ValueError(
            f"unknown engine backend {requested!r} (expected 'pure' or 'accel')"
        )
    if requested == "accel" and not accel_available():
        raise RuntimeError(
            "engine backend 'accel' was requested but the compiled core is "
            "not built; run `python setup.py build_ext --inplace` (or "
            "`pip install 'repro[accel]'`), or use REPRO_ENGINE_BACKEND=pure"
        )
    return requested


def event_loop_for(backend: str):
    """The event-loop callable (taking the engine) for a resolved backend."""
    if backend == "accel":
        from repro.sim.backend import accel

        return accel.event_loop
    from repro.sim.backend import pure

    return pure.event_loop
