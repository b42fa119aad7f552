"""Simulated applications: the paper's evaluation workloads.

Every app module exposes a builder returning an :class:`AppSpec`; the spec
carries a fresh-:class:`~repro.sim.program.Program` factory plus the
progress points and scope used in the paper's case study.  Builders accept
an ``optimized`` flag (and app-specific knobs) to produce the paper's
post-optimization variants.  Actually speeding specific lines up (the §4.3
accuracy methodology) is not the builders' job: ``build(name,
line_speedups={line: factor})`` sets ``SimConfig.line_speedups`` on every
program the spec builds, and the engine scales those lines' costs.

All bundled apps are addressable by name through :mod:`repro.apps.registry`
(re-exported here): ``build("ferret", optimized=True)`` returns a fresh
spec stamped with a picklable :class:`AppRef`, which is what lets the
parallel profiling executor rebuild apps inside worker processes.
"""

from repro.apps import registry
from repro.apps.registry import (
    AppEntry,
    AppRef,
    UnknownAppError,
    build,
    entries,
    get,
    names,
    register,
    unregister,
)
from repro.apps.spec import AppSpec

__all__ = [
    "AppSpec",
    "AppEntry",
    "AppRef",
    "UnknownAppError",
    "registry",
    "register",
    "unregister",
    "get",
    "build",
    "names",
    "entries",
]
