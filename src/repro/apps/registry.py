"""First-class application registry: the bundled apps, addressable by name.

Historically the CLI kept a private ``name -> (builder, has_optimized)``
tuple table.  The registry promotes that table to a public API with three
jobs:

* **discovery** — :func:`names` / :func:`entries` enumerate every bundled
  app (and any third-party app that called :func:`register`);
* **construction** — :func:`build` produces a fresh
  :class:`~repro.apps.spec.AppSpec` from a name, an ``optimized`` flag, and
  builder keyword arguments;
* **provenance** — every spec built here is stamped with a picklable
  :class:`AppRef` so *worker processes can rebuild the app by name*.  App
  specs carry closures (their ``build`` factories) which do not pickle; an
  ``AppRef`` is just ``(name, optimized, kwargs)`` and crosses process
  boundaries freely.  This is what makes the parallel profiling executor
  (:mod:`repro.harness.parallel`) possible.

Third-party apps register themselves with::

    from repro.apps import registry

    def build_myapp(optimized=False, **knobs) -> AppSpec: ...

    registry.register("myapp", build_myapp, has_optimized=True)

Builders registered as module-level callables work with any multiprocessing
start method; lambdas/closures still work under ``fork`` (the default on
Linux) because workers inherit the registry state.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.spec import AppSpec
from repro.sim.engine import normalize_line_speedups


class UnknownAppError(KeyError):
    """Raised when a name is not in the registry."""

    def __init__(self, name: str, available: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        return f"unknown app {self.name!r}; available: {', '.join(self.available)}"


@dataclass(frozen=True)
class AppEntry:
    """One registered application."""

    name: str
    builder: Callable[..., AppSpec]
    has_optimized: bool = False
    description: str = ""


@dataclass(frozen=True)
class AppRef:
    """A picklable reference to a registry-buildable app.

    ``kwargs`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    ref is hashable; values must themselves be picklable for the ref to
    cross process boundaries (all bundled-app knobs are).
    """

    name: str
    optimized: bool = False
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> AppSpec:
        """Rebuild the referenced spec (used on the worker side)."""
        return build(self.name, optimized=self.optimized, **dict(self.kwargs))


_REGISTRY: Dict[str, AppEntry] = {}

#: process-global memo of built specs, keyed by :class:`AppRef`.  Specs are
#: stateless recipes (closure factories + metadata), so one instance can
#: serve every run of a session — this is what lets a warm pool worker skip
#: the per-task rebuild.  Invalidated whenever the name is re-registered.
_SPEC_CACHE: Dict[AppRef, AppSpec] = {}
_SPEC_CACHE_CAP = 64


def cached_build(ref: AppRef) -> AppSpec:
    """Build ``ref`` once per process and memoize the spec.

    Used by hot paths that construct the same app for every run (pool
    workers, the serial executor).  Callers must treat the returned spec as
    shared and immutable; anyone who mutates specs should call
    :meth:`AppRef.build` for a private instance instead.
    """
    try:
        spec = _SPEC_CACHE.get(ref)
    except TypeError:  # unhashable kwarg values: memoization cannot apply
        return ref.build()
    if spec is None:
        spec = ref.build()
        while len(_SPEC_CACHE) >= _SPEC_CACHE_CAP:
            _SPEC_CACHE.pop(next(iter(_SPEC_CACHE)))
        _SPEC_CACHE[ref] = spec
    return spec


def _invalidate_specs(name: str) -> None:
    for ref in [r for r in _SPEC_CACHE if r.name == name]:
        del _SPEC_CACHE[ref]


def clear_spec_cache() -> None:
    """Drop every memoized spec (tests)."""
    _SPEC_CACHE.clear()


def register(
    name: str,
    builder: Callable[..., AppSpec],
    has_optimized: bool = False,
    description: str = "",
    replace: bool = False,
) -> AppEntry:
    """Register an app builder under ``name``.

    ``builder()`` must return a fresh :class:`AppSpec`; when
    ``has_optimized`` it must also accept ``optimized=True``.  Registering
    an existing name raises unless ``replace=True``.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"app {name!r} is already registered (use replace=True)")
    entry = AppEntry(
        name=name, builder=builder, has_optimized=has_optimized,
        description=description,
    )
    _REGISTRY[name] = entry
    _invalidate_specs(name)
    return entry


def unregister(name: str) -> None:
    """Remove an app from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)
    _invalidate_specs(name)


def get(name: str) -> AppEntry:
    """Look up one entry, raising :class:`UnknownAppError` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAppError(name, names()) from None


def names() -> List[str]:
    """Sorted names of every registered app."""
    return sorted(_REGISTRY)


def entries() -> List[AppEntry]:
    """Every registered entry, sorted by name."""
    return [_REGISTRY[n] for n in names()]


def build(name: str, optimized: bool = False, **kwargs: Any) -> AppSpec:
    """Build a fresh spec by name, stamped with its :class:`AppRef`.

    ``kwargs`` are forwarded to the registered builder (e.g.
    ``build("ferret", n_queries=300)``).  ``optimized=True`` selects the
    app's post-optimization variant and raises :class:`ValueError` for apps
    without one.

    ``line_speedups={line: factor}`` works for every app: it is validated,
    set as ``SimConfig.line_speedups`` on each program the spec builds, and
    kept in the ref as sorted pairs for worker rebuilds and fingerprints.
    """
    entry = get(name)
    if optimized and not entry.has_optimized:
        raise ValueError(f"{name} has no optimized variant")
    speedups = normalize_line_speedups(kwargs.pop("line_speedups", None))
    spec = entry.builder(optimized=True, **kwargs) if optimized else entry.builder(**kwargs)
    if speedups:
        spec.build = partial(_build_with_speedups, spec.build, speedups)
        kwargs["line_speedups"] = speedups
    spec.registry_ref = AppRef(
        name=name, optimized=optimized, kwargs=tuple(sorted(kwargs.items())),
    )
    return spec


def _build_with_speedups(build, speedups, seed: int = 0):
    program = build(seed)
    program.config = replace(program.config, line_speedups=speedups)
    return program


# -- bundled apps ------------------------------------------------------------------

@dataclass(frozen=True)
class _Bundled:
    """A bundled app's builder, imported from its module on first call, so
    building one app never loads the others."""

    module: str
    name: str

    def __call__(self, *args: Any, **kwargs: Any) -> AppSpec:
        module = importlib.import_module(f"repro.apps.{self.module}")
        return getattr(module, self.name)(*args, **kwargs)


def _dedup_builder(optimized: bool = False, **kwargs: Any) -> AppSpec:
    from repro.apps.dedup import build_dedup

    return build_dedup("xor" if optimized else "original", **kwargs)


def _ferret_builder(optimized: bool = False, **kwargs: Any) -> AppSpec:
    from repro.apps.ferret import OPTIMIZED_THREADS, build_ferret

    kwargs.setdefault("threads", OPTIMIZED_THREADS if optimized else (8, 8, 8, 8))
    return build_ferret(**kwargs)


def _register_builtin() -> None:
    # Table 4's app names live in its table; that module is the one bundled
    # app loaded eagerly
    from repro.apps.parsec_misc import TABLE4, build_parsec_app

    register("example", _Bundled("example", "build_example"),
             description="Figure 1 two-thread example")
    register("dedup", _dedup_builder, has_optimized=True,
             description="dedup pipeline (§4.2.1)")
    register("ferret", _ferret_builder, has_optimized=True,
             description="ferret image-search pipeline (§4.2.2)")
    register("sqlite", _Bundled("sqlite", "build_sqlite"), has_optimized=True,
             description="SQLite indirect-call hotspot (§4.2.3)")
    register("memcached", _Bundled("memcached", "build_memcached"), has_optimized=True,
             description="Memcached CAS contention (§4.2.4)")
    register("fluidanimate", _Bundled("fluidanimate", "build_fluidanimate"),
             has_optimized=True, description="fluidanimate custom barrier (§4.2.5)")
    register("streamcluster", _Bundled("streamcluster", "build_streamcluster"),
             has_optimized=True, description="streamcluster barrier (§4.2.5)")
    register("blackscholes", _Bundled("blackscholes", "build_blackscholes"),
             has_optimized=True, description="blackscholes unrolled math (§4.2.6)")
    register("swaptions", _Bundled("swaptions", "build_swaptions"), has_optimized=True,
             description="swaptions HJM kernel (§4.2.7)")
    for entry in TABLE4:
        register(entry.name, partial(build_parsec_app, entry.name),
                 description="Table 4 PARSEC model")


_register_builtin()
