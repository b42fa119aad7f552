"""Start-up gates: each process imports only the layers it runs.

Every check runs its code in a fresh interpreter and reads back the names
in ``sys.modules``, a count that does not depend on the machine.  The
package roots resolve their re-exports on first attribute access
(:mod:`repro._lazy`); the API tests below pin that every public name still
resolves, lists and star-imports as it did when the roots imported eagerly.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

from repro.apps import registry

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: what building or running an app never needs
HEAVY = ("numpy", "scipy", "multiprocessing", "concurrent.futures", "statistics", "socket")

LAZY_ROOTS = (
    "repro",
    "repro.core",
    "repro.harness",
    "repro.harness.service",
    "repro.plan",
    "repro.stats",
)


def loaded_after(code: str) -> set:
    """The module names a fresh interpreter holds after running ``code``."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("name", registry.names())
def test_building_an_app_loads_no_analysis_layer(name):
    mods = loaded_after(
        f"import repro\nfrom repro.apps import registry\nregistry.build({name!r})"
    )
    assert not mods & set(HEAVY)
    layers = ("repro.harness", "repro.plan", "repro.stats")
    assert not [m for m in mods if m.startswith(tuple(p + "." for p in layers))]


def test_building_an_app_loads_no_other_bundled_app():
    # Table 4's module holds the names the registry lists, so it loads
    # with the registry
    mods = loaded_after("from repro.apps import registry\nregistry.build('sqlite')")
    apps = {m for m in mods if m.startswith("repro.apps.")}
    assert apps == {
        "repro.apps.parsec_misc", "repro.apps.registry", "repro.apps.spec", "repro.apps.sqlite",
    }


def test_worker_run_loads_no_numpy(tmp_path):
    # what a spawn or forkserver pool worker does: import the executor,
    # then run one profiled registry task through the checkpoint store
    mods = loaded_after(
        "from repro.apps import registry\n"
        "from repro.core.config import CozConfig\n"
        "from repro.harness.checkpoint import CheckpointStore\n"
        "from repro.harness.parallel import RunTask, _run_task\n"
        "spec = registry.build('example')\n"
        "task = RunTask(index=0, seed=1, spec=spec, coz_config=CozConfig(scope=spec.scope),\n"
        f"               checkpoint=CheckpointStore('gate', {str(tmp_path)!r}))\n"
        "out = _run_task(task)\n"
        "assert out.failure is None and out.data_bin\n"
    )
    assert "repro.harness.parallel" in mods
    assert not mods & {"numpy"}


#: what a checkpoint lookup imports
CHECKPOINT_CODE = {
    "repro.harness.checkpoint", "repro.harness.journal", "repro.sim.snapshot", "repro.storage",
}

#: a picklable program factory that writes the modules of the pool worker
#: building it to ``<directory>/<pid>.json``
PROBE = """
import json, multiprocessing, os, sys
from repro.apps import registry

def build(directory, seed):
    if multiprocessing.parent_process() is not None:
        with open(os.path.join(directory, f"{os.getpid()}.json"), "w") as fh:
            json.dump(sorted(sys.modules), fh)
    return registry.build("example").build(seed)
"""


def test_spawn_worker_skips_a_lookup_that_cannot_hit(tmp_path):
    # a spawn worker starts with an empty checkpoint cache and records
    # nothing in it when the store has no directory: it runs the task
    # cold without the checkpoint code, and its output bytes are unchanged
    (tmp_path / "probe.py").write_text(PROBE)
    loaded_after(
        "import multiprocessing as mp, sys\n"
        f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "mp.set_start_method('spawn')\n"
        "from dataclasses import replace\n"
        "from functools import partial\n"
        "import probe\n"
        "from repro.apps import registry\n"
        "from repro.core.config import CozConfig\n"
        "from repro.harness.checkpoint import CheckpointStore\n"
        "from repro.harness.parallel import RunTask, execute_tasks\n"
        "spec = registry.build('example')\n"
        f"spec = replace(spec, build=partial(probe.build, {str(tmp_path)!r}), registry_ref=None)\n"
        "tasks = [RunTask(index=i, seed=i, spec=spec, coz_config=CozConfig(scope=spec.scope),\n"
        "                 checkpoint=CheckpointStore('gate')) for i in range(2)]\n"
        "assert execute_tasks(tasks, jobs=2) == execute_tasks(tasks, jobs=1)\n"
    )
    workers = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert workers, "no pool worker built a program"
    for mods in workers:
        assert "repro.harness.parallel" in mods
        assert not set(mods) & CHECKPOINT_CODE


def test_service_client_loads_no_profiler(tmp_path):
    mods = loaded_after(
        "from repro.cli import main\n"
        "try:\n"
        f"    main(['status', '--state-dir', {str(tmp_path)!r}])\n"
        "except SystemExit:\n"
        "    pass  # no daemon is listening\n"
    )
    assert "repro.harness.service.client" in mods
    assert not mods & {"numpy", "multiprocessing", "repro.core.profile_data", "repro.stats"}


# --------------------------------------------------------------- lazy roots

#: re-exported constants, which carry no ``__module__`` of their own
CONSTANTS = {
    "DEFAULT_SPEEDUPS": "repro.core.config",
    "AUTO_JOBS": "repro.harness.parallel",
    "WIRE_VERSION": "repro.harness.service.wire",
}


@pytest.mark.parametrize("root", LAZY_ROOTS)
def test_lazy_root_resolves_every_public_name(root):
    package = importlib.import_module(root)
    listed = dir(package)
    star = {}
    exec(f"from {root} import *", star)
    for name in package.__all__:
        value = getattr(package, name)
        if name in CONSTANTS:
            home = CONSTANTS[name]
        else:
            home = getattr(value, "__module__", None) or root
        assert getattr(importlib.import_module(home), name) is value, name
        assert star[name] is value, name
        assert name in listed, name
    public = {
        n for n in dir(package)
        if not n.startswith("_") and not isinstance(getattr(package, n), types.ModuleType)
    }
    assert public == {n for n in package.__all__ if not n.startswith("_")}
    with pytest.raises(AttributeError):
        package.no_such_name


def test_lazy_root_still_yields_submodules():
    # ``from package import submodule`` must fall through the root's
    # ``__getattr__`` to the import system, and ``dir`` must list names
    # not yet resolved, before anything else ran
    mods = loaded_after(
        "import importlib, sys\n"
        f"for root in {LAZY_ROOTS!r}:\n"
        "    package = importlib.import_module(root)\n"
        "    assert set(package.__all__) <= set(dir(package)), root\n"
        "from repro.harness import runner\n"
        "from repro import core\n"
        "assert runner is sys.modules['repro.harness.runner']\n"
        "assert core is sys.modules['repro.core']\n"
    )
    assert "repro.harness.runner" in mods
