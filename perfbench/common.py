"""Shared helpers: checkout paths, statistics, environment labels, set-up
probes and the operation ledger behind ``attempted`` / ``failed``."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: traces, result files, daemon state
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad metadata)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and prove that
    ``repro`` is imported from there, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")


def load_spec() -> Dict:
    try:
        with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {BENCHMARK_JSON}: {exc}") from None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (0.0 for no values)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def env_labels() -> Dict:
    """What the numbers were measured on; printed beside every result."""
    import numpy

    from repro.sim.backend import accel_available, resolve_backend

    return {
        "backend": resolve_backend(),
        "accel_built": accel_available(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any child it
    waited for (pool workers, set-up probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


_PROBE = (
    "import repro\n"
    "from repro.apps import registry\n"
    "registry.build({app!r})\n"
)


def import_probes(app: str, repeats: int) -> List[Tuple[float, float]]:
    """``perf_counter`` intervals in which a fresh interpreter imported
    ``repro`` and built ``app``'s spec: the start-up a user pays before any
    session."""
    env = dict(os.environ, PYTHONPATH=SRC)
    spans: List[Tuple[float, float]] = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE.format(app=app)],
            cwd=ROOT, env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        spans.append((t0, time.perf_counter()))
    return spans


class Ledger:
    """Operations attempted and failed; a failed output check fails its
    operation.  ``problems`` keeps the first few reasons for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        return not problems
