"""Progress-point bytes do not depend on the process that profiled them.

A program with two source-level progress points is profiled in fresh
interpreters under different ``PYTHONHASHSEED`` values, and through a
spawn pool whose workers run under yet another hash seed.  Every
profile's ``ProfileData.to_bytes()`` must be the same: an experiment's
``visits`` are keyed in first-visit order, never in a set's hash order.

Run as a script (``python test_progress_determinism.py serial|spawn``) the
module prints the sha256 of the profile it makes; the tests below drive
it that way, so each profile comes from a fresh interpreter.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.core.config import CozConfig
from repro.core.progress import ProgressPoint
from repro.sim import MS, US, Join, Program, Progress, Scope, SimConfig, Spawn, Work, line

PARSE = line("req.c:10")
REPLY = line("req.c:20")
POINTS = (ProgressPoint("request-begin"), ProgressPoint("request-end"))
SRC = Path(__file__).resolve().parents[2] / "src"


def two_points(seed: int = 0) -> Program:
    """Two workers, each request bracketed by begin/end progress points."""

    def main(t):
        def worker(t2):
            for _ in range(300):
                yield Progress("request-begin")
                yield Work(PARSE, US(40))
                yield Work(REPLY, US(20))
                yield Progress("request-end")

        ws = []
        for _ in range(2):
            ws.append((yield Spawn(worker)))
        for w in ws:
            yield Join(w)

    return Program(main, config=SimConfig(seed=seed, sample_period_ns=US(100)))


def profile_digest(jobs: int) -> str:
    from repro.harness import profile_program

    out = profile_program(
        two_points,
        POINTS,
        "request-end",
        runs=2,
        coz_config=CozConfig(scope=Scope.all_main(), experiment_duration_ns=MS(2)),
        jobs=jobs,
    )
    assert out.data.experiments
    return hashlib.sha256(out.data.to_bytes()).hexdigest()


def _run(args, hash_seed: str) -> str:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _hash_seeds():
    """Two hash seeds under which a set of the point names iterates in
    different orders (the seed-to-order map differs between versions)."""
    probe = f"print(list(set({[p.name for p in POINTS]!r})))"
    first = {}
    for seed in map(str, range(64)):
        first.setdefault(_run(["-c", probe], seed), seed)
        if len(first) == 2:
            return tuple(first.values())
    raise AssertionError("no hash seed reorders a two-element set")


def test_profile_bytes_do_not_depend_on_the_hash_seed():
    first, second = (_run([__file__, "serial"], seed) for seed in _hash_seeds())
    assert first == second


def test_spawn_pool_writes_the_serial_bytes():
    """Pool workers start under another hash seed than the parent."""
    parent_seed, worker_seed = _hash_seeds()
    serial, pooled = _run([__file__, "spawn", worker_seed], parent_seed).split()
    assert serial == pooled


if __name__ == "__main__":
    mode = sys.argv[1]
    print(profile_digest(jobs=1))
    if mode == "spawn":
        import multiprocessing

        # spawned workers are fresh interpreters that read this at start-up
        os.environ["PYTHONHASHSEED"] = sys.argv[2]
        multiprocessing.set_start_method("spawn")
        print(profile_digest(jobs=2))
