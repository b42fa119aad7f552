"""The Memcached case study (§4.2.6).

The paper's benchmark (ported from the Redis benchmark) spawns 50 clients
collectively issuing SET/GET requests; the progress point sits at the end of
``process_command``.  Coz flagged several *contention* lines, one at the
start of ``item_remove``: memcached protects items with a static array of
striped locks indexed by a hash of the key, so touching one item contends
with unrelated items that hash to the same stripe.  Reference counts are
updated atomically anyway, so the lock can simply be removed — a -6/+2 line
change worth 9.39% ± 0.95%.

The model: worker threads drain a request channel fed by client threads.
Handling a request means protocol parsing, hash lookup, and ``item_remove``
— which, in the original, takes the stripe's :class:`~repro.sim.sync.
SpinMutex` (memcached's item locks spin briefly before blocking) around the
refcount update.  The optimized variant updates the refcount atomically with
no lock.
"""

from __future__ import annotations

import random
from functools import partial
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import IO, POP_FRAME, Join, Progress, Spawn, Work, push_frame
from repro.sim.program import Program
from repro.sim.source import Scope, line
from repro.sim.sync import Channel, SpinMutex

#: the start of item_remove: the lock acquisition Coz flags as contended
LINE_ITEM_REMOVE = line("items.c:479")
#: the refcount update inside the (removable) lock
LINE_REFCOUNT = line("items.c:484")
LINE_PARSE = line("memcached.c:3829")      # protocol parsing
LINE_ASSOC = line("assoc.c:120")           # hash table lookup
LINE_RESPOND = line("memcached.c:4012")    # response construction

PROGRESS = "command-done"


def build_memcached(
    optimized: bool = False,
    n_clients: int = 50,
    n_workers: int = 8,
    n_requests: int = 20_000,
    n_stripes: int = 4,
    parse_ns: int = US(2.0),
    assoc_ns: int = US(1.6),
    refcount_ns: int = US(1.8),
    respond_ns: int = US(1.6),
) -> AppSpec:
    """Build the memcached benchmark.

    ``optimized=True`` removes the striped item lock from ``item_remove``
    and updates the reference count atomically (the paper's fix).
    """
    def make(seed: int = 0) -> Program:
        enter_command = push_frame("process_command")
        command_done = Progress(PROGRESS)

        def main(t):
            requests = Channel(64, "requests")
            stripes = [
                SpinMutex(LINE_ITEM_REMOVE, spin_iter_ns=US(0.7), name=f"item-lock-{i}")
                for i in range(n_stripes)
            ]

            def client(cid: int, t2):
                crng = random.Random((seed << 12) ^ cid)
                per_client = n_requests // n_clients
                for _ in range(per_client):
                    yield IO(US(crng.randrange(5, 30)))  # think time / network
                    yield from requests.put(crng.randrange(1 << 30))
                return None

            def worker(wid: int):
                wrng = random.Random((seed << 13) ^ wid)

                def process_command(key):
                    yield enter_command
                    yield Work(LINE_PARSE, _jit(wrng, parse_ns))
                    yield Work(LINE_ASSOC, _jit(wrng, assoc_ns))
                    # item_remove: decrement the item's reference count
                    ref_cost = _jit(wrng, refcount_ns)
                    if optimized:
                        # atomic decrement; no lock needed (the paper's fix)
                        yield Work(LINE_REFCOUNT, ref_cost)
                    else:
                        # a generator, not a tuple: the lock's TryLock is
                        # sent its result
                        stripe = stripes[key % n_stripes]
                        yield from stripe.lock(LINE_ITEM_REMOVE)
                        yield Work(LINE_REFCOUNT, ref_cost)
                        yield from stripe.unlock(LINE_ITEM_REMOVE)
                    yield Work(LINE_RESPOND, _jit(wrng, respond_ns))
                    yield command_done
                    yield POP_FRAME

                return lambda t2: requests.relay(None, None, process_command)

            clients = []
            for cid in range(n_clients):
                clients.append((yield Spawn(partial(client, cid), f"client-{cid}")))
            workers = []
            for wid in range(n_workers):
                workers.append((yield Spawn(worker(wid), f"worker-{wid}")))
            for c in clients:
                yield Join(c)
            yield from requests.close()
            for w in workers:
                yield Join(w)

        config = SimConfig(
            seed=seed,
            cores=n_workers + 4,  # workers + a few cores for clients
            sample_period_ns=US(250),
            quantum_ns=MS(0.5),
            interference_coeff=0.3,
        )
        return Program(main, name="memcached", config=config, debug_size_kb=320)

    return AppSpec(
        name="memcached",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("items.c", "memcached.c", "assoc.c"),
        lines={
            "item-remove": LINE_ITEM_REMOVE,
            "refcount": LINE_REFCOUNT,
            "parse": LINE_PARSE,
            "assoc": LINE_ASSOC,
            "respond": LINE_RESPOND,
        },
    )


def _jit(rng: random.Random, ns: int, jitter: float = 0.15) -> int:
    return max(0, int(ns * (1.0 + jitter * (2 * rng.random() - 1.0))))
