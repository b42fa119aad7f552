"""The dedup benchmark (§4.2.1): parallel file compression via deduplication.

Three pipeline stages — fine-grained fragmentation, hash computation (with
the shared chained hash table), and compression — connected by bounded
channels, each stage served by a small thread pool.  The progress point sits
immediately after a block finishes compression (``encoder.c:189``).

The hash stage looks every chunk digest up in a *real*
:class:`~repro.apps.hashtable.HashTable`; the chain traversal burns
simulated time on ``hashtable.c:217`` (the top of the while loop in
``hashtable_search``), one unit per link, exactly the line Coz flagged.

Timing calibration: with the original hash function the hash stage is the
bottleneck and is ~9% slower than the compression stage, so fixing the hash
function yields the paper's ~9% end-to-end speedup even though the chain
traversal itself gets ~96% faster (the §4.3 accuracy study).
"""

from __future__ import annotations

import random
from repro.apps.hashtable import HASH_VARIANTS, HashTable, make_keys
from repro.apps.spec import AppSpec
from repro.core.progress import ProgressPoint
from repro.sim.clock import MS, US
from repro.sim.engine import SimConfig
from repro.sim.ops import POP_FRAME, Join, Progress, Spawn, Work, push_frame
from repro.sim.program import Program
from repro.sim.source import Scope, line
from repro.sim.sync import Channel

#: the chain-traversal loop in hashtable_search (the paper's finding)
LINE_HASH_LOOP = line("hashtable.c:217")
#: fragmentation inner loop
LINE_FRAGMENT = line("encoder.c:102")
#: hash computation (SHA1) of a chunk
LINE_SHA = line("hashcomp.c:45")
#: compression loop
LINE_COMPRESS = line("encoder.c:175")
#: hash/index computation before the chain walk
LINE_HASH_BASE = line("hashtable.c:210")
#: the progress point: a block finished compressing
LINE_PROGRESS = line("encoder.c:189")

PROGRESS = "block-compressed"


def build_dedup(
    variant: str = "original",
    n_blocks: int = 3000,
    threads_per_stage: int = 2,
    n_keys: int = 7000,
    buckets: int = 4096,
    fragment_ns: int = US(300),
    sha_ns: int = US(60),
    search_base_ns: int = US(40),
    search_iter_ns: int = US(3.55),
    compress_ns: int = US(400),
) -> AppSpec:
    """Build dedup with the given hash-function variant.

    ``variant``: ``original`` (the paper's 'before'), ``noshift`` (mid), or
    ``xor`` (the paper's fix; ~9% faster end to end).

    The per-iteration chain cost is calibrated so the original hash stage
    runs ~9% over the compression stage: mean chain ~96 links x 3.55 us/link
    + overheads ~ 440 us vs compression's 400 us + queue costs.
    """
    if variant not in HASH_VARIANTS:
        raise ValueError(f"unknown dedup variant: {variant}")

    def make(seed: int = 0) -> Program:
        # constant ops, built once: each stage's per-block ops, call frames
        # included (the hash stage appends its jittered chain walk)
        fragment = (push_frame("fragment"), Work(LINE_FRAGMENT, fragment_ns), POP_FRAME)
        sha_then_search = (
            push_frame("sha1"), Work(LINE_SHA, sha_ns), POP_FRAME,
            push_frame("hashtable_search"),
        ) + ((Work(LINE_HASH_BASE, search_base_ns),) if search_base_ns else ())
        compress = (
            push_frame("compress"), Work(LINE_COMPRESS, compress_ns), POP_FRAME,
            Work(LINE_PROGRESS, 0), Progress(PROGRESS),
        )

        def main(t):
            keys = make_keys(n_keys, seed=7)  # fixed corpus, like an input file
            table = HashTable(buckets=buckets, hash_fn=HASH_VARIANTS[variant])
            for k in keys:
                table.insert(k)

            # the input feed: fragmentation stage pulls raw blocks
            frag_to_hash_feed = Channel(32, "input")
            frag_to_hash = Channel(32, "frag->hash")
            hash_to_comp = Channel(32, "hash->comp")

            def fragment_worker(t2):
                return frag_to_hash_feed.relay(frag_to_hash, None, lambda _item: fragment)

            def hash_worker(wid):
                wrng = random.Random((seed << 4) ^ wid)

                def work(_item):
                    key = keys[wrng.randrange(len(keys))]
                    _value, links = table.search(key)
                    # SHA1 of the chunk, then hashtable_search: hash/index
                    # computation plus the chain-walk loop
                    return sha_then_search + (
                        Work(LINE_HASH_LOOP, links * search_iter_ns), POP_FRAME,
                    )

                return lambda t2: frag_to_hash.relay(hash_to_comp, None, work)

            def compress_worker(t2):
                return hash_to_comp.relay(None, None, lambda _item: compress)

            workers = []
            for i in range(threads_per_stage):
                workers.append((yield Spawn(fragment_worker, f"frag-{i}")))
            for i in range(threads_per_stage):
                workers.append((yield Spawn(hash_worker(i), f"hash-{i}")))
            for i in range(threads_per_stage):
                workers.append((yield Spawn(compress_worker, f"comp-{i}")))

            for blk in range(n_blocks):
                yield from frag_to_hash_feed.put(blk)
            yield from frag_to_hash_feed.close()
            # wait for the fragment stage to drain, then close downstream
            for w in workers[:threads_per_stage]:
                yield Join(w)
            yield from frag_to_hash.close()
            for w in workers[threads_per_stage : 2 * threads_per_stage]:
                yield Join(w)
            yield from hash_to_comp.close()
            for w in workers[2 * threads_per_stage :]:
                yield Join(w)

        config = SimConfig(
            seed=seed,
            cores=8,
            sample_period_ns=US(250),
            quantum_ns=MS(1),
        )
        return Program(main, name=f"dedup-{variant}", config=config, debug_size_kb=160)

    return AppSpec(
        name="dedup",
        build=make,
        progress_points=[ProgressPoint(PROGRESS)],
        primary_progress=PROGRESS,
        scope=Scope.only("hashtable.c", "hashcomp.c", "encoder.c"),
        lines={
            "hash-loop": LINE_HASH_LOOP,
            "fragment": LINE_FRAGMENT,
            "sha": LINE_SHA,
            "compress": LINE_COMPRESS,
        },
    )
