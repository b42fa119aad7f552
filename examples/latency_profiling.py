#!/usr/bin/env python3
"""Latency profiling with two progress points and Little's law (§3.3).

Throughput is not the only metric Coz can optimize for: placing progress
points at the *start* and *end* of a request lets the profiler infer average
latency from Little's law (L = lambda * W) without timestamping individual
requests.

The program: clients submit requests to a bounded queue; a pool of workers
handles each request in two steps — an expensive parse and a cheap respond.
We profile the parse line and report how virtually speeding it up moves the
average request latency.

Run:  python examples/latency_profiling.py
"""

from repro import CausalProfiler, CozConfig, LatencySpec, ProgressPoint, Scope, line
from repro.core.profile_data import ProfileData, build_latency_profile
from repro.sim import IO, MS, US, Join, Program, Progress, SimConfig, Spawn, Work
from repro.sim.sync import Channel

PARSE = line("server.c:100")
RESPOND = line("server.c:140")
N_REQUESTS = 12000


def make_program(seed: int = 0) -> Program:
    def main(t):
        queue = Channel(64, "requests")

        def client(t2, cid):
            import random

            rng = random.Random(seed * 131 + cid)
            for _ in range(N_REQUESTS // 8):
                yield IO(US(rng.randrange(10, 60)))   # inter-arrival think time
                yield Progress("request-begin")        # arrival: latency clock in
                yield from queue.put(cid)

        handle = (
            Work(PARSE, US(14)),                       # the expensive step
            Work(RESPOND, US(4)),
            Progress("request-end"),                   # completion: clock out
        )

        def worker(t2):
            # a sink stage: handle each request until the queue is closed
            return queue.relay(None, None, lambda _item: handle)

        clients = []
        for cid in range(8):
            def cbody(t2, cid=cid):
                yield from client(t2, cid)
            clients.append((yield Spawn(cbody, f"client-{cid}")))
        workers = []
        for i in range(4):
            workers.append((yield Spawn(worker, f"worker-{i}")))
        for c in clients:
            yield Join(c)
        yield from queue.close()
        for w in workers:
            yield Join(w)

    return Program(main, config=SimConfig(seed=seed, cores=8, sample_period_ns=US(100)))


def main() -> None:
    spec_points = [ProgressPoint("request-begin"), ProgressPoint("request-end")]
    latency = LatencySpec("request", begin="request-begin", end="request-end")

    data = ProfileData()
    for seed in range(8):
        profiler = CausalProfiler(
            CozConfig(
                scope=Scope.all_main(),
                fixed_line=PARSE,
                speedup_schedule=[0, 25, 0, 50, 0, 75],
                experiment_duration_ns=MS(5),
                seed=seed,
            ),
            progress_points=spec_points,
            latency_specs=[latency],
        )
        make_program(seed).run(hook=profiler)
        data.merge(profiler.data)

    points = build_latency_profile(data, PARSE, latency)
    if points is None:
        raise SystemExit("not enough latency data collected")

    print("Latency profile of server.c:100 (the parse step)")
    print(f"{'line speedup':>12} {'avg latency':>12} {'change':>9}")
    for p in sorted(points, key=lambda q: q.speedup_pct):
        print(f"{p.speedup_pct:>11}% {p.latency_ns / 1000:>10.1f}us "
              f"{100 * p.latency_reduction:>+8.1f}%")
    print(
        "\nSpeeding up the parse line shortens the time requests spend\n"
        "queued + in service — the latency falls faster than the 14us\n"
        "service-time saving alone, because the queue drains too."
    )


if __name__ == "__main__":
    main()
