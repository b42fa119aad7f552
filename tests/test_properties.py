"""Property-based tests (hypothesis) for core data structures and invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hashtable import HASH_VARIANTS, HashTable
from repro.core.speedup import DelayEngine
from repro.sim import MS, US, Join, Program, SimConfig, Sleep, Spawn, Work, line
from repro.sim.thread import VThread
from repro.stats.mannwhitney import mann_whitney_u
from repro.stats.regression import linear_regression

L = line("prop.c:1")


def _thread(name):
    def body(t):
        yield None

    return VThread(body, name=name)


# ------------------------------------------------------------ delay protocol

@given(
    events=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(["hit", "reconcile", "credit"]),
                  st.integers(1, 5)),
        max_size=60,
    ),
    delay=st.integers(0, 1000),
)
@settings(max_examples=200, deadline=None)
def test_delay_engine_invariant(events, delay):
    """§3.4.3 invariant: local counts never exceed the global count, and
    every local equals hits + pauses (+ credits)."""
    eng = DelayEngine()
    threads = [_thread(f"t{i}") for i in range(4)]
    eng.begin(delay_ns=delay, threads=threads)
    total_pause = 0
    for tid, kind, amount in events:
        t = threads[tid]
        if kind == "hit":
            total_pause += eng.on_hits(t, amount)
        elif kind == "reconcile":
            total_pause += eng.reconcile(t)
        else:
            eng.credit(t)
        # invariant: nobody is ever ahead of the global
        for th in threads:
            assert th.coz_local <= eng.global_count
    if delay > 0:
        assert total_pause % delay == 0 or total_pause == 0
    assert eng.end() == eng.global_count


@given(hits=st.lists(st.integers(1, 10), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_single_executor_pays_nothing_other_pays_all(hits):
    """One thread runs the line: it never pauses; the other pays hit-for-hit."""
    eng = DelayEngine()
    a, b = _thread("a"), _thread("b")
    eng.begin(delay_ns=100, threads=[a, b])
    executor_pause = 0
    other_pause = 0
    for h in hits:
        executor_pause += eng.on_hits(a, h)
        other_pause += eng.reconcile(b)
    assert executor_pause == 0
    assert other_pause == sum(hits) * 100
    assert eng.global_count == sum(hits)


# ------------------------------------------------------------ hash table

keys_strategy = st.lists(st.binary(min_size=20, max_size=20), max_size=80)


@given(keys=keys_strategy, variant=st.sampled_from(sorted(HASH_VARIANTS)))
@settings(max_examples=100, deadline=None)
def test_hashtable_search_finds_every_inserted_key(keys, variant):
    t = HashTable(buckets=64, hash_fn=HASH_VARIANTS[variant])
    for k in keys:
        t.insert(k, k)
    assert t.size == len(set(keys))
    for k in keys:
        value, links = t.search(k)
        assert value == k
        assert links >= 1


@given(keys=keys_strategy)
@settings(max_examples=50, deadline=None)
def test_hashtable_histogram_consistency(keys):
    t = HashTable(buckets=32)
    for k in keys:
        t.insert(k)
    hist = t.chain_histogram()
    assert sum(n * c for n, c in hist.items()) == t.size
    assert 0.0 <= t.utilization() <= 1.0


# ------------------------------------------------------------ statistics

@given(
    x=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=30),
    y=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_mwu_pvalue_in_range_and_symmetric(x, y):
    less = mann_whitney_u(x, y, alternative="less").p_value
    greater = mann_whitney_u(x, y, alternative="greater").p_value
    assert 0.0 <= less <= 1.0
    assert 0.0 <= greater <= 1.0
    # swapping samples swaps the tails
    swapped = mann_whitney_u(y, x, alternative="greater").p_value
    assert abs(less - swapped) < 1e-9


@given(
    slope=st.floats(-5, 5, allow_nan=False),
    intercept=st.floats(-10, 10, allow_nan=False),
    n=st.integers(3, 20),
)
@settings(max_examples=100, deadline=None)
def test_regression_recovers_exact_lines(slope, intercept, n):
    xs = [float(i) for i in range(n)]
    ys = [slope * x + intercept for x in xs]
    r = linear_regression(xs, ys)
    assert abs(r.slope - slope) < 1e-6 * max(1, abs(slope))
    assert abs(r.intercept - intercept) < 1e-6 * max(1, abs(intercept))


# ------------------------------------------------------------ engine

@given(
    durations=st.lists(st.integers(US(10), MS(2)), min_size=1, max_size=6),
    cores=st.integers(1, 4),
    seed=st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_engine_wall_time_bounds(durations, cores, seed):
    """Wall time is bounded by [max thread time, total cpu + overheads]."""

    def main(t):
        ws = []
        for i, d in enumerate(durations):
            def body(t2, d=d):
                yield Work(L, d)
            ws.append((yield Spawn(body, f"w{i}")))
        for w in ws:
            yield Join(w)

    cfg = SimConfig(cores=cores, seed=seed)
    r = Program(main, config=cfg).run()
    total = sum(durations)
    longest = max(durations)
    spawn_overhead = len(durations) * cfg.spawn_cost_ns
    assert r.runtime_ns >= longest
    assert r.runtime_ns >= (total // cores)
    assert r.runtime_ns <= total + spawn_overhead + MS(1)


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_engine_determinism_over_seeds(seed):
    def build():
        def main(t):
            def worker(t2):
                yield Work(L, US(500))
                yield Sleep(US(100))
                yield Work(L, US(300))

            a = yield Spawn(worker)
            b = yield Spawn(worker)
            yield Join(a)
            yield Join(b)

        return Program(main, config=SimConfig(cores=2, seed=seed))

    assert build().run().runtime_ns == build().run().runtime_ns
