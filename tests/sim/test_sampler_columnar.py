"""Sample-pipeline identity against a per-sample reference (DESIGN.md §5i).

The sampler stores run-length-encoded segments and expands sample
timestamps lazily — with numpy vector ops for long segments.  Its contract
is *byte identity* with the per-sample reference loop below
(:func:`_reference_samples`): same Sample tuples, same batch boundaries,
same snapshot bytes.  These tests pin that contract:

* a deterministic fuzz sweep drives random chunk sequences (periods, rates,
  batch sizes, carry-in accumulators, segment lengths straddling
  ``VECTOR_MIN``) through the sampler and the reference and compares
  everything;
* the ``SAFE_TIME_MAX`` (2^62) regression: near the int64/float64 ceiling
  the vector paths must hand off to exact arbitrary-precision arithmetic
  instead of wrapping around;
* snapshot round trip: a mid-chunk buffer captures to the Sample-tuple wire
  format and rehydrates as a literal segment, and mid-run engine snapshots
  resume bit-identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.sim.ops import push_frame
from repro.sim.sampler import (
    SAFE_TIME_MAX,
    VECTOR_MIN,
    ColumnarBuf,
    Sample,
    Sampler,
)
from repro.sim.source import line
from repro.sim.thread import VThread

LINES = [line(f"fuzz.c:{i}") for i in range(1, 6)]
FUNCS = ["", "alpha", "beta"]


def _thread(tid=0):
    def body(t):
        yield

    return VThread(body, tid=tid)


def _reference_samples(t, nominal, now, rate, period):
    """Every sample one ``Sampler.account`` call takes, one at a time.

    The oracle: the straightforward per-sample loop, with the ceil-rounded
    chunk start and the chunk-edge clamp on the rescale branch.
    """
    accum_before = t.sample_accum
    n = (accum_before + nominal) // period
    t.sample_accum = accum_before + nominal - n * period
    if not n:
        return []
    chain = t.callchain()
    func = t.current_func()
    if rate == 1.0:
        base = now - nominal - accum_before
        times = [base + k * period for k in range(1, n + 1)]
    else:
        start_real = now - math.ceil(nominal * rate)
        times = [
            min(start_real + int((k * period - accum_before) * rate), now)
            for k in range(1, n + 1)
        ]
    return [Sample(when, t.tid, chain[0], chain, func) for when in times]


def _enter(t, ln, func, callsite):
    t.activity_line = ln
    t.stack = [push_frame(func, callsite)] if func else []
    t.chain_cache = None


def _drive(chunks, period, batch):
    """One chunk sequence through the sampler -> (batches, tail, total)."""
    s = Sampler(period_ns=period, batch_size=batch)
    t = _thread()
    batches = []
    now = 0
    for ln, func, callsite, nominal, rate, allow_flush in chunks:
        _enter(t, ln, func, callsite)
        now += math.ceil(nominal * rate)
        b = s.account(t, nominal, now=now, allow_flush=allow_flush, rate=rate)
        if b is not None:
            batches.append(list(b))
    return batches, list(t.sample_buffer), s.total_samples


def _drive_reference(chunks, period, batch):
    """The same chunk sequence through the reference loop and a list."""
    t = _thread()
    buf, batches, total = [], [], 0
    now = 0
    for ln, func, callsite, nominal, rate, allow_flush in chunks:
        _enter(t, ln, func, callsite)
        now += math.ceil(nominal * rate)
        samples = _reference_samples(t, nominal, now, rate, period)
        buf += samples
        total += len(samples)
        if allow_flush and len(buf) >= batch:
            batches.append(buf)
            buf = []
    return batches, buf, total


def _random_chunks(rng, period):
    chunks = []
    for _ in range(rng.randrange(4, 28)):
        ln = rng.choice(LINES)
        func = rng.choice(FUNCS)
        callsite = rng.choice(LINES) if func else None
        # segment lengths from 0 to well past VECTOR_MIN
        nominal = rng.randrange(0, period * (VECTOR_MIN * 3))
        rate = 1.0 if rng.random() < 0.5 else rng.uniform(0.4, 3.0)
        allow_flush = rng.random() < 0.8
        chunks.append((ln, func, callsite, nominal, rate, allow_flush))
    return chunks


@pytest.mark.parametrize("seed", range(15))
def test_columnar_pipeline_is_byte_identical_to_scalar(seed):
    """Property: any chunk sequence yields the reference's batches and buffer."""
    rng = random.Random(seed)
    period = rng.randrange(50, 5000)
    batch = rng.randrange(1, 40)
    chunks = _random_chunks(rng, period)
    want_batches, want_tail, want_total = _drive_reference(chunks, period, batch)
    got_batches, got_tail, got_total = _drive(chunks, period, batch)
    assert got_batches == want_batches, f"batch divergence (seed {seed})"
    assert got_tail == want_tail, f"tail-buffer divergence (seed {seed})"
    assert got_total == want_total


@pytest.mark.parametrize("rate", [1.0, 1.0009, 2.5])
def test_near_2_62_times_take_the_exact_slow_path(rate):
    """Regression: segments near SAFE_TIME_MAX must not wrap or drift.

    At virtual times around 2^62 the vectorized ``base + k*period`` /
    ``cpu * rate`` math can overflow int64 or lose float64 precision, so
    ``account`` must fall back to exact Python integers there — and stay
    byte-identical to the reference loop, with no sample past the chunk
    edge.
    """
    period = 1000
    n_samples = VECTOR_MIN * 2  # long enough that the vector path would engage
    nominal = period * n_samples
    now = SAFE_TIME_MAX + math.ceil(nominal * rate)

    t = _thread()
    t.activity_line = LINES[0]
    Sampler(period_ns=period, batch_size=10_000).account(t, nominal, now=now, rate=rate)
    ref = _thread()
    ref.activity_line = LINES[0]
    expected = _reference_samples(ref, nominal, now, rate, period)
    assert list(t.sample_buffer) == expected
    assert len(expected) == n_samples
    assert all(s.time <= now for s in expected)
    # exact arithmetic, not a wrapped int64: every timestamp is positive
    # and sits inside the chunk span
    start = now - math.ceil(nominal * rate)
    assert all(start < s.time <= now for s in expected)


def test_columnar_buffer_snapshot_round_trip():
    """Mid-chunk buffers capture as Sample tuples and rehydrate losslessly."""
    s = Sampler(period_ns=1000, batch_size=10_000)
    t = _thread()
    now = 0
    for i, nominal in enumerate([2_500, 40_000, 777]):
        t.activity_line = LINES[i % len(LINES)]
        t.chain_cache = None
        rate = 1.0 if i % 2 == 0 else 1.3
        now += math.ceil(nominal * rate)
        s.account(t, nominal, now=now, rate=rate)
    assert isinstance(t.sample_buffer, ColumnarBuf)
    assert len(t.sample_buffer.segs) > 1  # genuinely mid-accumulation
    captured = tuple(t.sample_buffer)  # snapshot capture wire format
    restored = s.new_buffer(captured)  # snapshot restore path
    assert isinstance(restored, ColumnarBuf)
    assert len(restored) == len(captured)
    assert restored.materialize() == list(captured)
    # the rehydrated buffer keeps accumulating like the original would
    t2 = _thread()
    t2.sample_buffer = restored
    t2.activity_line = LINES[0]
    batch = s.account(t2, 5_000, now=now + 5_000)
    assert batch is None  # batch_size is huge; still buffering
    assert len(restored) == len(captured) + 5


def test_mid_run_snapshot_resume_identity():
    """Engine snapshots taken mid-run resume bit-identically."""
    from repro.apps import registry
    from repro.core.config import CozConfig
    from repro.core.profiler import CausalProfiler
    from repro.sim.clock import MS
    from repro.sim.snapshot import Recorder

    seed = 3
    spec = registry.build("example", rounds=40)
    config = spec.build(seed).config

    def fingerprint(result, prof):
        return (
            result.runtime_ns,
            result.cpu_ns,
            result.sample_count,
            result.events_processed,
            prof.data.to_json(),
        )

    cfg = replace(CozConfig(scope=spec.scope), seed=seed)
    prof = CausalProfiler(cfg, spec.progress_points, spec.latency_specs)
    recorder = Recorder(grid=[MS(5), MS(20)], keep_all=True)
    cold = spec.build(seed).run(hook=prof, config=config, recorder=recorder)
    assert recorder.snapshots, "no mid-run snapshot captured"
    want = fingerprint(cold, prof)
    for snap in recorder.snapshots:
        prof2 = CausalProfiler(
            replace(CozConfig(scope=spec.scope), seed=seed),
            spec.progress_points,
            spec.latency_specs,
        )
        warm = spec.build(seed).resume(snap, hook=prof2, config=config)
        assert fingerprint(warm, prof2) == want, (
            f"resume at t={snap.when} diverged"
        )
