"""Per-thread CPU-time instruction-pointer sampling.

Coz samples each thread's program counter every 1 ms of *that thread's* CPU
time via perf_event, and processes samples in batches of ten (§3.1).  The
simulator reproduces those semantics analytically: while a thread executes a
work chunk, samples accrue every ``period_ns`` of nominal CPU time; they are
buffered on the thread and flushed to the profiler hook in batches at chunk
boundaries — the moral equivalent of draining the perf_event ring buffer.

Samples only accrue while a thread is on-CPU: blocked, sleeping, and paused
threads take no samples, exactly like the real system.

Samples are buffered structure-of-arrays (DESIGN.md §5i): each
``account`` call appends one *segment* descriptor to a :class:`ColumnarBuf`
(the line/callchain/func are constant across a chunk, so a whole chunk's
samples are one run-length-encoded record), and sample timestamps are
computed lazily — with numpy int64 vector ops for large segments — only
when a consumer actually needs :class:`Sample` tuples.  The causal profiler
and the perf baseline aggregate straight from the segments and never
materialize at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional, Tuple

from repro.sim.source import SourceLine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.thread import VThread


#: numpy, once a vector path first needs it (see :func:`_require_numpy`)
_np = None


def _require_numpy():
    """Import numpy on first use, failing fast with a clear message (see
    pyproject floor).  Only segments of at least :data:`VECTOR_MIN` samples
    need it, so a process that never materializes one never imports it."""
    global _np
    if _np is not None:
        return _np
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy is a hard dep
        raise ImportError(
            "repro's vectorized sample pipeline requires numpy >= 1.22 "
            "(pip install 'numpy>=1.22')"
        ) from exc
    version = getattr(numpy, "__version__", "0")
    try:
        parts = tuple(int(p) for p in version.split(".")[:2])
    except ValueError:  # pragma: no cover - exotic dev versions
        parts = (99, 99)
    if parts < (1, 22):  # pragma: no cover - exercised only on old numpy
        raise ImportError(
            f"repro's vectorized sample pipeline needs numpy >= 1.22 for "
            f"stable int64 casting semantics; found numpy {version}. "
            "Upgrade numpy."
        )
    _np = numpy
    return numpy


class Sample(NamedTuple):
    """One instruction-pointer sample.

    A NamedTuple rather than a dataclass: samples are allocated on the
    engine hot path (hundreds of thousands per profile session) and tuple
    construction is several times cheaper than frozen-dataclass ``__init__``.
    """

    time: int                      # virtual time when the batch point passed
    tid: int                       # sampled thread
    line: SourceLine               # innermost source line (the "IP")
    callchain: Tuple[SourceLine, ...]  # innermost-first, like a perf callstack
    func: str                      # innermost function name ('' at top level)


# --------------------------------------------------------------------- columnar

#: segment kinds (first tuple element of every ColumnarBuf segment)
SEG_AFFINE = 0    # rate == 1.0: times are base + k*period, k = 1..n
SEG_RESCALE = 1   # rate != 1.0: times are start_real + int((k*period - accum)*rate)
SEG_LITERAL = 2   # pre-materialized Samples (snapshot restore, fault perturbation)

#: numpy engages only for segments at least this long; smaller segments use
#: a (byte-identical) per-sample loop, whose fixed cost is lower than array
#: setup.  The property tests sweep sizes on both sides of this threshold.
VECTOR_MIN = 16

#: int64/float64 safety ceiling for the vector paths.  Beyond ~2^62 the
#: intermediate ``k*period - accum`` / ``base + k*period`` math can overflow
#: int64 under numpy, and ``cpu_offset * rate`` loses integer precision in
#: float64; segments whose values reach this range take the exact
#: arbitrary-precision scalar path instead (same bytes, no wraparound).
SAFE_TIME_MAX = 1 << 62

_new = tuple.__new__


def _affine_times(n: int, base: int, period: int) -> List[int]:
    """[base + k*period for k in 1..n], vectorized when it pays off."""
    if n >= VECTOR_MIN and 0 <= base + n * period < SAFE_TIME_MAX and base > -SAFE_TIME_MAX:
        np = _require_numpy()
        return (base + period * np.arange(1, n + 1, dtype=np.int64)).tolist()
    return [base + k * period for k in range(1, n + 1)]


def _rescale_times(
    n: int, start_real: int, accum_before: int, rate: float, period: int, now: int
) -> List[int]:
    """Ceil-rounded rescale timestamps, clamped to the chunk edge ``now``.

    Per sample: float64 multiply then truncation toward zero.  numpy's
    int64->float64->int64 round trip performs the identical IEEE-754 double
    rounding and truncation, so the vector and per-sample paths are
    byte-identical below :data:`SAFE_TIME_MAX` (the property tests pin this).
    The clamp guards against float precision drift pushing a sample past the
    chunk edge at extreme virtual times (``when`` must never exceed ``now``).
    """
    if (
        n >= VECTOR_MIN
        and 0 <= now < SAFE_TIME_MAX
        and abs(start_real) < SAFE_TIME_MAX
        and n * period < SAFE_TIME_MAX
    ):
        np = _require_numpy()
        k = np.arange(1, n + 1, dtype=np.int64)
        cpu = k * period - accum_before
        when = start_real + (cpu.astype(np.float64) * rate).astype(np.int64)
        np.minimum(when, now, out=when)
        return when.tolist()
    out = []
    append = out.append
    for k in range(1, n + 1):
        when = start_real + int((k * period - accum_before) * rate)
        append(when if when <= now else now)
    return out


class ColumnarBuf:
    """A thread's buffered samples as run-length-encoded segments.

    One segment per ``Sampler.account`` call that produced samples: the
    sampled line, callchain, and function are constant across a chunk, so
    only the per-sample *timestamps* vary — and those are affine (or
    ceil-rescaled) functions of the sample index, stored as parameters and
    expanded on demand.  ``__iter__``/``materialize`` produce the
    :class:`Sample` tuples in order, for consumers that do not read
    segments (snapshot capture, fault perturbation, per-sample observers).
    """

    __slots__ = ("segs", "n")

    def __init__(self) -> None:
        self.segs: List[tuple] = []
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    def add_affine(self, n, tid, line, chain, func, base, period) -> None:
        self.segs.append((SEG_AFFINE, n, tid, line, chain, func, base, period))
        self.n += n

    def add_rescale(
        self, n, tid, line, chain, func, start_real, accum_before, rate, period, now
    ) -> None:
        self.segs.append(
            (SEG_RESCALE, n, tid, line, chain, func,
             start_real, accum_before, rate, period, now)
        )
        self.n += n

    def add_literal(self, samples) -> None:
        """Adopt pre-materialized Samples (snapshot restore, fault perturbation)."""
        samples = list(samples)
        if samples:
            self.segs.append((SEG_LITERAL, len(samples), samples))
            self.n += len(samples)

    def seg_times(self, seg: tuple) -> List[int]:
        """The segment's sample timestamps, in sample order."""
        kind = seg[0]
        if kind == SEG_AFFINE:
            return _affine_times(seg[1], seg[6], seg[7])
        if kind == SEG_RESCALE:
            return _rescale_times(seg[1], seg[6], seg[7], seg[8], seg[9], seg[10])
        return [s.time for s in seg[2]]

    def materialize(self) -> List[Sample]:
        """Expand every segment to its Sample tuples, in sample order."""
        out: List[Sample] = []
        for seg in self.segs:
            kind = seg[0]
            if kind == SEG_LITERAL:
                out.extend(seg[2])
                continue
            _, n, tid, line, chain, func = seg[:6]
            append = out.append
            for when in self.seg_times(seg):
                append(_new(Sample, (when, tid, line, chain, func)))
        return out

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.materialize())


class Sampler:
    """Generates samples from CPU-time accounting.

    The engine calls :meth:`account` every time a thread finishes executing a
    chunk of on-CPU work.  Returns a batch of samples ready for processing
    (a :class:`ColumnarBuf`, or ``None``), which the engine forwards to the
    profiler hook.
    """

    def __init__(self, period_ns: int, batch_size: int) -> None:
        if period_ns <= 0:
            raise ValueError("sample period must be positive")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.period_ns = period_ns
        self.batch_size = batch_size
        #: total samples generated, for overhead accounting and tests
        self.total_samples = 0

    def new_buffer(self, samples=None) -> ColumnarBuf:
        """A fresh buffer, or one holding ``samples`` as a literal segment."""
        buf = ColumnarBuf()
        if samples:
            buf.add_literal(samples)
        return buf

    def account(
        self,
        thread: "VThread",
        nominal_ns: int,
        now: int,
        allow_flush: bool = True,
        rate: float = 1.0,
    ) -> Optional[ColumnarBuf]:
        """Accrue ``nominal_ns`` of CPU time to ``thread``; maybe flush a batch.

        The thread's current activity line / callchain is captured for every
        sample that fires inside this span; sample timestamps are
        interpolated to the instant the thread's CPU clock crossed each
        period boundary (``rate`` = real ns per nominal ns for the chunk).
        With ``allow_flush=False`` (used during mid-chunk rescales) samples
        are buffered but no batch is returned, so the hook is only ever
        invoked at real chunk boundaries.
        """
        accum_before = thread.sample_accum
        thread.sample_accum += nominal_ns
        period = self.period_ns
        n = thread.sample_accum // period
        if n:
            thread.sample_accum -= n * period
            chain = thread.callchain()
            line0 = chain[0]
            func = thread.current_func()
            buf = thread.sample_buffer
            tid = thread.tid
            if rate == 1.0:
                # fast path: real time == nominal time, no rounding at all
                buf.add_affine(
                    n, tid, line0, chain, func,
                    now - nominal_ns - accum_before, period,
                )
            else:
                # The chunk-completion event was scheduled ceil(nominal*rate)
                # after the chunk started, so the span start must use the
                # same ceil rounding: with a floor here, start_real lands up
                # to 1 ns late and sample times can drift past the chunk
                # edge (`when > now` for the last sample).  The clamp in
                # _rescale_times guards the residual failure mode: at
                # extreme virtual times (near 2^62) the float64 product
                # itself drifts by more than the ceil start absorbs, and a
                # sample must never postdate the chunk edge it was
                # delivered at.
                buf.add_rescale(
                    n, tid, line0, chain, func,
                    now - math.ceil(nominal_ns * rate),
                    accum_before, rate, period, now,
                )
            self.total_samples += n
        if allow_flush and thread.sample_buffer.n >= self.batch_size:
            batch = thread.sample_buffer
            thread.sample_buffer = self.new_buffer()
            return batch
        return None

    def drain(self, thread: "VThread") -> ColumnarBuf:
        """Flush whatever is buffered, regardless of batch size."""
        batch = thread.sample_buffer
        thread.sample_buffer = self.new_buffer()
        return batch
