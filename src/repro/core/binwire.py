"""Binary columnar wire format for :class:`~repro.core.profile_data.ProfileData`.

The JSON wire (``ProfileData.to_json``) is the debugging/journal view: it
is self-describing and diffable, but a sample-heavy session pays for every
repeated key name and every decimal digit of its nanosecond counters.  The
binary wire stores the same document *columnar*: one string table, one
interned line table, and each experiment/run field as a packed integer
column with an adaptively chosen width (i8/i16/i32/i64) and optional
delta pre-coding for the monotonic timestamp columns.  The whole body is
deflate-compressed when that pays.

Layout (version 1, little-endian throughout; magic and version are the
:func:`repro.storage.frame` header)::

    magic  b"RPDB"
    u8     version (= 1)
    u8     flags   (bit 0: body is zlib-compressed)
    body:
      strings   u32 count, then per string: u32 byte-length + UTF-8
                (file names first, then progress-point names; one table)
      lines     column file_string_idx, column lineno
      u32 n_experiments
      columns   line_idx, speedup_pct, delay_ns, start_ns, end_ns,
                delay_count, selected_samples
      3 sparse dict blocks (visits, counts_before, counts_after), each:
                column per-experiment entry count,
                column flattened key_string_idx, column flattened value
      u32 n_runs
      columns   runtime_ns, total_delay_ns
      sparse    per-run pair count, flattened line_idx, flattened count
      failures  u32 byte-length + JSON UTF-8 (empty = no failures)

    column := u8 code + u32 count + payload
              code & 0x0F: element width in bytes (1/2/4/8, signed)
              code & 0x10: values are delta-encoded (cumsum to decode)
              code == 0x7F: JSON fallback (ints outside i64)

Ordering mirrors ``to_json`` exactly — line-table indices are assigned
first-encounter over experiments then runs, per-experiment dict keys keep
insertion order, per-run line samples are sorted — so
``decode_profile(encode_profile(d)).to_json() == d.to_json()``
byte-for-byte.  Packing uses numpy when available and falls back to
:mod:`struct`; both produce identical bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List

from repro.core.experiment import ExperimentResult
from repro.core.profile_data import ProfileData, RunFailure, RunInfo
from repro.sim.source import SourceLine, intern_line
from repro.storage import frame, unframe

try:  # pragma: no cover - exercised via both branches in tests
    import numpy as _np
except Exception:  # pragma: no cover - numpy is normally available
    _np = None

MAGIC = b"RPDB"
VERSION = 1

#: body sizes below this stay uncompressed (zlib overhead beats the win)
_COMPRESS_MIN = 512

_JSON_CODE = 0x7F
_DELTA_FLAG = 0x10
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
_WIDTH_FMT = {1: "b", 2: "h", 4: "i", 8: "q"}
_WIDTH_BOUNDS = {
    1: (-(2 ** 7), 2 ** 7 - 1),
    2: (-(2 ** 15), 2 ** 15 - 1),
    4: (-(2 ** 31), 2 ** 31 - 1),
}


class BinaryWireError(ValueError):
    """The blob is not a (supported) ProfileData binary document."""


def _width_for(lo: int, hi: int) -> int:
    for width in (1, 2, 4):
        wlo, whi = _WIDTH_BOUNDS[width]
        if wlo <= lo and hi <= whi:
            return width
    return 8


def _raw_pack(values: List[int], width: int) -> bytes:
    if _np is not None:
        return _np.asarray(values, dtype=f"<i{width}").tobytes()
    return struct.pack(f"<{len(values)}{_WIDTH_FMT[width]}", *values)


def _raw_unpack(payload: bytes, count: int, width: int) -> List[int]:
    if _np is not None:
        return _np.frombuffer(payload, dtype=f"<i{width}", count=count).tolist()
    return list(struct.unpack(f"<{count}{_WIDTH_FMT[width]}", payload))


def pack_ints(values: List[int], delta: bool = False) -> bytes:
    """One packed column: code byte, u32 count, adaptive-width payload.

    ``delta`` stores successive differences (the first value verbatim) —
    smaller widths and better deflate runs for near-monotonic columns like
    experiment timestamps.  Falls back to a JSON payload for ints outside
    the i64 range (arbitrary-precision Python ints are legal field values,
    if never seen in practice).
    """
    n = len(values)
    if n == 0:
        return bytes([1]) + struct.pack("<I", 0)
    lo, hi = min(values), max(values)
    if lo < _I64_MIN or hi > _I64_MAX:
        payload = json.dumps(values, separators=(",", ":")).encode("utf-8")
        return bytes([_JSON_CODE]) + struct.pack("<I", n) + payload
    code = 0
    if delta:
        deltas = [values[0]]
        prev = values[0]
        for v in values[1:]:
            deltas.append(v - prev)
            prev = v
        dlo, dhi = min(deltas), max(deltas)
        if _I64_MIN <= dlo and dhi <= _I64_MAX:
            dwidth = _width_for(dlo, dhi)
            if dwidth < _width_for(lo, hi):
                values, lo, hi = deltas, dlo, dhi
                code = _DELTA_FLAG
    width = _width_for(lo, hi)
    return bytes([code | width]) + struct.pack("<I", n) + _raw_pack(values, width)


class _Reader:
    """Cursor over one body; every read advances it."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise BinaryWireError("truncated ProfileData binary document")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def ints(self) -> List[int]:
        code = self.take(1)[0]
        n = self.u32()
        if n == 0:
            return []
        if code == _JSON_CODE:
            # JSON payload runs to a self-delimiting bracket; scan via loads
            # of the remaining buffer is unsafe, so length-prefix it instead
            raise BinaryWireError("JSON column without length prefix")
        width = code & 0x0F
        if width not in _WIDTH_FMT:
            raise BinaryWireError(f"bad column width code {code:#x}")
        values = _raw_unpack(self.take(n * width), n, width)
        if code & _DELTA_FLAG:
            total = 0
            out = []
            for v in values:
                total += v
                out.append(total)
            return out
        return values

    def blob(self) -> bytes:
        return self.take(self.u32())

    def string(self) -> str:
        return self.blob().decode("utf-8")


# the JSON-fallback column needs a length prefix to be skippable; emit it
# as blob-wrapped and route reads through this pair instead of raw ints
def _put_column(out: List[bytes], values: List[int], delta: bool = False) -> None:
    col = pack_ints(values, delta=delta)
    if col[0] == _JSON_CODE:
        out.append(bytes([_JSON_CODE]) + struct.pack("<I", len(col) - 5) + col[5:])
    else:
        out.append(col)


def _read_column(r: _Reader) -> List[int]:
    if r.buf[r.pos] == _JSON_CODE:
        r.take(1)
        return [int(v) for v in json.loads(r.blob().decode("utf-8"))]
    return r.ints()


def _put_str(out: List[bytes], s: str) -> None:
    b = s.encode("utf-8")
    out.append(struct.pack("<I", len(b)))
    out.append(b)


def _put_dicts(
    out: List[bytes], dicts: List[Dict[str, int]], strings: Dict[str, int]
) -> None:
    lens: List[int] = []
    keys: List[int] = []
    vals: List[int] = []
    for d in dicts:
        lens.append(len(d))
        for k, v in d.items():
            keys.append(strings.setdefault(k, len(strings)))
            vals.append(v)
    _put_column(out, lens)
    _put_column(out, keys)
    _put_column(out, vals)


def _read_dicts(r: _Reader, n: int, names: List[str]) -> List[Dict[str, int]]:
    lens = _read_column(r)
    keys = _read_column(r)
    vals = _read_column(r)
    if len(lens) != n or len(keys) != len(vals) or sum(lens) != len(keys):
        raise BinaryWireError("inconsistent dict block")
    dicts: List[Dict[str, int]] = []
    pos = 0
    for ln in lens:
        d: Dict[str, int] = {}
        for i in range(pos, pos + ln):
            d[names[keys[i]]] = vals[i]
        pos += ln
        dicts.append(d)
    return dicts


def encode_profile(data: ProfileData) -> bytes:
    """Serialize ``data`` to the binary columnar wire (see module doc)."""
    lines: Dict[SourceLine, int] = {}
    strings: Dict[str, int] = {}

    exps = data.experiments
    line_idx = [lines.setdefault(e.line, len(lines)) for e in exps]

    runs_sorted = [sorted(r.line_samples.items()) for r in data.runs]
    # reserve line-table slots in to_json's first-encounter order
    for samples in runs_sorted:
        for src, _ in samples:
            lines.setdefault(src, len(lines))
    # file strings in line-table order, before any progress-point names
    for src in lines:
        strings.setdefault(src.file, len(strings))

    exp_block: List[bytes] = []
    _put_column(exp_block, line_idx)
    _put_column(exp_block, [e.speedup_pct for e in exps])
    _put_column(exp_block, [e.delay_ns for e in exps])
    _put_column(exp_block, [e.start_ns for e in exps], delta=True)
    _put_column(exp_block, [e.end_ns for e in exps], delta=True)
    _put_column(exp_block, [e.delay_count for e in exps])
    _put_column(exp_block, [e.selected_samples for e in exps])
    _put_dicts(exp_block, [e.visits for e in exps], strings)
    _put_dicts(exp_block, [e.counts_before for e in exps], strings)
    _put_dicts(exp_block, [e.counts_after for e in exps], strings)

    run_block: List[bytes] = []
    _put_column(run_block, [r.runtime_ns for r in data.runs])
    _put_column(run_block, [r.total_delay_ns for r in data.runs])
    _put_column(run_block, [len(s) for s in runs_sorted])
    _put_column(run_block, [lines[src] for s in runs_sorted for src, _ in s])
    _put_column(run_block, [n for s in runs_sorted for _, n in s])

    out: List[bytes] = []
    str_list = list(strings)
    out.append(struct.pack("<I", len(str_list)))
    for s in str_list:
        _put_str(out, s)
    _put_column(out, [strings[src.file] for src in lines])
    _put_column(out, [src.lineno for src in lines])
    out.append(struct.pack("<I", len(exps)))
    out.extend(exp_block)
    out.append(struct.pack("<I", len(data.runs)))
    out.extend(run_block)
    if data.failures:
        fail = json.dumps(
            [f.to_dict() for f in data.failures], separators=(",", ":")
        ).encode("utf-8")
    else:
        fail = b""
    out.append(struct.pack("<I", len(fail)))
    out.append(fail)

    payload = b"".join(out)
    flags = 0
    if len(payload) >= _COMPRESS_MIN:
        packed = zlib.compress(payload, 6)
        if len(packed) < len(payload):
            payload = packed
            flags |= 1
    return frame(MAGIC, VERSION, bytes([flags]) + payload)


def decode_profile(blob: bytes) -> ProfileData:
    """Rebuild a :class:`ProfileData` from :func:`encode_profile` output."""
    body = unframe(blob, MAGIC, VERSION, BinaryWireError)
    if not body:
        raise BinaryWireError("truncated ProfileData binary document")
    flags, payload = body[0], body[1:]
    if flags & 1:
        payload = zlib.decompress(payload)
    r = _Reader(payload)

    names = [r.string() for _ in range(r.u32())]
    file_idx = _read_column(r)
    linenos = _read_column(r)
    if len(file_idx) != len(linenos):
        raise BinaryWireError("inconsistent line table")
    table = [
        intern_line(names[fi], ln) for fi, ln in zip(file_idx, linenos)
    ]

    data = ProfileData()
    n_exp = r.u32()
    line_i = _read_column(r)
    speedup = _read_column(r)
    delay_ns = _read_column(r)
    start_ns = _read_column(r)
    end_ns = _read_column(r)
    delay_count = _read_column(r)
    selected = _read_column(r)
    visits = _read_dicts(r, n_exp, names)
    before = _read_dicts(r, n_exp, names)
    after = _read_dicts(r, n_exp, names)
    cols = (line_i, speedup, delay_ns, start_ns, end_ns, delay_count, selected)
    if any(len(c) != n_exp for c in cols):
        raise BinaryWireError("inconsistent experiment columns")
    for i in range(n_exp):
        data.add_experiment(ExperimentResult(
            line=table[line_i[i]],
            speedup_pct=speedup[i],
            delay_ns=delay_ns[i],
            start_ns=start_ns[i],
            end_ns=end_ns[i],
            delay_count=delay_count[i],
            selected_samples=selected[i],
            visits=visits[i],
            counts_before=before[i],
            counts_after=after[i],
        ))

    n_runs = r.u32()
    runtime = _read_column(r)
    total_delay = _read_column(r)
    sample_lens = _read_column(r)
    sample_lines = _read_column(r)
    sample_counts = _read_column(r)
    if (
        len(runtime) != n_runs
        or len(total_delay) != n_runs
        or len(sample_lens) != n_runs
        or sum(sample_lens) != len(sample_lines)
        or len(sample_lines) != len(sample_counts)
    ):
        raise BinaryWireError("inconsistent run columns")
    pos = 0
    for i in range(n_runs):
        info = RunInfo(runtime_ns=runtime[i], total_delay_ns=total_delay[i])
        for j in range(pos, pos + sample_lens[i]):
            info.line_samples[table[sample_lines[j]]] = sample_counts[j]
        pos += sample_lens[i]
        data.add_run(info)

    fail = r.blob()
    if fail:
        for fd in json.loads(fail.decode("utf-8")):
            data.add_failure(RunFailure.from_dict(fd))
    return data
