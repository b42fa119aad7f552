"""Binary columnar wire for ProfileData (repro.core.binwire).

The codec's contract is strict: ``from_bytes(to_bytes(data))`` must render
the *same JSON bytes* as ``data`` itself — the binary wire is an identity-
preserving transport, not a lossy compression.  Every test here asserts
byte equality on the JSON view, not structural equality, because the JSON
wire is what fingerprints, journals, and the service result docs
canonicalize.
"""

import json

import pytest

from repro.core import binwire
from repro.core.experiment import ExperimentResult
from repro.core.profile_data import ProfileData, RunFailure, RunInfo
from repro.sim.clock import MS
from repro.sim.source import line

L1 = line("alpha.c:10")
L2 = line("alpha.c:999")
L3 = line("beta.c:7")


def exp(src, pct, start=0, eff_ms=10, delay_count=3, delay_ns=1000):
    dur = MS(eff_ms) + delay_count * delay_ns
    return ExperimentResult(
        line=src,
        speedup_pct=pct,
        delay_ns=delay_ns,
        start_ns=start,
        end_ns=start + dur,
        delay_count=delay_count,
        selected_samples=17,
        visits={"end": 5, "start": 2},
    )


def sample_data(seed=0):
    d = ProfileData()
    d.add_experiment(exp(L1, 0, start=seed))
    d.add_experiment(exp(L1, 50, start=MS(20) + seed))
    d.add_experiment(exp(L2, 25, start=MS(40) + seed))
    run = RunInfo(runtime_ns=MS(1000) + seed, total_delay_ns=MS(3))
    run.line_samples.update({L2: 40, L1: 120})
    d.add_run(run)
    run2 = RunInfo(runtime_ns=MS(990), total_delay_ns=0)
    run2.line_samples.update({L3: 9})
    d.add_run(run2)
    return d


def assert_wire_identity(data):
    wire = data.to_json()
    blob = data.to_bytes()
    decoded = ProfileData.from_bytes(blob)
    assert decoded.to_json() == wire
    assert decoded == data
    return blob


def test_round_trip_byte_identity():
    blob = assert_wire_identity(sample_data())
    assert blob[:4] == binwire.MAGIC


#: ``sample_data().to_bytes()`` as the codec wrote it before the framing
#: moved into ``repro.storage`` (uncompressed: flag byte 0)
PINNED_RPDB = bytes.fromhex(
    "5250444201000400000007000000616c7068612e6306000000626574612e6303"
    "000000656e64050000007374617274010300000000000102030000000a00e703"
    "070003000000010300000000000101030000000032190203000000e803e803e8"
    "03040300000000000000002d3101005a6202040300000038a2980038cfc90138"
    "fcfa020103000000030303010300000011111101030000000202020106000000"
    "0203020302030106000000050205020502010300000000000001000000000100"
    "00000001030000000000000100000000010000000002000000040200000000ca"
    "9a3b8033023b0402000000c0c62d000000000001020000000201010300000000"
    "0102010300000078280900000000"
)


def test_pinned_blob_decodes_and_reencodes_byte_for_byte():
    assert PINNED_RPDB[:6] == b"RPDB" + bytes([1, 0])  # magic, version, flags
    assert ProfileData.from_bytes(PINNED_RPDB).to_json() == sample_data().to_json()
    assert binwire.encode_profile(sample_data()) == PINNED_RPDB


def test_round_trip_empty_profile():
    assert_wire_identity(ProfileData())


def test_round_trip_with_failures():
    d = sample_data()
    d.add_failure(RunFailure(
        index=2, seed=7, error_type="ThreadCrashFault",
        message="injected crash on thread 3", virtual_ns=MS(12), attempts=2,
    ))
    d.add_failure(RunFailure(
        index=3, seed=8, error_type="WorkerHungError", message="",
    ))
    wire = json.loads(d.to_json())
    assert "failures" in wire  # degraded sessions keep their failure records
    assert_wire_identity(d)


def test_round_trip_huge_ints_uses_json_fallback():
    # values outside i64 cannot ride the packed integer columns; the codec
    # must fall back (per column) without breaking identity
    d = sample_data()
    run = RunInfo(runtime_ns=2 ** 67, total_delay_ns=0)
    run.line_samples.update({L1: 2 ** 70})
    d.add_run(run)
    assert_wire_identity(d)


def test_binary_decode_matches_v1_and_v2_json_decode():
    d = sample_data()
    v2_doc = d.to_json()
    # hand-build the v1 wire (inline [file, lineno] pairs, no line table)
    doc = json.loads(v2_doc)
    lines = doc.pop("lines")
    doc["version"] = 1
    for e in doc["experiments"]:
        e["line"] = lines[e["line"]]
    for r in doc["runs"]:
        r["line_samples"] = [
            [lines[i][0], lines[i][1], n] for i, n in r["line_samples"]
        ]
    v1_doc = json.dumps(doc)
    from_v1 = ProfileData.from_json(v1_doc)
    from_v2 = ProfileData.from_json(v2_doc)
    from_bin = ProfileData.from_bytes(d.to_bytes())
    assert from_v1.to_json() == v2_doc
    assert from_v2.to_json() == v2_doc
    assert from_bin.to_json() == v2_doc


def test_rejects_unknown_version_and_garbage():
    blob = bytearray(sample_data().to_bytes())
    assert blob[:4] == binwire.MAGIC
    blob[4] = 99  # future container version
    with pytest.raises(binwire.BinaryWireError):
        ProfileData.from_bytes(bytes(blob))
    with pytest.raises(binwire.BinaryWireError):
        ProfileData.from_bytes(b"definitely not a profile blob")
    with pytest.raises(binwire.BinaryWireError):
        ProfileData.from_bytes(binwire.MAGIC + bytes([binwire.VERSION]))


def test_truncated_blob_raises():
    blob = sample_data().to_bytes()
    with pytest.raises(binwire.BinaryWireError):
        ProfileData.from_bytes(blob[: len(blob) // 2])


def test_struct_fallback_is_byte_identical_to_numpy(monkeypatch):
    d = sample_data()
    with_np = d.to_bytes()
    monkeypatch.setattr(binwire, "_np", None)
    without_np = d.to_bytes()
    assert with_np == without_np
    assert ProfileData.from_bytes(without_np).to_json() == d.to_json()


def test_large_profile_takes_compressed_path():
    d = ProfileData()
    for i in range(40):
        d.add_experiment(exp(L1 if i % 2 else L2, (i % 4) * 25, start=i * MS(5)))
    for i in range(20):
        run = RunInfo(runtime_ns=MS(500) + i, total_delay_ns=i * 1000)
        run.line_samples.update({L1: 100 + i, L2: 50, L3: i})
        d.add_run(run)
    blob = assert_wire_identity(d)
    # body big enough to qualify for compression; flag byte records it
    assert len(d.to_json().encode()) >= binwire._COMPRESS_MIN
    assert len(blob) < len(d.to_json().encode())


def test_wire_ratio_beats_json_substantially():
    d = ProfileData()
    for i in range(30):
        d.add_experiment(exp(L1, (i % 4) * 25, start=i * MS(5)))
    for i in range(30):
        run = RunInfo(runtime_ns=MS(500), total_delay_ns=0)
        run.line_samples.update({L1: 100, L2: 50 + i})
        d.add_run(run)
    json_bytes = len(d.to_json().encode())
    bin_bytes = len(d.to_bytes())
    assert bin_bytes * 5 <= json_bytes  # the PR's >=5x acceptance floor


def test_interned_indices_do_not_leak_across_documents():
    # two profiles sharing some lines: each document's line table must be
    # local (indices dense from 0, first-encounter order), regardless of
    # what the process-global intern table saw first
    a = sample_data()
    b = ProfileData()
    b.add_experiment(exp(L3, 0))
    b.add_experiment(exp(L1, 75, start=MS(30)))
    a.to_bytes()  # interns a's lines first
    doc_b = json.loads(b.to_json())
    assert doc_b["lines"] == [["beta.c", 7], ["alpha.c", 10]]
    assert [e["line"] for e in doc_b["experiments"]] == [0, 1]
    assert_wire_identity(b)
    assert_wire_identity(a)
