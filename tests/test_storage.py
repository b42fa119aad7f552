"""The storage primitives (repro.storage) and the rule that they are the
only code that frames, atomically writes, or fsyncs durable bytes."""

import json
import os
import re
import warnings

import pytest

import repro
from repro.storage import LRU, AppendLog, frame, unframe, write_once

SRC = os.path.dirname(repro.__file__)


def _sources():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, SRC), fh.read()


def test_durable_writes_and_magic_checks_live_only_in_storage():
    """One owner per byte discipline: no module but storage.py fsyncs,
    renames into place, or compares a container magic."""
    durable = re.compile(r"\bos\.(fsync|replace)\(")
    magic_check = re.compile(
        r"(==|!=)\s*[\w.]*MAGIC\b|\bMAGIC\s*(==|!=)|startswith\([\w.]*MAGIC"
    )
    offenders = [
        rel
        for rel, text in _sources()
        if rel != "storage.py" and (durable.search(text) or magic_check.search(text))
    ]
    assert offenders == []


def test_storage_imports_nothing_from_repro():
    with open(os.path.join(SRC, "storage.py"), encoding="utf-8") as fh:
        text = fh.read()
    assert not re.search(r"^\s*(from|import) repro\b", text, re.MULTILINE)


# -- framing -------------------------------------------------------------------


def test_frame_round_trips_and_unframe_rejects_foreign_blobs():
    blob = frame(b"TEST", 3, b"body")
    assert blob == b"TEST\x03body"
    assert unframe(blob, b"TEST", 3, KeyError) == b"body"
    with pytest.raises(KeyError, match="not a TEST container"):
        unframe(b"XXXX\x03body", b"TEST", 3, KeyError)
    with pytest.raises(KeyError, match="not a TEST container"):
        unframe(b"TEST", b"TEST", 3, KeyError)  # truncated header
    with pytest.raises(KeyError, match="container version 4"):
        unframe(b"TEST\x04body", b"TEST", 3, KeyError)


# -- write_once ----------------------------------------------------------------


def test_write_once_first_writer_wins(tmp_path):
    path = str(tmp_path / "x.bin")
    write_once(path, b"first", fsync=True)
    write_once(path, b"second", fsync=False)
    assert open(path, "rb").read() == b"first"
    assert os.listdir(tmp_path) == ["x.bin"]


def test_write_once_removes_its_temporary_on_error(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        write_once(str(tmp_path / "x.bin"), b"data", fsync=False)
    assert os.listdir(tmp_path) == []


# -- AppendLog -----------------------------------------------------------------


def _log_with_tail(tmp_path, tail: str) -> AppendLog:
    log = AppendLog(tmp_path / "log.jsonl")
    log.create()
    log.append({"n": 0})
    log.close()
    with open(log.path, "a") as fh:
        fh.write(tail)
    return AppendLog(log.path)


@pytest.mark.parametrize("tail", ['{"n": 1', '{"n": 1}', "\x00\x00\x00\n"])
def test_torn_final_line_is_dropped_then_truncated(tmp_path, tail):
    """Undecodable, newline-less, or zero-filled: the final line was never
    acknowledged, so it is dropped and the next record starts clean."""
    log = _log_with_tail(tmp_path, tail)
    with pytest.warns(UserWarning, match="torn final record"):
        assert log.replay() == [{"n": 0}]
    log.append({"n": 2})
    log.close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert AppendLog(log.path).replay() == [{"n": 0}, {"n": 2}]
    assert open(log.path).read() == '{"n":0}\n{"n":2}\n'


def test_undecodable_non_final_line_raises(tmp_path):
    log = _log_with_tail(tmp_path, 'oops\n{"n": 1}\n')
    with pytest.raises(ValueError, match="corrupt at line 2"):
        log.replay()


def test_missing_log_replays_empty_and_create_is_exclusive(tmp_path):
    log = AppendLog(tmp_path / "log.jsonl")
    assert log.replay() == []
    log.create()
    with pytest.raises(FileExistsError):
        AppendLog(log.path).create()
    log.close()


def test_append_writes_one_compact_line_per_record(tmp_path):
    log = AppendLog(tmp_path / "log.jsonl")
    log.append({"b": 1, "a": [1, 2]})
    log.append({"c": None})
    log.close()
    lines = open(log.path).read().splitlines()
    assert lines == ['{"b":1,"a":[1,2]}', '{"c":null}']
    assert [json.loads(line) for line in lines] == AppendLog(log.path).replay()


# -- LRU -----------------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # "b" is now the oldest
    lru.put("c", 3)
    assert "b" not in lru and len(lru) == 2
    assert lru.get("b") is None and lru.get("c") == 3
    lru.clear()
    assert len(lru) == 0
