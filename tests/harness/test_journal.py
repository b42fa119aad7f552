"""Crash-safe session journal: wire format, torn-tail tolerance,
fingerprint guarding, and checkpoint/resume bit-identity."""

import json

import pytest

from repro.apps import registry
from repro.core.profile_data import RunFailure
from repro.harness import (
    JournalError,
    ProfileRequest,
    SessionJournal,
    run_profile_session,
    session_fingerprint,
)
from repro.harness.journal import DEFAULT_SEGMENT, canonical

FP = {"kind": "test-session", "app": "example", "runs": 3, "base_seed": 0}


def _run_record(journal, index, seed=None):
    journal.record_run(
        segment=DEFAULT_SEGMENT,
        index=index,
        seed=index if seed is None else seed,
        run={"runtime_ns": 100 + index},
        data_json=json.dumps({"version": 1, "runs": [], "experiments": []}),
    )


# -- wire format / roundtrip ---------------------------------------------------------


def test_create_resume_roundtrip(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
        _run_record(j, 1)
        j.record_failure(
            DEFAULT_SEGMENT,
            RunFailure(index=2, seed=2, error_type="DeadlockError", message="stuck"),
        )

    resumed = SessionJournal.resume(path, FP)
    try:
        completed = resumed.completed(DEFAULT_SEGMENT)
        assert sorted(completed) == [0, 1, 2]
        assert completed[0].kind == "run"
        assert completed[0].run == {"runtime_ns": 100}
        assert completed[2].kind == "failure"
        assert completed[2].failure["error_type"] == "DeadlockError"
    finally:
        resumed.close()


def test_records_are_one_json_object_per_line(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["version"] == 1
    assert json.loads(lines[1])["kind"] == "run"


def test_duplicate_index_keeps_first_record(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0, seed=7)
        _run_record(j, 0, seed=8)
    resumed = SessionJournal.resume(path, FP)
    resumed.close()
    assert resumed.completed(DEFAULT_SEGMENT)[0].seed == 7


def test_segments_partition_one_file(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        j.record_run("baseline", 0, 0, {"runtime_ns": 1}, "{}")
        j.record_run("optimized", 0, 0, {"runtime_ns": 2}, "{}")
    resumed = SessionJournal.resume(path, FP)
    resumed.close()
    assert resumed.completed("baseline")[0].run == {"runtime_ns": 1}
    assert resumed.completed("optimized")[0].run == {"runtime_ns": 2}
    assert resumed.completed(DEFAULT_SEGMENT) == {}


# -- corruption tolerance ------------------------------------------------------------


def test_torn_final_line_is_dropped_with_warning(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
        _run_record(j, 1)
    # simulate SIGKILL mid-append: the last record is half-written
    with open(path, "a") as fh:
        fh.write('{"kind": "run", "segment": "profile", "ind')

    with pytest.warns(UserWarning, match="torn final record"):
        resumed = SessionJournal.resume(path, FP)
    resumed.close()
    assert sorted(resumed.completed(DEFAULT_SEGMENT)) == [0, 1]


def test_torn_tail_is_truncated_before_the_next_append(tmp_path):
    """Regression: resume kept a torn tail in the file and the next append
    glued its record onto the fragment.  One later append was silently
    dropped as the "torn final record" on the next resume; two made the
    journal unresumable ("corrupt at line 3")."""
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
    with open(path, "a") as fh:  # SIGKILL mid-append
        fh.write('{"kind": "run", "segment": "profile", "ind')
    with pytest.warns(UserWarning, match="torn final record"):
        resumed = SessionJournal.resume(path, FP)
    with resumed:
        _run_record(resumed, 1)
        _run_record(resumed, 2)
    again = SessionJournal.resume(path, FP)
    again.close()
    assert sorted(again.completed(DEFAULT_SEGMENT)) == [0, 1, 2]
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and all(json.loads(line) for line in lines)


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
    text = path.read_text().splitlines()
    text.insert(1, "GARBAGE NOT JSON")
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(JournalError, match="corrupt at line 2"):
        SessionJournal.resume(path, FP)


def test_missing_or_empty_journal_raises(tmp_path):
    with pytest.raises(JournalError, match="does not exist"):
        SessionJournal.resume(tmp_path / "nope.jsonl", FP)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(JournalError, match="is empty"):
        SessionJournal.resume(empty, FP)


def test_wrong_version_refused(tmp_path):
    path = tmp_path / "session.jsonl"
    path.write_text(json.dumps({"kind": "header", "version": 99, "fingerprint": {}}) + "\n")
    with pytest.raises(JournalError, match="version"):
        SessionJournal.resume(path, FP)


# -- fingerprint guard ---------------------------------------------------------------


def test_fingerprint_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "session.jsonl"
    SessionJournal.create(path, FP).close()
    other = dict(FP, runs=5)
    with pytest.raises(JournalError, match="field 'runs' differs"):
        SessionJournal.resume(path, other)


def test_fingerprint_excludes_execution_knobs():
    spec = registry.build("example")
    base = ProfileRequest(runs=3)
    fp = session_fingerprint(spec, base, base.coz_config or _default_cfg(spec))
    for variant in (
        ProfileRequest(runs=3, jobs=4),
        ProfileRequest(runs=3, timeout=9.0),
        ProfileRequest(runs=3, audit=True),
    ):
        assert session_fingerprint(
            spec, variant, variant.coz_config or _default_cfg(spec)
        ) == fp
    differs = ProfileRequest(runs=4)
    assert session_fingerprint(
        spec, differs, differs.coz_config or _default_cfg(spec)
    ) != fp


def _default_cfg(spec):
    from repro.core.config import CozConfig

    return CozConfig(scope=spec.scope)


def test_canonical_is_stable_and_json_safe():
    value = {"b": frozenset({3, 1, 2}), "a": (1, 2)}
    out = canonical(value)
    assert json.loads(json.dumps(out)) == out
    assert out == canonical({"a": [1, 2], "b": {1, 2, 3}})


# -- checkpoint/resume bit-identity --------------------------------------------------


def test_interrupted_session_resumes_bit_identically(tmp_path):
    spec = registry.build("example")
    path = str(tmp_path / "session.jsonl")
    runs = 4

    uninterrupted = run_profile_session(spec, ProfileRequest(runs=runs))

    # die after 2 of 4 runs, then resume
    partial = run_profile_session(
        spec, ProfileRequest(runs=runs, journal=path, stop_after_runs=2)
    )
    assert len(partial.run_results) == 2
    resumed = run_profile_session(spec, ProfileRequest(runs=runs, resume=path))

    assert resumed.data == uninterrupted.data
    assert resumed.data.to_json() == uninterrupted.data.to_json()
    assert [r.runtime_ns for r in resumed.run_results] == [
        r.runtime_ns for r in uninterrupted.run_results
    ]


def test_resume_with_nothing_left_replays_everything(tmp_path):
    spec = registry.build("example")
    path = str(tmp_path / "session.jsonl")
    full = run_profile_session(spec, ProfileRequest(runs=3, journal=path))
    replayed = run_profile_session(spec, ProfileRequest(runs=3, resume=path))
    assert replayed.data == full.data


def test_compare_journals_unprofiled_runs_and_resumes(tmp_path):
    """Comparison runs carry no profile payload (``data`` is null); they
    must journal and replay all the same."""
    from repro.harness import compare_app

    path = str(tmp_path / "compare.jsonl")
    first = compare_app("ferret", runs=3, journal=path)
    # runs journaled under both segments, with null data payloads
    kinds = [json.loads(line) for line in open(path)]
    segs = {d.get("segment") for d in kinds if d["kind"] == "run"}
    assert segs == {"baseline", "optimized"}
    assert all(d["data"] is None for d in kinds if d["kind"] == "run")

    replayed = compare_app("ferret", runs=3, resume=path)
    assert replayed.baseline_ns == first.baseline_ns
    assert replayed.optimized_ns == first.optimized_ns


def test_resume_refuses_other_apps_journal(tmp_path):
    path = str(tmp_path / "session.jsonl")
    run_profile_session(registry.build("example"), ProfileRequest(runs=2, journal=path))
    with pytest.raises(JournalError, match="different session"):
        run_profile_session(registry.build("ferret"), ProfileRequest(runs=2, resume=path))


# -- exclusive create / create-or-resume -----------------------------------------


def test_create_refuses_to_truncate_existing_journal(tmp_path):
    """Regression: create() used mode "w", so pointing a fresh session at a
    finished journal silently erased every fsync'd record.  Creation is
    exclusive now — the existing file survives and the error is typed."""
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
    with pytest.raises(JournalError, match="refusing to truncate"):
        SessionJournal.create(path, FP)
    resumed = SessionJournal.resume(path, FP)
    try:
        assert sorted(resumed.completed(DEFAULT_SEGMENT)) == [0]
    finally:
        resumed.close()


def test_open_creates_fresh_then_resumes_existing(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.open(path, FP) as j:  # no file yet: creates
        _run_record(j, 0)
    with SessionJournal.open(path, FP) as j:  # file exists: resumes
        assert sorted(j.completed(DEFAULT_SEGMENT)) == [0]
        _run_record(j, 1)
    resumed = SessionJournal.resume(path, FP)
    try:
        assert sorted(resumed.completed(DEFAULT_SEGMENT)) == [0, 1]
    finally:
        resumed.close()


def test_open_replaces_headerless_journal(tmp_path):
    # a writer that died between exclusive create and the header fsync
    # leaves an empty file: nothing to preserve, recreate it (after the
    # grace window that guards against a live concurrent creator)
    path = tmp_path / "session.jsonl"
    path.write_text("")
    with SessionJournal.open(path, FP, grace_s=0.05) as j:
        _run_record(j, 0)
    resumed = SessionJournal.resume(path, FP)
    try:
        assert sorted(resumed.completed(DEFAULT_SEGMENT)) == [0]
    finally:
        resumed.close()


def test_open_waits_for_concurrent_creators_header(tmp_path):
    """Regression: open() treated 'no intact header' as a dead writer and
    unlinked immediately — but the loser of the create race can observe
    the winner's file before the winner's header line is flushed, and the
    unlink put two live writers on the same path.  open() now retries
    resume through a grace window instead."""
    import os
    import threading
    import time as time_mod

    path = tmp_path / "session.jsonl"
    # the "winner": holds the exclusively-created file, header not yet written
    winner = open(path, "x", encoding="utf-8")
    winner_ino = os.fstat(winner.fileno()).st_ino

    def flush_header():
        time_mod.sleep(0.1)
        winner.write(json.dumps({
            "kind": "header", "version": 1, "fingerprint": canonical(FP),
        }) + "\n")
        winner.flush()

    t = threading.Thread(target=flush_header)
    t.start()
    try:
        loser = SessionJournal.open(path, FP, grace_s=5.0)
    finally:
        t.join()
    try:
        # the loser resumed the winner's live file — same inode, never
        # unlinked and recreated out from under the winner
        assert os.stat(path).st_ino == winner_ino
        assert loser.records == []
        _run_record(loser, 0)
    finally:
        loser.close()
        winner.close()
    resumed = SessionJournal.resume(path, FP)
    try:
        assert sorted(resumed.completed(DEFAULT_SEGMENT)) == [0]
    finally:
        resumed.close()


def test_open_still_refuses_other_sessions_journal(tmp_path):
    # create-or-resume must not weaken the fingerprint guard
    path = tmp_path / "session.jsonl"
    SessionJournal.create(path, FP).close()
    with pytest.raises(JournalError, match="different session"):
        SessionJournal.open(path, {**FP, "runs": 99})
