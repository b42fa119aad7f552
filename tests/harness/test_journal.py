"""Crash-safe session journal: wire format, torn-tail tolerance,
fingerprint guarding, and checkpoint/resume bit-identity."""

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import registry
from repro.apps.dedup import build_dedup
from repro.apps.example import build_example
from repro.core.profile_data import RunFailure
from repro.harness import (
    ExecutionConfig,
    JournalError,
    ProfileRequest,
    ResilienceConfig,
    RunOutput,
    SessionJournal,
    compare_builds,
    run_profile_session,
    session_fingerprint,
)
from repro.harness.journal import DEFAULT_SEGMENT, _output, _record, canonical

FP = {"kind": "test-session", "app": "example", "runs": 3, "base_seed": 0}

DATA = Path(__file__).parent / "data"


def _run_record(journal, index, seed=None):
    journal.record_run(DEFAULT_SEGMENT, RunOutput(
        index=index,
        seed=index if seed is None else seed,
        run={"runtime_ns": 100 + index},
        data_bin=json.dumps({"version": 1, "runs": [], "experiments": []}).encode(),
    ))


# -- wire format / roundtrip ---------------------------------------------------------


def test_create_resume_roundtrip(tmp_path):
    path = tmp_path / "session.jsonl"
    with SessionJournal.create(path, FP) as j:
        _run_record(j, 0)
        _run_record(j, 1)
        failure = RunFailure(index=2, seed=2, error_type="DeadlockError", message="stuck")
        j.record_failure(
            DEFAULT_SEGMENT, RunOutput(index=2, seed=2, failure=failure.to_dict())
        )

    resumed = SessionJournal.resume(path, FP)
    try:
        completed = resumed.completed(DEFAULT_SEGMENT)
        assert sorted(completed) == [0, 1, 2]
        assert not completed[0].failed
        assert completed[0].run == {"runtime_ns": 100}
        assert completed[2].failed
        assert completed[2].run_failure() == failure
    finally:
        resumed.close()


def test_record_mapping_round_trips_run_outputs():
    """A journal record holds a whole RunOutput: run, failure, unprofiled."""
    spec = registry.build("example")
    cfg = replace(_default_cfg(spec), audit=True)
    audited = run_profile_session(spec, ProfileRequest(runs=1, coz_config=cfg))
    failure = RunFailure(index=3, seed=9, error_type="DeadlockError", message="x")
    outputs = [
        RunOutput(
            index=0, seed=0, run={"runtime_ns": 5},
            data_bin=audited.data.to_bytes(),
            audit_json=audited.audit.to_json(),
        ),
        RunOutput(index=3, seed=9, failure=failure.to_dict()),
        RunOutput(index=1, seed=1, run={"runtime_ns": 7}),
    ]
    for out in outputs:
        doc = json.loads(json.dumps(_record("seg", out)))
        assert doc["segment"] == "seg"
        back = _output(doc)
        assert back == out
        assert back.profile_data() == out.profile_data()
        assert _record("seg", back) == doc


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
        j.record_run("baseline", RunOutput(index=0, seed=0, run={"runtime_ns": 1}))
        j.record_run("optimized", RunOutput(index=0, seed=0, run={"runtime_ns": 2}))
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
        ProfileRequest(runs=3, execution=ExecutionConfig(jobs=4)),
        ProfileRequest(runs=3, execution=ExecutionConfig(batch_runs=1)),
        ProfileRequest(runs=3, coz_config=replace(_default_cfg(spec), audit=True)),
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
        spec,
        ProfileRequest(
            runs=runs,
            resilience=ResilienceConfig(journal=path, stop_after_runs=2),
        ),
    )
    assert len(partial.run_results) == 2
    resumed = run_profile_session(
        spec, ProfileRequest(runs=runs, resilience=ResilienceConfig(resume=path))
    )

    assert resumed.data == uninterrupted.data
    assert resumed.data.to_json() == uninterrupted.data.to_json()
    assert [r.runtime_ns for r in resumed.run_results] == [
        r.runtime_ns for r in uninterrupted.run_results
    ]


def test_resume_with_nothing_left_replays_everything(tmp_path):
    spec = registry.build("example")
    path = str(tmp_path / "session.jsonl")
    full = run_profile_session(
        spec, ProfileRequest(runs=3, resilience=ResilienceConfig(journal=path))
    )
    replayed = run_profile_session(
        spec, ProfileRequest(runs=3, resilience=ResilienceConfig(resume=path))
    )
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
    run_profile_session(
        registry.build("example"),
        ProfileRequest(runs=2, resilience=ResilienceConfig(journal=path)),
    )
    with pytest.raises(JournalError, match="different session"):
        run_profile_session(
            registry.build("ferret"),
            ProfileRequest(runs=2, resilience=ResilienceConfig(resume=path)),
        )


def test_compare_resume_refuses_other_programs_journal(tmp_path):
    # the journal names each side's program by its registry ref, knobs
    # included: the same app at another size is another program
    path = str(tmp_path / "compare.jsonl")
    compare_builds(
        "ferret",
        registry.build("ferret", n_queries=100),
        registry.build("ferret", optimized=True, n_queries=100),
        runs=2, journal=path,
    )
    with pytest.raises(JournalError, match="different session"):
        compare_builds(
            "ferret",
            registry.build("ferret", n_queries=300),
            registry.build("ferret", optimized=True, n_queries=300),
            runs=2, resume=path,
        )


def test_unregistered_specs_are_refused_a_journal(tmp_path):
    """A spec built without the registry has no identity beyond its name,
    so its journal would resume under another program of that name: both
    sessions refuse it before running anything."""
    path = tmp_path / "unregistered.jsonl"
    with pytest.raises(ValueError, match="registry"):
        compare_builds(
            "dedup",
            build_dedup("original", n_blocks=200),
            build_dedup("xor", n_blocks=200),
            runs=2, journal=str(path),
        )
    with pytest.raises(ValueError, match="registry"):
        run_profile_session(
            build_example(rounds=3),
            ProfileRequest(runs=2, resilience=ResilienceConfig(journal=str(path))),
        )
    assert not path.exists()


# -- exclusive create ------------------------------------------------------------


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


# -- the on-disk format is stable --------------------------------------------------

#: sha256 of the journal of a 2-run ``example`` session at defaults; the
#: serial and the pooled session write the same bytes
EXAMPLE_JOURNAL_SHA256 = (
    "e17708cf6b02764ffd8eb446815c6020b9a55e6d8b0caa9f79f7b88ba5223547"
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_journal_bytes_are_pinned(tmp_path, jobs):
    path = tmp_path / "session.jsonl"
    run_profile_session(registry.build("example"), ProfileRequest(
        runs=2,
        execution=ExecutionConfig(jobs=jobs),
        resilience=ResilienceConfig(journal=str(path)),
    ))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXAMPLE_JOURNAL_SHA256


def test_stored_version_1_journal_resumes_to_the_same_profile(tmp_path):
    """A journal written when run records were still converted to and from
    a separate record type resumes to the uninterrupted session's bytes.

    ``data/example_chaos_v1.jsonl`` holds runs 0-2 of a 4-run ``example``
    session under ``FaultPlan.chaos(seed=3, intensity=0.25)``: two run
    records and one failure record.  Resuming replays them and executes
    run 3.  The pinned hash is of that uninterrupted session's merged
    ``ProfileData.to_bytes()``.  The fixture's failure record still carries
    the ``attempts`` key that failure records no longer write; reading
    ignores it.
    """
    from repro.sim.faults import FaultPlan

    path = tmp_path / "session.jsonl"
    shutil.copyfile(DATA / "example_chaos_v1.jsonl", path)
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert kinds == ["header", "run", "run", "failure"]
    resumed = run_profile_session(registry.build("example"), ProfileRequest(
        runs=4,
        resilience=ResilienceConfig(
            faults=FaultPlan.chaos(seed=3, intensity=0.25), resume=str(path)
        ),
    ))
    assert len(resumed.data.failures) == 1 and len(resumed.data.runs) == 3
    assert hashlib.sha256(resumed.data.to_bytes()).hexdigest() == (
        "a41d9af119f767fd439ea9693d0445fe47546ff70dcdc957c311173eb601b735"
    )
