"""Crash-safe session journal: checkpoint/resume for profiling sessions.

A causal-profiling session is many independent runs whose results merge in
run order.  That makes it checkpointable at run granularity: after every
completed (or failed) run, the harness appends one JSONL record to an
on-disk journal — a :class:`repro.storage.AppendLog`, fsync'd per record,
so a ``SIGKILL`` at any instant loses at most the record being written.  A
restarted session opens the journal, replays the completed runs verbatim
(the payload is the run's :meth:`ProfileData.to_json` wire document, which
is lossless), and executes only the remaining schedule.  Because run ``i``
is always seeded ``base_seed + i``, the resumed session needs no RNG
rewinding — the merged result is bit-identical to an uninterrupted
session, and ``repro doctor`` verifies exactly that.

Wire format (one JSON object per line):

* line 1 — header: ``{"kind": "header", "version": 1, "fingerprint":
  {...}}``.  The fingerprint captures everything that determines the
  session's results (app, runs, seeds, profiler config, fault plan —
  *not* execution-only knobs like ``jobs``); resuming under a different
  fingerprint is refused rather than silently merging incompatible data.
* run records: ``{"kind": "run", "segment": s, "index": i, "seed": n,
  "run": {...RunResult wire...}, "data": {...ProfileData wire...},
  "audit": {...} | null}``.
* failure records: ``{"kind": "failure", "segment": s, "failure":
  {...RunFailure wire...}}``.

``segment`` partitions one file among a session's phases (``compare``
journals the baseline and optimized sessions into the same file as
segments ``baseline`` and ``optimized``).

Loading tolerates a torn tail: a final line that does not decode (or lacks
its newline) is the record that was being written when the previous
session died; it is dropped with a warning and truncated away before the
resumed session's first append, so the next record starts on a clean
line.  An undecodable line in the *middle* means real corruption and
raises :class:`JournalError`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.storage import AppendLog

JOURNAL_VERSION = 1

#: the default segment name for single-session journals
DEFAULT_SEGMENT = "profile"


class JournalError(RuntimeError):
    """The journal cannot be used: corrupt, wrong version, or wrong session."""


def canonical(obj: Any) -> Any:
    """A JSON-safe, order-stable projection of ``obj`` for fingerprints.

    Dataclasses keep only their ``repr`` fields (dropping caches), sets are
    sorted (``repr(frozenset)`` ordering is not stable across processes
    under hash randomization), and anything non-JSON falls back to its
    ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.repr
        }
    if isinstance(obj, (frozenset, set)):
        return sorted((canonical(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {
            str(k): canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class JournalRecord:
    """One replayed journal entry: a completed run or a recorded failure."""

    kind: str  # "run" | "failure"
    segment: str
    index: int
    seed: int
    #: RunResult wire dict (kind == "run")
    run: Optional[Dict[str, Any]] = None
    #: the run's ProfileData wire document (kind == "run")
    data: Optional[Dict[str, Any]] = None
    #: the run's AuditReport wire document, if the session audited
    audit: Optional[Dict[str, Any]] = None
    #: RunFailure wire dict (kind == "failure")
    failure: Optional[Dict[str, Any]] = None


class SessionJournal:
    """Append-only JSONL journal for one profiling session.

    Use :meth:`create` for a fresh session and :meth:`resume` to reopen an
    interrupted one; both return a journal open for appending.  Every
    ``record_*`` call is flushed and fsync'd before returning, so a
    record's presence in the file means the run's data is durable.
    """

    def __init__(self, path: Path, fingerprint: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.records: List[JournalRecord] = []
        self._log = AppendLog(self.path, error=JournalError)

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, path, fingerprint: Dict[str, Any]) -> "SessionJournal":
        """Start a fresh journal; the file must not already exist.

        Creation is exclusive (``open(..., "x")``): a second writer racing
        on the same path — two daemon workers picking up one job, or a
        mistyped ``--journal`` pointing at a finished session — gets a
        :class:`JournalError` instead of silently truncating the existing
        records.  Use :meth:`resume` to append to an existing journal, or
        :meth:`open` for create-or-resume semantics.
        """
        journal = cls(Path(path), canonical(fingerprint))
        try:
            journal._log.create()
        except FileExistsError:
            raise JournalError(
                f"journal {journal.path} already exists; refusing to "
                f"truncate it (resume it, or remove the file first)"
            ) from None
        journal._log.append({
            "kind": "header",
            "version": JOURNAL_VERSION,
            "fingerprint": journal.fingerprint,
        })
        return journal

    @classmethod
    def open(
        cls, path, fingerprint: Dict[str, Any], grace_s: float = 0.5
    ) -> "SessionJournal":
        """Create the journal, or resume it when it already exists.

        The create-or-resume race is resolved by the filesystem: exclusive
        create means exactly one of two concurrent openers creates, and the
        loser resumes what the winner wrote.

        A journal that exists but holds no intact header is ambiguous: the
        winner of a concurrent create may simply not have flushed its
        header line yet, or a past writer died mid-header-write.  Unlinking
        immediately would delete a *live* writer's file and recreate the
        path, putting two writers on one journal — the exact truncation
        hazard exclusive create exists to prevent.  So resume is retried
        for ``grace_s`` first; only a file still headerless after the whole
        grace window (orders of magnitude longer than a header fsync) is
        declared a dead writer's debris and reclaimed.
        """
        path = Path(path)
        deadline = time.monotonic() + grace_s
        while True:
            if not path.exists():
                try:
                    return cls.create(path, fingerprint)
                except JournalError:
                    continue  # lost the create race; resume the winner's file
            try:
                return cls.resume(path, fingerprint)
            except JournalError as exc:
                msg = str(exc)
                headerless = (
                    "no intact header" in msg
                    or "is empty" in msg
                    or "does not exist" in msg
                )
                if not headerless:
                    raise
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.02)
        try:
            path.unlink()
        except OSError:
            pass
        return cls.create(path, fingerprint)

    @classmethod
    def resume(cls, path, fingerprint: Dict[str, Any]) -> "SessionJournal":
        """Reopen an interrupted session's journal for appending.

        Replays every intact record into :attr:`records` and refuses to
        resume (raising :class:`JournalError`) when the journal belongs to
        a different session — different app, seed, config, or fault plan.
        """
        journal = cls(Path(path), canonical(fingerprint))
        header, journal.records = _load(journal._log)
        have = header.get("fingerprint")
        if have != journal.fingerprint:
            raise JournalError(
                f"journal {journal.path} belongs to a different session; "
                f"refusing to resume (fingerprint mismatch: "
                f"{_diff_keys(have, journal.fingerprint)})"
            )
        return journal

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending -------------------------------------------------------------

    def record_run(
        self,
        segment: str,
        index: int,
        seed: int,
        run: Dict[str, Any],
        data_json: Optional[str],
        audit_json: Optional[str] = None,
    ) -> None:
        """Journal one completed run (durable before this returns).

        ``data_json`` is ``None`` for plain (unprofiled) runs — the
        comparison harness journals bare runtime measurements.
        """
        self._log.append({
            "kind": "run",
            "segment": segment,
            "index": index,
            "seed": seed,
            "run": run,
            "data": json.loads(data_json) if data_json is not None else None,
            "audit": json.loads(audit_json) if audit_json else None,
        })

    def record_failure(self, segment: str, failure) -> None:
        """Journal one recorded run failure (a RunFailure)."""
        self._log.append({
            "kind": "failure",
            "segment": segment,
            "index": failure.index,
            "seed": failure.seed,
            "failure": failure.to_dict(),
        })

    # -- replay ----------------------------------------------------------------

    def completed(self, segment: str = DEFAULT_SEGMENT) -> Dict[int, JournalRecord]:
        """Replayed records for one segment, keyed by run index.

        A duplicate index keeps the *first* record: re-journaling after a
        crash-mid-append can only duplicate, never diverge (same seed, same
        deterministic run).
        """
        out: Dict[int, JournalRecord] = {}
        for rec in self.records:
            if rec.segment == segment and rec.index not in out:
                out[rec.index] = rec
        return out


def _load(log: AppendLog):
    """Parse a journal into (header, records), tolerating a torn tail."""
    path = log.path
    try:
        if Path(path).stat().st_size == 0:
            raise JournalError(f"journal {path} is empty")
    except FileNotFoundError:
        raise JournalError(f"journal {path} does not exist") from None
    docs = log.replay()
    if not docs:
        # the only line was torn: the writer died inside the header write
        raise JournalError(f"journal {path} has no intact header record")
    header = docs[0]
    if header.get("kind") != "header":
        raise JournalError(f"journal {path} has no header record")
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"unsupported journal version {header.get('version')!r} in {path}"
        )

    records = []
    for doc in docs[1:]:
        kind = doc.get("kind")
        if kind not in ("run", "failure"):
            raise JournalError(f"journal {path}: unknown record kind {kind!r}")
        records.append(JournalRecord(
            kind=kind,
            segment=doc.get("segment", DEFAULT_SEGMENT),
            index=doc["index"],
            seed=doc["seed"],
            run=doc.get("run"),
            data=doc.get("data"),
            audit=doc.get("audit"),
            failure=doc.get("failure"),
        ))
    return header, records


def _diff_keys(have, want) -> str:
    """Human-readable first point of divergence between two fingerprints."""
    if not isinstance(have, dict) or not isinstance(want, dict):
        return "incompatible header"
    for key in sorted(set(have) | set(want)):
        if have.get(key) != want.get(key):
            return f"field {key!r} differs"
    return "unknown field differs"
