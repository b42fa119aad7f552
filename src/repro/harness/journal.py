"""Crash-safe session journal: checkpoint/resume for profiling sessions.

A causal-profiling session is many independent runs whose results merge in
run order.  That makes it checkpointable at run granularity: after every
completed (or failed) run, the harness appends the run's
:class:`~repro.harness.parallel.RunOutput` as one JSONL record to an
on-disk journal — a :class:`repro.storage.AppendLog`, fsync'd per record,
so a ``SIGKILL`` at any instant loses at most the record being written.  A
restarted session opens the journal, replays the completed runs verbatim
as ``RunOutput`` values (the payload is the run's
:meth:`ProfileData.to_json` wire document, which is lossless), and
executes only the remaining schedule.  :func:`_record` and
:func:`_output` are the one mapping between the two forms.  Because run
``i`` is always seeded ``base_seed + i``, the resumed session needs no RNG
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
* failure records: ``{"kind": "failure", "segment": s, "index": i,
  "seed": n, "failure": {...RunFailure wire...}}``.

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
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List

from repro.storage import AppendLog

if TYPE_CHECKING:
    from repro.harness.parallel import RunOutput

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


def program_identity(spec) -> Any:
    """The program an :class:`~repro.apps.spec.AppSpec` builds, as every
    fingerprint names it: its canonical registry ref, or its name when it
    has none (a ``build`` closure has no stable identity of its own)."""
    ref = spec.registry_ref
    return canonical(ref) if ref is not None else spec.name


def run_identity(spec, coz_config, faults) -> Dict[str, Any]:
    """The fingerprint fields that shape one run's trajectory: the
    program, the profiler config, and the fault plan.

    The per-run seed overrides the config's ``seed`` and the ``audit``
    flag is observational, so both are normalized out.
    """
    return {
        "app": program_identity(spec),
        "coz_config": canonical(dataclasses.replace(coz_config, seed=0, audit=False)),
        "faults": canonical(faults),
    }


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
        #: every intact record's document, in file order
        self.records: List[Dict[str, Any]] = []
        self._log = AppendLog(self.path, error=JournalError)

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, path, fingerprint: Dict[str, Any]) -> "SessionJournal":
        """Start a fresh journal; the file must not already exist.

        Creation is exclusive (``open(..., "x")``): a second writer racing
        on the same path — two daemon workers picking up one job, or a
        mistyped ``--journal`` pointing at a finished session — gets a
        :class:`JournalError` instead of silently truncating the existing
        records.  Use :meth:`resume` to append to an existing journal.
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

    def record_run(self, segment: str, out: "RunOutput") -> None:
        """Journal one completed run (durable before this returns)."""
        self._log.append(_record(segment, out))

    def record_failure(self, segment: str, out: "RunOutput") -> None:
        """Journal one deterministic run failure (``out.failure`` set)."""
        self._log.append(_record(segment, out))

    def hook(self, segment: str = DEFAULT_SEGMENT):
        """An ``execute_tasks(on_output=...)`` callback journaling each
        run's output under ``segment``."""

        def record(task, out: "RunOutput") -> None:
            if out.failed:
                self.record_failure(segment, out)
            else:
                self.record_run(segment, out)

        return record

    # -- replay ----------------------------------------------------------------

    def completed(self, segment: str = DEFAULT_SEGMENT) -> Dict[int, "RunOutput"]:
        """Replayed run outputs for one segment, keyed by run index.

        A duplicate index keeps the *first* record: re-journaling after a
        crash-mid-append can only duplicate, never diverge (same seed, same
        deterministic run).
        """
        out: Dict[int, RunOutput] = {}
        for doc in self.records:
            if doc.get("segment", DEFAULT_SEGMENT) == segment and doc["index"] not in out:
                out[doc["index"]] = _output(doc)
        return out


def _record(segment: str, out: "RunOutput") -> Dict[str, Any]:
    """A run output's journal record (the version-1 line format)."""
    if out.failed:
        return {
            "kind": "failure",
            "segment": segment,
            "index": out.index,
            "seed": out.seed,
            "failure": out.failure,
        }
    return {
        "kind": "run",
        "segment": segment,
        "index": out.index,
        "seed": out.seed,
        "run": out.run,
        # unprofiled runs (the comparison harness) carry no profile
        "data": json.loads(out.data_bin) if out.data_bin is not None else None,
        "audit": json.loads(out.audit_json) if out.audit_json else None,
    }


def _output(doc: Dict[str, Any]) -> "RunOutput":
    """The run output a journal record holds (inverse of :func:`_record`)."""
    from repro.harness.parallel import RunOutput

    if doc["kind"] == "failure":
        return RunOutput(index=doc["index"], seed=doc["seed"], failure=doc["failure"])
    data, audit = doc.get("data"), doc.get("audit")
    return RunOutput(
        index=doc["index"],
        seed=doc["seed"],
        run=doc.get("run") or {},
        data_bin=json.dumps(data).encode("utf-8") if data is not None else None,
        audit_json=json.dumps(audit) if audit is not None else None,
    )


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

    records = docs[1:]
    for doc in records:
        kind = doc.get("kind")
        if kind not in ("run", "failure"):
            raise JournalError(f"journal {path}: unknown record kind {kind!r}")
    return header, records


def _diff_keys(have, want) -> str:
    """Human-readable first point of divergence between two fingerprints."""
    if not isinstance(have, dict) or not isinstance(want, dict):
        return "incompatible header"
    for key in sorted(set(have) | set(want)):
        if have.get(key) != want.get(key):
            return f"field {key!r} differs"
    return "unknown field differs"
