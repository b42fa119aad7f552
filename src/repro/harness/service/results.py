"""Content-addressed store of completed session results.

Results are addressed by job fingerprint, so "cache hit" *means*
"bit-identical session": two specs with the same fingerprint would merge
the same runs in the same order with the same seeds.  Every stored
document is pure content — no timestamps, no tenant, no job id — so a
byte comparison of two result files is a determinism check, and the
restart-recovery test can assert a SIGKILL'd session resumed to exactly
the bytes an uninterrupted one produced.

Layout: an in-memory :class:`~repro.storage.LRU` in front of exactly one
file per result, ``<dir>/<fp>.json`` — the document as canonical JSON
(sorted keys, compact separators), written once, atomically and fsync'd
by :func:`repro.storage.write_once` (first writer wins; the content is
deterministic, so writers never disagree).  Deadline-partial results are
returned to waiters but **never** stored — a truncated session must not
shadow the full one a resubmit would complete.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional

from repro.storage import LRU, write_once

__all__ = ["ResultStore"]

#: in-memory entries kept per store (small: result docs are a few KB)
_MEMORY_CAP = 64


class ResultStore:
    """Thread-safe fingerprint-addressed result cache (memory + disk)."""

    def __init__(self, directory: Optional[str] = None,
                 memory_cap: int = _MEMORY_CAP) -> None:
        self.directory = directory
        self._lock = threading.Lock()
        self._memory = LRU(memory_cap)
        self.hits = 0
        self.misses = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.json")

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            doc = self._memory.get(fingerprint)
        if doc is None and self.directory is not None:
            try:
                with open(self._path(fingerprint), "rb") as fh:
                    doc = json.loads(fh.read())
            except (OSError, ValueError):
                pass
            if not isinstance(doc, dict):
                doc = None
        with self._lock:
            if doc is None:
                self.misses += 1
                return None
            self._memory.put(fingerprint, doc)
            self.hits += 1
        return doc

    def put(self, fingerprint: str, doc: Dict[str, Any]) -> None:
        with self._lock:
            self._memory.put(fingerprint, doc)
        if self.directory is None:
            return
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        try:
            write_once(self._path(fingerprint), blob.encode("utf-8"), fsync=True)
        except OSError:
            pass  # the disk cache is an accelerator, not a correctness dependency

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, Any]:
        return {
            "result_hits": self.hits,
            "result_misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }
