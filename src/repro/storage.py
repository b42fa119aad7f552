"""Every durable or cross-process byte discipline, one primitive each.

:func:`frame`/:func:`unframe` are the versioned container header (the
``RPDB`` profile wire and ``RSNP`` snapshots); :func:`write_once` is the
atomic content-addressed file write; :class:`AppendLog` is the fsync'd
JSONL log that replays exactly; :class:`LRU` is the memory tier in front
of the on-disk stores.  Nothing here imports :mod:`repro`, so the
simulator, the core and the harness can all build on it.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from collections import OrderedDict
from typing import Any, List, Optional, Type

__all__ = ["LRU", "AppendLog", "frame", "unframe", "write_once"]


def frame(magic: bytes, version: int, body: bytes) -> bytes:
    """``magic`` + one container-version byte + ``body``."""
    return magic + bytes([version]) + body


def unframe(blob: bytes, magic: bytes, version: int,
            error: Type[Exception]) -> bytes:
    """The body of a :func:`frame` container; raises ``error`` on a
    foreign magic, a truncated header, or another container version."""
    n = len(magic)
    if len(blob) <= n or blob[:n] != magic:
        raise error(f"not a {magic.decode()} container")
    if blob[n] != version:
        raise error(f"unsupported {magic.decode()} container version {blob[n]}")
    return blob[n + 1:]


def write_once(path: str, data: bytes, fsync: bool) -> None:
    """Atomically create ``path`` holding ``data`` unless it exists.

    Callers name files by content, so an existing file already holds what
    this writer would: the first writer wins and later ones do nothing.
    Readers never see a partial file; on error the temporary is removed
    and the ``OSError`` propagates.
    """
    if os.path.exists(path):
        return
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class AppendLog:
    """Append-only JSONL log: one record per line, fsync'd per append.

    A final line that is undecodable or lacks its newline is the record a
    killed writer never finished: :meth:`replay` drops it with a warning
    and the next :meth:`append` truncates it, so a new record never lands
    on the fragment.  Any other undecodable line raises ``error``.  Replay
    an existing log before appending to it.  Appends are thread-safe.
    """

    def __init__(self, path, error: Type[Exception] = ValueError) -> None:
        self.path = os.fspath(path)
        self.error = error
        self._fh = None
        self._torn_at: Optional[int] = None
        self._lock = threading.Lock()

    def create(self) -> None:
        """Create the file exclusively (``FileExistsError`` if present)."""
        self._fh = open(self.path, "xb")

    def replay(self) -> List[Any]:
        """Every intact record, oldest first (none for a missing file)."""
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return []
        tail = lines.pop()  # empty when the file ends with a newline
        docs: List[Any] = []
        offset = 0
        for i, line in enumerate(lines):
            try:
                docs.append(json.loads(line))
            except ValueError:
                if i < len(lines) - 1 or tail:
                    raise self.error(
                        f"log {self.path} is corrupt at line {i + 1} "
                        f"(undecodable non-final record)"
                    ) from None
                tail = line
                break
            offset += len(line) + 1
        if tail:
            warnings.warn(
                f"log {self.path}: dropping torn final record (line "
                f"{len(docs) + 1}); it is truncated before the next append",
                stacklevel=3,
            )
            self._torn_at = offset
        return docs

    def append(self, doc: Any) -> None:
        """Write one record; durable (flushed and fsync'd) on return."""
        line = (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "ab")
            if self._torn_at is not None:
                self._fh.truncate(self._torn_at)
                self._torn_at = None
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class LRU(OrderedDict):
    """Mapping of at most ``cap`` entries; evicts the least recently used."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def get(self, key, default=None):
        """The value for ``key``, now the most recent, or ``default``."""
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.cap:
            self.popitem(last=False)
