"""Thin socket client for the profiling service.

One request, one response, one connection — the client opens a fresh
Unix-socket connection per call, writes a single newline-framed JSON
request, and reads the single response.  No connection pooling, no
retries: a daemon that cannot be reached raises the typed
:class:`ServiceUnavailableError` and the caller (CLI, tests)
decides what that means.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.harness.service.wire import (
    WIRE_VERSION,
    JobSpec,
    WireError,
    read_doc,
    send_doc,
)

__all__ = ["ServiceClient", "ServiceUnavailableError"]


class ServiceUnavailableError(ConnectionError):
    """No daemon is answering on the socket path."""


class ServiceClient:
    """Speaks the wire protocol to one daemon socket."""

    def __init__(self, socket_path: str, timeout_s: float = 120.0) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s

    def _call(self, doc: Dict[str, Any],
              timeout_s: Optional[float] = None) -> Dict[str, Any]:
        if not hasattr(socket, "AF_UNIX"):
            raise ServiceUnavailableError(
                "AF_UNIX sockets are unavailable on this platform"
            )
        doc = {"wire": WIRE_VERSION, **doc}
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s if timeout_s is not None else self.timeout_s)
        try:
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                raise ServiceUnavailableError(
                    f"no profiling daemon at {self.socket_path}: {exc}"
                ) from None
            send_doc(sock, doc)
            fh = sock.makefile("r", encoding="utf-8")
            response = read_doc(fh)
        finally:
            sock.close()
        if response is None:
            raise WireError("daemon closed the connection without responding")
        return response

    def wait_until_ready(self, timeout_s: float = 10.0) -> bool:
        """Poll ping until the daemon answers (daemon startup races)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.ping().get("ok"):
                    return True
            except (ServiceUnavailableError, WireError):
                pass
            time.sleep(0.05)
        return False

    # ------------------------------------------------------------------ ops

    def ping(self) -> Dict[str, Any]:
        return self._call({"op": "ping"}, timeout_s=5.0)

    def submit(self, spec: JobSpec,
               wait_s: Optional[float] = None) -> Dict[str, Any]:
        """Submit a job; with ``wait_s`` block until terminal (or timeout).

        The response is the daemon's verbatim answer: shed submissions come
        back as ``{"ok": False, "error": "ServiceOverloadError", ...}``
        rather than raising, so callers can count sheds without exception
        plumbing.
        """
        doc: Dict[str, Any] = {"op": "submit", "spec": spec.to_wire()}
        if wait_s is not None:
            doc["wait_s"] = wait_s
        timeout = None if wait_s is None else wait_s + 30.0
        return self._call(doc, timeout_s=timeout)

    def status(self) -> Dict[str, Any]:
        return self._call({"op": "status"}, timeout_s=10.0)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._call({"op": "job", "job_id": job_id}, timeout_s=10.0)

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        return self._call(
            {"op": "wait", "job_id": job_id, "timeout_s": timeout_s},
            timeout_s=timeout_s + 30.0,
        )

    def result(self, fingerprint: str) -> Dict[str, Any]:
        return self._call({"op": "result", "fingerprint": fingerprint})

    def shutdown(self) -> Dict[str, Any]:
        return self._call({"op": "shutdown"}, timeout_s=10.0)
