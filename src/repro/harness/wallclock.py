"""The harness wall clock: the one place harness code reads real time.

Session deadlines, the executor's deadline-clamped waits, the service's
queue latency and admission controls all read :func:`now` through this
module's attribute, so a test that patches ``wallclock.now`` drives every
reader at once (forked pool workers included).  Virtual time lives in
:mod:`repro.sim.clock`; nothing here touches a simulation.
"""

from __future__ import annotations

import time
from typing import Optional

#: seconds on a monotonic clock; the module attribute is the patch point
now = time.monotonic


def passed(deadline: Optional[float]) -> bool:
    """Whether the :func:`now` reading ``deadline`` has passed (None: never)."""
    return deadline is not None and now() >= deadline
