"""Counters the service reports about the process it runs in.

:class:`GcPauses` counts the interpreter's full (generation-2) garbage
collections through the stdlib ``gc.callbacks`` hook: how many ran, and
their total and longest wall time.  A full collection stops every
thread, so one that lands inside a commit or a read is a pause of that
request; ``GET /stats`` reports the counter under ``gc`` so a latency
outlier can be told from one.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional


class GcPauses:
    """Counts generation-2 collections once :meth:`install` hooked it."""

    def __init__(self):
        self.passes = 0
        self.total = 0.0
        self.longest = 0.0
        self._start: Optional[float] = None

    def install(self) -> None:
        """Hook into ``gc.callbacks``; installing twice counts once."""
        if self._callback not in gc.callbacks:
            gc.callbacks.append(self._callback)

    def uninstall(self) -> None:
        """Stop counting; the totals so far stay readable."""
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: Dict) -> None:
        # collections never overlap: the interpreter runs one at a time
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            seconds = time.perf_counter() - self._start
            self._start = None
            self.passes += 1
            self.total += seconds
            self.longest = max(self.longest, seconds)

    def as_dict(self) -> Dict[str, float]:
        return {
            "gen2_passes": self.passes,
            "gen2_ms": round(self.total * 1e3, 3),
            "gen2_max_ms": round(self.longest * 1e3, 3),
        }

