"""Thread-safe named counters for long-running services.

Traces are per-run artifacts; a fleet service needs *cumulative*
counters it can expose over ``/metrics`` for the life of the process.
:class:`CounterSet` is that: a lock-guarded name → float map the store
writer and registry feed increment, and the Prometheus exposition
renders.  Independent of the span tracer — no trace directory needed.
"""

from __future__ import annotations

import threading
from typing import Dict


class CounterSet:
    """Monotonic named counters, safe to bump from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {}

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def values(self) -> Dict[str, float]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._values)
