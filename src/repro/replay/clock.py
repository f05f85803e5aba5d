"""Virtual clocks and the replay pacer.

Determinism contract: nothing in the replay stack *computes* with the
wall clock — every analytic decision keys off record event time.  The
only job of wall time is *pacing*: deciding when the next stored record
is delivered.  :class:`ReplayPacer` owns that mapping (event seconds ->
wall seconds at a chosen speed factor), and both of its time primitives
are injectable, so a test can drive a 2-day trace through a 1x "real
time" replay in microseconds with a :class:`VirtualClock` — and prove
the results are byte-identical to the unbounded run.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class VirtualClock:
    """A controllable ``(monotonic, sleep)`` pair for deterministic tests.

    ``sleep`` advances the clock instead of blocking, so code paced
    against a virtual clock runs flat-out in wall time while *believing*
    it waited.  Thread-safety is intentionally out of scope: replay
    delivery is single-threaded by design (that is what makes it
    deterministic).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.total_slept = 0.0

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds
            self.total_slept += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without counting it as sleep."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds


class ReplayPacer:
    """Map event time onto wall time at a fixed speed factor.

    ``speed`` is simulated seconds per wall second: ``1.0`` replays in
    real time, ``100.0`` compresses 100x, ``None`` (or ``inf``) delivers
    flat-out with no waiting at all.  The first event anchors the
    mapping; a backward jump in event time (a seek, a restarted feed)
    simply re-anchors — pacing never blocks on the past.
    """

    def __init__(
        self,
        speed: Optional[float] = None,
        *,
        monotonic: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError("speed must be positive (or None for unbounded)")
        if speed is not None and speed == float("inf"):
            speed = None
        self.speed = speed
        self.monotonic = monotonic
        self.sleep = sleep
        self._wall_anchor: Optional[float] = None
        self._event_anchor: Optional[float] = None
        #: Total wall seconds spent waiting (virtual seconds under a
        #: :class:`VirtualClock`).
        self.waited = 0.0

    def wait_until(self, event_time: float) -> None:
        """Block (via the injected ``sleep``) until ``event_time`` is due."""
        if self.speed is None:
            return
        if self._event_anchor is None or event_time < self._event_anchor:
            # First event, or an event-time regression: re-anchor "now".
            self._event_anchor = event_time
            self._wall_anchor = self.monotonic()
            return
        due = self._wall_anchor + (event_time - self._event_anchor) / self.speed
        delay = due - self.monotonic()
        if delay > 0:
            self.sleep(delay)
            self.waited += delay
