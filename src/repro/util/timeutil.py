"""Time constants and timestamp formatting used across the toolkit.

All simulation-internal timestamps are floats: seconds since the start of the
observation window (the "epoch" of a dataset).  Rendering to syslog text and
parsing back go through a fixed wall-clock anchor so that round-tripping a
timestamp through a log file is lossless to one-second resolution (syslog
precision), which is what the paper's pipeline had to work with as well.
"""

from __future__ import annotations

import datetime as _dt
from typing import List, Sequence, Tuple

import numpy as np

#: One minute, in seconds.
MINUTE: float = 60.0
#: One hour, in seconds.
HOUR: float = 3600.0
#: One day, in seconds.
DAY: float = 86400.0

#: Wall-clock anchor corresponding to simulation time 0.0.  January 1st 2022
#: matches the start of the paper's 855-day characterization window.
EPOCH: _dt.datetime = _dt.datetime(2022, 1, 1, 0, 0, 0)

_SYSLOG_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: The rendered shape, ``YYYY-MM-DDTHH:MM:SS.mmm``, as ASCII bytes; the
#: formatter adds each digit to its ``0``.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00.000", dtype=np.uint8)

#: Where :func:`format_timestamps` writes the digits of a time of day
#: (``HHMMSSmmm``), and the place value, in milliseconds, and base of each.
_DIGIT_COLUMNS = np.array([11, 12, 14, 15, 17, 18, 20, 21, 22])
_DIGIT_PLACES = np.array([36_000_000, 3_600_000, 600_000, 60_000, 10_000, 1_000, 100, 10, 1])
_DIGIT_BASES = np.array([10, 10, 6, 10, 6, 10, 10, 10, 10])

#: ``(first, rows)``: ``YYYY-MM-DD`` of consecutive days as ASCII rows,
#: ``rows[i]`` being day ``first + i`` after :data:`EPOCH`.  It grows to
#: cover every day formatted so far, with a year to spare on each side, so
#: a time-ordered stream rebuilds it about once a year of its span.
_dates: Tuple[int, np.ndarray] = (0, np.empty((0, 10), dtype=np.uint8))


def _date_rows(first: int, last: int) -> Tuple[int, np.ndarray]:
    """The date table, grown to hold days ``first..last``."""
    global _dates
    start, rows = _dates
    stop = start + len(rows)
    if not len(rows) or first < start or last >= stop:
        if len(rows):
            first, last = min(first, start), max(last, stop - 1)
        first, last = first - 366, last + 366
        text = "".join(
            (EPOCH + _dt.timedelta(days=day)).date().isoformat()
            for day in range(first, last + 1)
        )
        _dates = (first, np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 10))
    return _dates


def format_timestamps(times: Sequence[float] | np.ndarray) -> List[str]:
    """Render simulation timestamps as ISO-8601 syslog timestamps.

    Millisecond precision (RFC 5424 style), matching the resolution the
    paper's persistence analysis requires: Table 1 reports P50 persistence
    values of 0.12 s, which whole-second syslog could not resolve.  Each
    time is split into its whole second (rounded down) and its fraction
    rounded half-even to milliseconds, carrying 1000 ms into the next
    second.  The digits are written into one fixed-width byte array and
    the dates looked up in a table indexed by day.
    """
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    if not times.size:
        return []
    if not np.isfinite(times).all():
        raise ValueError("timestamps must be finite")
    whole = np.floor(times)
    millis = whole.astype(np.int64) * 1000 + np.rint((times - whole) * 1000.0).astype(np.int64)
    day, of_day = np.divmod(millis, 86_400_000)
    first, rows = _date_rows(int(day.min()), int(day.max()))
    out = np.empty((times.size, len(_STAMP)), dtype=np.uint8)
    out[:] = _STAMP
    out[:, :10] = rows[day - first]
    out[:, _DIGIT_COLUMNS] += (of_day[:, None] // _DIGIT_PLACES % _DIGIT_BASES).astype(np.uint8)
    text = out.tobytes().decode("ascii")
    width = len(_STAMP)
    return [text[at:at + width] for at in range(0, len(text), width)]


def format_timestamp(sim_seconds: float) -> str:
    """One simulation timestamp as :func:`format_timestamps` renders it."""
    return format_timestamps([sim_seconds])[0]


#: Per-date cache of midnight offsets; parsing is the hottest loop of
#: Stage I, and ``strptime`` is ~10x slower than fixed-width slicing.
_MIDNIGHT_CACHE: dict = {}


def parse_timestamp(text: str) -> float:
    """Parse an ISO-8601 syslog timestamp back to simulation seconds.

    Accepts both fractional (``...T12:00:00.123``) and whole-second forms.
    Uses fixed-width slicing with a per-date cache; falls back to
    ``strptime`` for anything unusual.  Raises ``ValueError`` unless the
    date is a real calendar date and the time of day lies within
    00:00:00-23:59:60.
    """
    try:
        date = text[:10]
        midnight = _MIDNIGHT_CACHE.get(date)
        if midnight is None:
            day = _dt.datetime(int(text[0:4]), int(text[5:7]), int(text[8:10]))
            midnight = (day - EPOCH).total_seconds()
            _MIDNIGHT_CACHE[date] = midnight
        hours, minutes, seconds = int(text[11:13]), int(text[14:16]), int(text[17:19])
        fraction = float(text[19:]) if len(text) > 19 else 0.0
    except (ValueError, IndexError):
        fraction = 0.0
        if "." in text:
            text, frac_text = text.split(".", 1)
            fraction = float(f"0.{frac_text}")
        moment = _dt.datetime.strptime(text, _SYSLOG_FORMAT)
        return (moment - EPOCH).total_seconds() + fraction
    if not (0 <= hours <= 23 and 0 <= minutes <= 59 and 0 <= seconds <= 60):
        raise ValueError(f"time of day out of range in {text!r}")
    return midnight + (hours * 3600 + minutes * 60 + seconds) + fraction


def format_duration(seconds: float) -> str:
    """Human-readable duration: ``"2d 03h 04m"`` / ``"03h 04m"`` / ``"12.3s"``.

    Used by report renderers; never parsed back.
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds!r}")
    if seconds < MINUTE:
        return f"{seconds:.1f}s"
    days, rem = divmod(seconds, DAY)
    hours, rem = divmod(rem, HOUR)
    minutes = rem / MINUTE
    if days >= 1:
        return f"{int(days)}d {int(hours):02d}h {int(minutes):02d}m"
    if hours >= 1:
        return f"{int(hours):02d}h {int(minutes):02d}m"
    return f"{minutes:.1f}m"
