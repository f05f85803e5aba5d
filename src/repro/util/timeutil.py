"""Time constants and timestamp formatting used across the toolkit.

All simulation-internal timestamps are floats: seconds since the start of the
observation window (the "epoch" of a dataset).  Rendering to syslog text and
parsing back go through a fixed wall-clock anchor so that round-tripping a
timestamp through a log file is lossless to one-second resolution (syslog
precision), which is what the paper's pipeline had to work with as well.
"""

from __future__ import annotations

import datetime as _dt

#: One minute, in seconds.
MINUTE: float = 60.0
#: One hour, in seconds.
HOUR: float = 3600.0
#: One day, in seconds.
DAY: float = 86400.0
#: Seconds per hour as an int, for integer arithmetic contexts.
SECONDS_PER_HOUR: int = 3600

#: Wall-clock anchor corresponding to simulation time 0.0.  January 1st 2022
#: matches the start of the paper's 855-day characterization window.
EPOCH: _dt.datetime = _dt.datetime(2022, 1, 1, 0, 0, 0)

_SYSLOG_FORMAT = "%Y-%m-%dT%H:%M:%S"


#: Per-(day, epoch) cache of rendered date prefixes; formatting is the
#: hottest loop of the syslog renderer.
_DAY_CACHE: dict = {}


def format_timestamp(sim_seconds: float, epoch: _dt.datetime = EPOCH) -> str:
    """Render a simulation timestamp as an ISO-8601 syslog timestamp.

    Millisecond precision (RFC 5424 style), matching the resolution the
    paper's persistence analysis requires — Table 1 reports P50 persistence
    values of 0.12 s, which whole-second syslog could not resolve.
    """
    whole = int(sim_seconds)
    millis = int(round((sim_seconds - whole) * 1000.0))
    if millis >= 1000:  # rounding carried into the next second
        whole += 1
        millis -= 1000
    if epoch.hour == 0 and epoch.minute == 0 and epoch.second == 0:
        day, rem = divmod(whole, 86400)
        key = (day, epoch)
        date_str = _DAY_CACHE.get(key)
        if date_str is None:
            date_str = (epoch + _dt.timedelta(days=day)).strftime("%Y-%m-%d")
            _DAY_CACHE[key] = date_str
        hours, rem = divmod(rem, 3600)
        minutes, seconds = divmod(rem, 60)
        return f"{date_str}T{hours:02d}:{minutes:02d}:{seconds:02d}.{millis:03d}"
    moment = epoch + _dt.timedelta(seconds=whole)
    return f"{moment.strftime(_SYSLOG_FORMAT)}.{millis:03d}"


#: Per-(date, epoch) cache of midnight offsets; parsing is the hottest loop
#: of Stage I, and ``strptime`` is ~10x slower than fixed-width slicing.
_MIDNIGHT_CACHE: dict = {}


def parse_timestamp(text: str, epoch: _dt.datetime = EPOCH) -> float:
    """Parse an ISO-8601 syslog timestamp back to simulation seconds.

    Accepts both fractional (``...T12:00:00.123``) and whole-second forms.
    Uses fixed-width slicing with a per-date cache; falls back to
    ``strptime`` for anything unusual.  Raises ``ValueError`` unless the
    date is a real calendar date and the time of day lies within
    00:00:00-23:59:60.
    """
    try:
        key = (text[:10], epoch)
        midnight = _MIDNIGHT_CACHE.get(key)
        if midnight is None:
            day = _dt.datetime(int(text[0:4]), int(text[5:7]), int(text[8:10]))
            midnight = (day - epoch).total_seconds()
            _MIDNIGHT_CACHE[key] = midnight
        hours, minutes, seconds = int(text[11:13]), int(text[14:16]), int(text[17:19])
        fraction = float(text[19:]) if len(text) > 19 else 0.0
    except (ValueError, IndexError):
        fraction = 0.0
        if "." in text:
            text, frac_text = text.split(".", 1)
            fraction = float(f"0.{frac_text}")
        moment = _dt.datetime.strptime(text, _SYSLOG_FORMAT)
        return (moment - epoch).total_seconds() + fraction
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
