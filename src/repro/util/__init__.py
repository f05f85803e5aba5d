"""Shared utilities: time handling, RNG streams, statistics, table rendering.

These helpers are deliberately dependency-light (NumPy + stdlib only) so that
every other subpackage can import them without cycles.  The process pool,
:mod:`repro.util.fanout`, also uses the stdlib-only :mod:`repro.obs`.
"""

from repro.util.rng import RngStreams, spawn_rng
from repro.util.stats import (
    lognormal_from_mean_p50,
    summarize_durations,
)
from repro.util.tables import Table, format_cell
from repro.util.timeutil import (
    HOUR,
    MINUTE,
    DAY,
    format_duration,
    format_timestamp,
    parse_timestamp,
)
from repro.util.validation import check_fraction, check_positive, check_probability

__all__ = [
    "RngStreams",
    "spawn_rng",
    "lognormal_from_mean_p50",
    "summarize_durations",
    "Table",
    "format_cell",
    "HOUR",
    "MINUTE",
    "DAY",
    "format_duration",
    "format_timestamp",
    "parse_timestamp",
    "check_fraction",
    "check_positive",
    "check_probability",
]
