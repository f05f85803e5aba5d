"""Syslog substrate: render ground-truth fault events into raw NVRM Xid text.

This is the artifact boundary of the reproduction: everything downstream of
this package (the analysis pipeline in :mod:`repro.core`) sees only these
text lines, exactly as the paper's pipeline saw Delta's 202 GB of syslog.
"""

from repro.syslog.format import (
    XID_MESSAGES,
    render_event_lines,
    render_node_lines,
    render_trace,
)
from repro.syslog.noise import generate_noise_lines
from repro.syslog.reader import LOG_SUFFIXES, iter_log_lines, list_log_files
from repro.syslog.writer import write_node_logs

__all__ = [
    "XID_MESSAGES",
    "render_event_lines",
    "render_node_lines",
    "render_trace",
    "generate_noise_lines",
    "LOG_SUFFIXES",
    "iter_log_lines",
    "list_log_files",
    "write_node_logs",
]
