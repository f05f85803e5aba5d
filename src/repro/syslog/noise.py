"""Benign syslog noise.

Production system logs are overwhelmingly *not* GPU errors — the paper's
pipeline had to extract XID lines from 202 GB of mixed traffic.  This module
generates representative non-GPU lines (systemd, Lustre, sshd, NetworkManager
chatter) so the extraction regexes in :mod:`repro.core.parsing` are exercised
against realistic clutter, including near-miss lines that *mention* GPUs
without being NVRM Xid records.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.util.rng import spawn_rng
from repro.util.timeutil import format_timestamps

_TEMPLATES: Sequence[str] = (
    "systemd[1]: Started Session {n} of user u{n2}.",
    "sshd[{n}]: Accepted publickey for u{n2} from 141.142.{n3}.{n4}",
    "kernel: Lustre: {n}:0:(client.c:2289) Request sent has timed out",
    "slurmd[{n}]: launch task StepId={n2}.0 request from UID:{n3}",
    "kernel: perf: interrupt took too long ({n} > {n2}), lowering rate",
    "NetworkManager[{n}]: <info> dhcp4 (hsn0): state changed",
    "kernel: nvidia-uvm: Loaded the UVM driver, major device number {n3}.",
    "gpumond[{n}]: GPU {n4} utilization sample ok",  # near-miss: mentions GPU
    "kernel: EXT4-fs (sda1): mounted filesystem with ordered data mode",
    "prometheus-node-exporter[{n}]: level=info msg=scrape ok",
)

#: Mean benign lines per node-hour (Poisson).
LINES_PER_NODE_HOUR = 0.5


def generate_noise_lines(
    node_ids: Sequence[str], window_seconds: float, seed: int
) -> Iterator[Tuple[str, List[str]]]:
    """Benign syslog lines across nodes over the window: ``(node, lines)``
    for each node in turn, its timestamps formatted at once."""
    rng = spawn_rng(seed, "noise")
    hours = window_seconds / 3600.0
    for node_id in node_ids:
        n_lines = int(rng.poisson(LINES_PER_NODE_HOUR * hours))
        times = rng.uniform(0.0, window_seconds, size=n_lines)
        picks = rng.integers(0, len(_TEMPLATES), size=n_lines).tolist()
        numbers = rng.integers(1, 60000, size=(max(n_lines, 1), 4)).tolist()
        yield node_id, [
            f"{stamp} {node_id} "
            + _TEMPLATES[pick].format(n=n, n2=n2, n3=n3 % 255, n4=n4 % 255)
            for stamp, pick, (n, n2, n3, n4) in zip(format_timestamps(times), picks, numbers)
        ]
