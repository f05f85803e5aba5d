"""Seeded inputs for the ledger's workloads.

Everything a workload reads is generated here from ``--seed`` and written
into the run's work directory; the program under test receives only these
files (and, for the what-if sweep, the seed itself).

D01 is a synthetic Delta dataset (per-node syslog files plus ``slurm.jsonl``)
at the :class:`Size`'s scale.  The synthesizer's burst lengths are
heavy-tailed, so two seeds at scale 0.01 differ by up to 3x in log volume,
and run time follows volume.  A benchmark whose input size swings with the seed cannot hold a 10%
regression bound, so after synthesis every burst duration is multiplied by
one per-seed factor that brings the XID line count to ``Size.xid_lines``.
Seeds still decide which GPUs fail, when, with which codes, and the mix of
short and long bursts; only the total volume is pinned.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Size:
    """How big one workload's inputs and operations are."""

    #: Observation-window scale of D01 (1.0 = the paper's 855 days).
    scale: float
    #: XID syslog lines in every D01, whatever the seed.
    xid_lines: int
    #: Queries in store-mixed's read leg.
    queries: int
    #: Monte-Carlo replicas in sim-sweep.
    replicas: int


#: The benchmark proper: 90,000 XID lines is about seed 7's natural volume
#: at scale 0.01.
FULL = Size(scale=0.01, xid_lines=90_000, queries=1_000, replicas=48)
#: ``--smoke``: the same paths on inputs a few times smaller.
SMOKE = Size(scale=0.004, xid_lines=20_000, queries=100, replicas=4)
#: Records per store segment in store-mixed: about nine segments, so zone-map
#: pruning has something to prune.
SEGMENT_RECORDS = 10_000
#: The read leg's mix: (kind, weight).
QUERY_MIX = (("xid_window", 40), ("node_window", 30), ("serial", 20), ("count", 10))
#: How many of the least frequent XID codes count as "rare".
RARE_CODES = 5


def _pin_xid_lines(events: list, lines: int) -> None:
    """Rescale burst durations in place so the trace renders ~``lines`` lines.

    The renderer writes one line for a zero-length event and, for a burst
    of ``p`` seconds, a first and last line plus one per mean gap between.
    """
    from repro.syslog.format import BURST_GAP_HIGH, BURST_GAP_LOW

    mean_gap = (BURST_GAP_LOW + BURST_GAP_HIGH) / 2.0
    bursts = [e.persistence for e in events if e.persistence > 0.0]
    fixed = len(events) + len(bursts)
    factor = (lines - fixed) * mean_gap / sum(bursts)
    if factor <= 0.0:
        raise ValueError(f"{len(events)} events cannot render as {lines} lines")
    events[:] = [
        dataclasses.replace(e, persistence=e.persistence * factor)
        if e.persistence > 0.0 else e
        for e in events
    ]


def write_dataset(directory: Path, seed: int, size: Size, recorder) -> dict:
    """Write D01 under ``directory`` (``logs/`` + ``slurm.jsonl``).

    Returns the facts the query mix needs (window, nodes, serials, rare
    codes), all taken from the synthesized ground truth.  They leave out
    the longest burst's GPU, node and code: that one burst renders about
    99% of every seed's XID lines, so whether the read leg's random targets
    drew it swung the rows its 1,000 queries return from 600 to 178,000
    with the seed.
    """
    from repro.datasets import synthesize_delta
    from repro.store import gpu_serial

    with recorder.span("datasets.synthesize"):
        dataset = synthesize_delta(scale=size.scale, seed=seed)
        _pin_xid_lines(dataset.trace.events, size.xid_lines)
    with recorder.span("syslog.write_logs"):
        dataset.write_logs(directory / "logs")
        dataset.save_slurm_db(directory / "slurm.jsonl")

    longest = max(dataset.trace.events, key=lambda e: e.persistence)
    counts: Dict[int, int] = {}
    serials = set()
    for event in dataset.trace.events:
        if event.xid != longest.xid:
            counts[int(event.xid)] = counts.get(int(event.xid), 0) + 1
        if event.node_id != longest.node_id:
            serials.add(gpu_serial(event.node_id, event.pci_bus))
    return {
        "window_seconds": dataset.window_seconds,
        "nodes": sorted({s.split("/", 1)[0] for s in serials}),
        "serials": sorted(serials),
        "rare_xids": sorted(counts, key=lambda x: (counts[x], x))[:RARE_CODES],
    }


def log_volume(directory: Path) -> Tuple[float, int]:
    """(MB, lines) of the syslog files under ``directory/logs``."""
    size = lines = 0
    for path in sorted((directory / "logs").iterdir()):
        data = path.read_bytes()
        size += len(data)
        lines += data.count(b"\n")
    return size / 1e6, lines


def make_queries(facts: dict, seed: int, n: int) -> List[dict]:
    """The store read leg: ``n`` seeded queries in the :data:`QUERY_MIX`.

    Windows last 1/60 to 1/6 of the observation window (1 to 14 days at
    the paper's scale 0.1).
    """
    rng = random.Random(seed)
    span = facts["window_seconds"]
    kinds = rng.choices(
        [k for k, _ in QUERY_MIX], weights=[w for _, w in QUERY_MIX], k=n
    )
    queries = []
    for kind in kinds:
        length = rng.uniform(span / 60.0, span / 6.0)
        start = rng.uniform(0.0, span - length)
        query = {"kind": kind, "since": start, "until": start + length}
        if kind == "xid_window":
            query["xids"] = [rng.choice(facts["rare_xids"])]
        elif kind == "node_window":
            query["nodes"] = [rng.choice(facts["nodes"])]
        elif kind == "serial":
            query = {"kind": kind, "serials": [rng.choice(facts["serials"])]}
        queries.append(query)
    return queries


def to_query(spec: dict):
    """A :func:`make_queries` entry as a store ``Query``."""
    from repro.store import Query

    since, until = spec.get("since"), spec.get("until")
    return Query(
        time_range=(since, until) if since is not None else None,
        xids=spec.get("xids"),
        nodes=spec.get("nodes"),
        serials=spec.get("serials"),
    )
