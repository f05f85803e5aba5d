"""Ground-truth fault event model.

The injector produces a :class:`FaultTrace` — a time-ordered list of
:class:`ErrorEvent` — which is rendered into raw syslog by
:mod:`repro.syslog` and consumed (indirectly, via the rendered text) by the
analysis pipeline.  The trace also keeps generation-side annotations (chain
membership, whether the event left the GPU inoperable) that tests use to
check the pipeline's *inferences* against the generator's *intent*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.faults.xid import Xid


@dataclass(frozen=True)
class ErrorEvent:
    """One coalesced-level GPU error as the generator intends it.

    ``persistence`` is the *target* duration of the duplicate-line burst the
    syslog renderer will emit for this event; the pipeline's Algorithm-1
    implementation should recover approximately this value from the raw
    lines.  A persistence of 0 renders as a single log line.
    """

    time: float  # seconds since window start
    node_id: str
    pci_bus: str
    xid: Xid
    persistence: float = 0.0
    #: Chain bookkeeping: events sharing a chain_id form one propagation chain.
    chain_id: int = 0
    #: Position within the chain (0 = root).
    chain_pos: int = 0
    #: Generator's intent: the error left the GPU in an error state that
    #: requires a reset (drives the availability/repair substrate).
    inoperable: bool = False

    @property
    def gpu_key(self) -> Tuple[str, str]:
        return (self.node_id, self.pci_bus)

    @property
    def end_time(self) -> float:
        return self.time + self.persistence


@dataclass
class FaultTrace:
    """A time-ordered ground-truth error trace over an observation window."""

    events: List[ErrorEvent]
    window_seconds: float
    #: Node IDs covered by the trace (the MTBE normalization population).
    node_ids: Tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        self.events.sort(key=lambda e: (e.time, e.node_id, e.pci_bus, int(e.xid)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ErrorEvent]:
        return iter(self.events)

    # -- ground-truth views used by tests and calibration checks ---------

    def counts_by_xid(self) -> Dict[Xid, int]:
        out: Dict[Xid, int] = {}
        for event in self.events:
            out[event.xid] = out.get(event.xid, 0) + 1
        return out
