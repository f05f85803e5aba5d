"""Propagation-chain walking.

Given a root XID and the calibration kernel, :func:`walk_chain` samples the
abstract chain (which codes follow, with what delays, on the same GPU or a
peer).  The injector then materializes the chain onto concrete devices and
timestamps.  Keeping the walk pure makes the kernel's branching statistics
directly testable without a cluster or clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

from repro.faults.calibration import KernelRow, Scope
from repro.faults.xid import Xid

#: Hard cap on chain length; the calibrated kernels have expected lengths
#: below 5, so hitting this indicates a mis-calibrated (near-recurrent)
#: kernel rather than legitimate behaviour.
MAX_CHAIN_LENGTH = 200


@dataclass(frozen=True)
class ChainStep:
    """One event of a sampled chain (relative timing, abstract placement)."""

    xid: Xid
    #: Delay in seconds after the *end* of the previous event's burst
    #: (0.0 for the root).
    delay_after_prev: float
    #: Whether this step lands on an NVLink peer of the previous step's GPU.
    on_peer: bool
    #: Whether this event terminates the chain leaving the GPU inoperable.
    inoperable: bool


def walk_chain(
    root_xid: Xid,
    kernel: Mapping[Xid, KernelRow],
    rng: np.random.Generator,
) -> List[ChainStep]:
    """Sample one propagation chain starting from a spontaneous root event.

    Each event's fate is drawn from its kernel row: follow one transition
    (recursively — chained events draw again from their own row, which is
    what makes the *measured* conditional propagation probabilities equal
    the kernel probabilities) or terminate, possibly inoperably.
    """
    steps: List[ChainStep] = []
    current = root_xid
    delay = 0.0
    on_peer = False
    while len(steps) < MAX_CHAIN_LENGTH:
        row = kernel.get(current)
        if row is None:
            steps.append(ChainStep(current, delay, on_peer, inoperable=False))
            break
        draw = rng.random()
        cumulative = 0.0
        chosen = None
        for transition in row.transitions:
            cumulative += transition.prob
            if draw < cumulative:
                chosen = transition
                break
        if chosen is None:
            # Terminal: the leftover mass; inoperable_prob is over all
            # outcomes, so rescale it onto the terminal branch.
            terminal = row.terminal_prob
            inoperable = False
            if terminal > 0 and row.inoperable_prob > 0:
                inoperable = rng.random() < min(1.0, row.inoperable_prob / terminal)
            steps.append(ChainStep(current, delay, on_peer, inoperable))
            break
        steps.append(ChainStep(current, delay, on_peer, inoperable=False))
        delay = chosen.delay.sample(rng)
        on_peer = chosen.scope is Scope.PEER_GPU
        current = chosen.target
    else:
        raise RuntimeError(
            f"chain from {root_xid!r} exceeded {MAX_CHAIN_LENGTH} steps; "
            "kernel is too close to recurrent"
        )
    return steps

