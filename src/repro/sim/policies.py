"""Pluggable recovery policies for the what-if engine.

A policy answers two questions the event loop asks:

* how often should the job checkpoint (``interval_hours``: a fixed value,
  or ``None`` for the clamped Young/Daly optimum against the allocation's
  *measured* interrupt rate — the degenerate-config clamp in
  :func:`repro.slurm.checkpointing.optimal_interval` matters here, because
  an allocation that drew the worst offender GPU can see an MTBF shorter
  than the checkpoint cost);
* what happens when a node is rendered inoperable (wait for repair, swap
  in a hot spare and drain the bad node out of the allocation for good, or
  shrink elastically and regrow when the repair finishes).

Policies are plain data; all clock-advancing behaviour lives in the
engine, keyed off these flags, so a policy is trivially picklable for the
sweep runner's worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.slurm.checkpointing import CheckpointConfig, optimal_interval


@runtime_checkable
class RecoveryPolicy(Protocol):
    """What the engine needs from a policy (structural, for third parties)."""

    name: str
    checkpointing: bool
    interval_hours: Optional[float]
    n_spares: int
    elastic: bool


@dataclass(frozen=True)
class CheckpointRestart:
    """Restart from the last checkpoint; inoperable nodes block on repair."""

    interval_hours: Optional[float] = None  # None: Young/Daly from measured MTBF
    name: str = "ckpt"
    checkpointing: bool = True
    n_spares: int = 0
    elastic: bool = False


@dataclass(frozen=True)
class HotSpare:
    """Checkpoint/restart plus a pool of hot spares.

    An inoperable node is drained and a spare substituted after a short
    swap delay; the drained node rejoins the *pool* (not the allocation)
    once repaired.  Substitution permanently evicts defective parts from
    the allocation — the drain-and-replace lever of Section 5.5.
    """

    n_spares: int = 2
    interval_hours: Optional[float] = None
    name: str = "spare"
    checkpointing: bool = True
    elastic: bool = False


@dataclass(frozen=True)
class ElasticScale:
    """Shrink past an inoperable node and regrow when its repair finishes.

    The job restarts from its checkpoint on the surviving nodes at reduced
    throughput instead of waiting; throughput returns (with the node — and
    any defective part on it) at drain end.
    """

    interval_hours: Optional[float] = None
    name: str = "elastic"
    checkpointing: bool = True
    n_spares: int = 0
    elastic: bool = True


@dataclass(frozen=True)
class NoCheckpoint:
    """The paper's grim baseline: a failure loses all progress."""

    name: str = "none"
    checkpointing: bool = False
    interval_hours: Optional[float] = None
    n_spares: int = 0
    elastic: bool = False


def resolve_interval(
    policy: RecoveryPolicy,
    *,
    checkpoint_cost_hours: float,
    restore_cost_hours: float,
    mtbf_hours: float,
) -> float:
    """The concrete checkpoint interval a run uses (``inf`` disables it)."""
    if not policy.checkpointing:
        return float("inf")
    if policy.interval_hours is not None:
        if policy.interval_hours <= 0:
            raise ValueError(f"interval_hours must be positive, got {policy.interval_hours}")
        return float(policy.interval_hours)
    if not (mtbf_hours > 0) or mtbf_hours == float("inf"):
        return float("inf")  # nothing ever fails: checkpointing is pure cost
    return optimal_interval(
        CheckpointConfig(
            checkpoint_cost_hours=checkpoint_cost_hours,
            restore_cost_hours=restore_cost_hours,
            mtbf_hours=mtbf_hours,
        )
    )


def parse_policy(spec: str) -> RecoveryPolicy:
    """Parse a CLI policy spec.

    Grammar: ``name[:arg]`` —

    * ``none`` — no checkpointing;
    * ``ckpt`` / ``ckpt:2.5`` — checkpoint/restart, Young or fixed 2.5 h;
    * ``spare`` / ``spare:4`` / ``spare:4:1.5`` — hot spares (pool size,
      optional fixed interval);
    * ``elastic`` / ``elastic:2.0`` — shrink/regrow.
    """
    parts = spec.strip().lower().split(":")
    kind, args = parts[0], parts[1:]

    def _interval(value: str) -> float:
        return float(value)

    if kind == "none":
        if args:
            raise ValueError("policy 'none' takes no arguments")
        return NoCheckpoint()
    if kind == "ckpt":
        if len(args) > 1:
            raise ValueError("policy 'ckpt' takes at most one argument (interval hours)")
        return CheckpointRestart(interval_hours=_interval(args[0]) if args else None)
    if kind == "spare":
        if len(args) > 2:
            raise ValueError("policy 'spare' takes at most [n_spares][:interval]")
        n_spares = int(args[0]) if args else 2
        if n_spares < 0:
            raise ValueError(f"n_spares must be >= 0, got {n_spares}")
        interval = _interval(args[1]) if len(args) > 1 else None
        return HotSpare(n_spares=n_spares, interval_hours=interval)
    if kind == "elastic":
        if len(args) > 1:
            raise ValueError("policy 'elastic' takes at most one argument (interval hours)")
        return ElasticScale(interval_hours=_interval(args[0]) if args else None)
    raise ValueError(
        f"unknown policy {spec!r}; expected none | ckpt[:h] | spare[:n][:h] | elastic[:h]"
    )
