"""The run configuration: every knob that shapes a characterization run.

``RunConfig`` is the single typed record of how a run is wired — window
scale, RNG seed, extraction worker count, experiment fan-out, dataset
and store locations, output destination and format.  Every CLI command
builds one (:meth:`RunConfig.from_args`), every :class:`~repro.session.
session.Session` is constructed from one, and every run manifest's
``config_hashes["run"]`` entry is :meth:`RunConfig.digest` — so the
provenance recorded next to a result names exactly the wiring that
produced it.

The digest covers only the *data-determining* fields (scale, seed,
dataset, store).  Execution knobs (``workers``, ``jobs``) and
presentation knobs (``format``, ``output_dir``) are excluded on
purpose: the repo's identity contracts promise byte-identical results
for any worker or job count, and a digest that shifted with them would
make equal results look different.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.results.artifact import config_digest


class SessionError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


#: The scale the default CLI study runs at (the goldens' setting).
DEFAULT_SCALE = 0.05

#: The analysis seed every subcommand defaults to.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class RunConfig:
    """One run's wiring, hashable and comparable.

    ``workers`` parallelizes Stage-I extraction *within* one study;
    ``jobs`` fans independent experiment runners out over processes.
    The two compose: each is a pure speed knob with an identity
    contract, so ``(workers, jobs)`` never changes any result.
    """

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    workers: int = 1
    jobs: int = 1
    dataset: Optional[Path] = None
    store: Optional[Path] = None
    output_dir: Optional[Path] = None
    format: str = "text"

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise SessionError(f"scale must be positive and finite, got {self.scale}")
        if self.workers < 1:
            raise SessionError(f"--workers must be >= 1, got {self.workers}")
        if self.jobs < 1:
            raise SessionError(f"--jobs must be >= 1, got {self.jobs}")
        if self.format not in ("text", "json"):
            raise SessionError(f"format must be text or json, got {self.format!r}")

    @classmethod
    def from_args(cls, args, **overrides) -> "RunConfig":
        """Build from an argparse namespace; absent flags keep defaults.

        ``--workers`` may arrive as ``None``: that resolves here, to the
        CPUs this process may run on, so every consumer downstream sees a
        concrete count.
        """
        import os

        values = {}
        for name in ("scale", "seed", "jobs", "dataset", "store",
                     "output_dir", "format"):
            value = getattr(args, name, None)
            if value is not None:
                values[name] = value
        workers = getattr(args, "workers", None)
        if workers is not None:
            values["workers"] = workers
        elif hasattr(args, "workers"):
            affinity = getattr(os, "sched_getaffinity", None)
            values["workers"] = len(affinity(0)) if affinity else os.cpu_count() or 1
        values.update(overrides)
        return cls(**values)

    def digest(self) -> str:
        """Stable short hash of the data-determining configuration."""
        return config_digest({
            "scale": self.scale,
            "seed": self.seed,
            "dataset": str(self.dataset) if self.dataset else None,
            "store": str(self.store) if self.store else None,
        })
