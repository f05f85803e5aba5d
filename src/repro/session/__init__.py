"""Session runtime layer: one run-wiring path for every command.

* :mod:`repro.session.config` — :class:`RunConfig`, the typed, hashable
  record of a run's knobs and the single source of the run manifests'
  ``config_hashes["run"]`` digest;
* :mod:`repro.session.session` — :class:`Session`, which owns dataset
  synthesis, store read-through, study construction (lazy, cached) and
  experiment execution, fanned out over ``--jobs`` processes with
  :func:`repro.util.fanout.ordered_map` and byte-identical to serial
  execution.
"""

from repro.session.config import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    RunConfig,
    SessionError,
)
from repro.session.session import Session

__all__ = ["DEFAULT_SCALE", "DEFAULT_SEED", "RunConfig", "Session", "SessionError"]
