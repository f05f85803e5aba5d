"""Parallel Monte-Carlo sweeps over the what-if engine.

Determinism contract: replica ``i`` of a sweep draws from the stream
``spawn_rng(seed, "sim", profile, policy, str(i))`` regardless of which
worker runs it, and aggregation consumes replicas sorted by index — so
``run_sweep(config, workers=K)`` returns identical aggregates for every
``K``.  The same property makes caching sound: results are keyed by a
hash of the sweep's *semantic* config (scenario, policy, job overrides,
seed — everything except the replica count), so growing ``replicas`` or
re-running after an interruption reuses every replica already on disk.

A scenario's :class:`~repro.sim.failures.FailureModel` depends on its
profile alone and is read-only, so each process that runs replicas builds
it once, on its first replica, and every later replica and sweep of that
scenario reuses it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.results.artifact import RunManifest
from repro.sim.engine import SimulationConfig, simulate_training_run
from repro.sim.failures import FailureModel
from repro.sim.metrics import RunMetrics, aggregate_metrics
from repro.sim.scenarios import SCENARIOS, build_scenario
from repro.util.fanout import ordered_map


@dataclass(frozen=True)
class SweepConfig:
    """A sweep, described entirely by plain data (picklable, hashable).

    Workers rebuild the heavy :class:`SimulationConfig` from these fields
    themselves; only strings and numbers cross the process boundary.
    """

    scenario: str = "a100-512"
    policy: str = "ckpt"
    replicas: int = 32
    seed: int = 7
    n_gpus: Optional[int] = None
    useful_hours: Optional[float] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")

    def config_hash(self) -> str:
        """Cache key: every field that changes a replica's outcome.

        ``replicas`` is deliberately excluded — replica ``i`` is the same
        run whether the sweep asks for 10 or 10 000 of them, which is what
        makes partial sweeps resumable and growable.
        """
        payload = asdict(self)
        payload.pop("replicas")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def build(self) -> SimulationConfig:
        return build_scenario(
            self.scenario,
            self.policy,
            n_gpus=self.n_gpus,
            useful_hours=self.useful_hours,
        )


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep outcome plus per-replica detail."""

    config: SweepConfig
    config_hash: str
    runs: Tuple[RunMetrics, ...]  # index == replica index
    aggregate: Dict[str, object] = field(repr=False)
    n_from_cache: int = 0
    manifest: Optional[RunManifest] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": asdict(self.config),
            "config_hash": self.config_hash,
            "n_from_cache": self.n_from_cache,
            "aggregate": self.aggregate,
        }
        if self.manifest is not None:
            out["manifest"] = self.manifest.to_dict()
        return out


@lru_cache(maxsize=32)
def _scenario_model(scenario: str) -> FailureModel:
    """The scenario's failure model, built once per process.

    Its interrupt-probability estimate walks 512 chains per root XID
    (5,120 for the Ampere profile), which costs more than a short replica.
    Pool workers build their own on their first replica.
    """
    with obs.span("sim.model", scenario=scenario) as span:
        model = FailureModel(SCENARIOS[scenario].profile_factory())
        span.add("sim.root_xids", len(model.base_rates.keys() | model.offender_rates.keys()))
    return model


def _run_replica(sweep: SweepConfig, replica: int) -> Tuple[int, Dict[str, object]]:
    """One replica (module-level so pool workers can pickle it)."""
    with obs.span("sim.replica", replica=replica, policy=sweep.policy):
        metrics = simulate_training_run(
            sweep.build(), _scenario_model(sweep.scenario),
            seed=sweep.seed, replica=replica,
        )
    return replica, metrics.to_dict()


def _cache_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"sweep-{digest}.jsonl")


def _load_cache(path: str) -> Dict[int, RunMetrics]:
    """Replica -> metrics from a (possibly truncated) JSONL cache file."""
    cached: Dict[int, RunMetrics] = {}
    if not os.path.exists(path):
        return cached
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                cached[int(row["replica"])] = RunMetrics.from_dict(row["metrics"])
            except (ValueError, KeyError, TypeError):
                continue  # a torn final line from an interrupted sweep
    return cached


def run_sweep(
    config: SweepConfig,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepResult:
    """Run (or resume) a sweep and aggregate it.

    ``workers > 1`` fans replicas out over a process pool; ``cache_dir``
    enables the JSONL result cache (missing replicas are computed and
    appended, present ones are reused verbatim).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    digest = config.config_hash()

    cached: Dict[int, RunMetrics] = {}
    cache_file: Optional[str] = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_file = _cache_path(cache_dir, digest)
        cached = _load_cache(cache_file)

    wanted = range(config.replicas)
    missing = [i for i in wanted if i not in cached]

    with obs.span(
        "sim.sweep", scenario=config.scenario, policy=config.policy,
        workers=workers,
    ) as sweep_span:
        sweep_span.add("sim.replicas_run", len(missing))
        sweep_span.add("sim.replicas_cached", len(cached))
        fresh: List[Tuple[int, Dict[str, object]]] = ordered_map(
            partial(_run_replica, config), missing, workers=workers, label="sim"
        )

    if cache_file is not None and fresh:
        with open(cache_file, "a", encoding="utf-8") as handle:
            for replica, row in sorted(fresh):
                handle.write(
                    json.dumps({"replica": replica, "metrics": row}, sort_keys=True)
                    + "\n"
                )

    by_replica: Dict[int, RunMetrics] = dict(cached)
    for replica, row in fresh:
        by_replica[replica] = RunMetrics.from_dict(row)
    runs = tuple(by_replica[i] for i in wanted)
    from repro import __version__

    manifest = RunManifest(
        run_id=f"sweep-{digest}",
        seed=config.seed,
        workers=workers,
        engine="sim",
        dataset=config.scenario,
        config_hashes={"sweep": digest},
        package_version=__version__,
    )
    return SweepResult(
        config=config,
        config_hash=digest,
        runs=runs,
        aggregate=aggregate_metrics(runs),
        n_from_cache=sum(1 for i in cached if i < config.replicas),
        manifest=manifest,
    )
