#!/usr/bin/env python3
"""Live fleet health service, end to end, in one process.

Section 4.3's recommendation is operational, not analytical: *watch the
errors as they happen*.  This example wires the whole live path together
against a simulated cluster:

1. inject a compressed two-day fault trace onto a miniature Delta
   (every default alert rule's trigger is present — a fall-off-the-bus,
   repeated GSP timeouts, a DBE -> row-remap chain, a bursty uncontained
   offender with a heavy persistence tail);
2. replay its syslog lines into per-node log files, live;
3. follow those files with the service's one ingest thread (file-name
   order, a byte budget per file per pass, no queue and no global
   sort), maintain per-GPU health in the registry, evaluate the paper's
   operator rules, and serve Prometheus metrics;
4. once the service is idle, print every alert in event-time order,
   then a closing health report and a final ``/metrics`` scrape.  The
   service reads a static directory in a fixed order, but here the
   emitter is still writing while it reads: how many lines each pass
   finds depends on thread timing, and so does the firing order across
   nodes.  Sorting by event time makes the printout reproducible.

The same service runs against a real log directory via
``repro-delta serve /var/log/gpu-logs``.

Usage::

    python examples/live_fleet_service.py [seed] [--speedup N]

``--speedup 86400`` replays one simulated day per wall-clock second;
the default replays flat-out.
"""

import argparse
import urllib.request

from repro.fleet import (
    FleetHealthService,
    FleetServiceConfig,
    LiveLogEmitter,
    MemorySink,
)
from repro.fleet.demo import demo_counts, demo_trace
from repro.util.tables import Table


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("seed", nargs="?", type=int, default=11)
    parser.add_argument("--speedup", type=float, default=None)
    parser.add_argument("--logs", default="out/fleet-logs")
    args = parser.parse_args()

    trace = demo_trace(seed=args.seed)
    print(
        f"injected {len(trace)} fault events over "
        f"{trace.window_seconds / 86_400.0:.0f} simulated days "
        f"on {len(trace.node_ids)} GPU nodes"
    )

    memory = MemorySink()
    service = FleetHealthService(
        FleetServiceConfig(logs_dir=args.logs, alarm_after_seconds=600.0),
        sinks=[memory],
    )
    service.start()
    print(f"metrics endpoint: {service.metrics_url}\n")

    emitter = LiveLogEmitter.from_trace(
        trace, args.logs, seed=args.seed, speedup=args.speedup
    )
    emitter.start()
    emitter.join()
    service.wait_idle(timeout=60.0)

    alerts = sorted(
        memory.alerts, key=lambda a: (a.time, a.rule, a.node_id, a.pci_bus)
    )
    for alert in alerts:
        print(alert.render())

    # -- closing health report ----------------------------------------
    summary = service.summary()
    print(
        f"\ningested {summary['records_ingested']:,} raw lines -> "
        f"{summary['error_onsets']} error onsets on "
        f"{summary['tracked_gpus']} GPUs "
        f"({summary['persistence_alarms']} persistence alarms)"
    )
    truth = demo_counts(trace)
    measured = summary["onsets_by_xid"]
    table = Table("Injected faults vs observed onsets",
                  ["XID", "injected", "observed"])
    for xid in sorted(truth):
        table.add_row(xid, truth[xid], measured.get(xid, 0))
    print()
    print(table.render())

    print("\nriskiest GPUs right now:")
    for health in sorted(
        service.registry.snapshot(),
        key=lambda h: (-h.risk_score, h.node_id, h.pci_bus),
    )[:5]:
        print(
            f"  {health.node_id}/{health.pci_bus}  "
            f"risk={health.risk_score:.3f}  onsets={health.total_onsets}  "
            f"rate={health.error_rate_per_hour():.1f}/h"
        )

    print("\nalerts by recommended action:")
    actions = {}
    for alert in alerts:
        actions.setdefault(alert.action.value, []).append(alert)
    for action, alerts in sorted(actions.items()):
        units = {f"{a.node_id}/{a.pci_bus}" for a in alerts}
        print(f"  {action:20s} x{len(alerts)}  ({len(units)} units)")

    scrape = urllib.request.urlopen(service.metrics_url, timeout=10).read()
    service.stop()
    print(f"\nfinal scrape: {len(scrape.splitlines())} metric lines, e.g.")
    for line in scrape.decode().splitlines():
        if line.startswith("repro_fleet_error_onsets_total{"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
