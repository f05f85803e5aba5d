#!/usr/bin/env python3
"""Incident forensics: replay the paper's three narrated incidents.

Each incident (Figure 1 and Figure 8) is reconstructed as a miniature
observable dataset; the pipeline then re-derives the story from raw log
text and the job database: which XID struck, which job died, what the
recovery cost was.

Usage::

    python examples/incident_forensics.py
"""

from repro.core.coalesce import coalesce_errors
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.parsing import parse_batch
from repro.core.propagation import PropagationAnalyzer
from repro.datasets import gsp_incident, nvlink_multinode_incident, pmu_mmu_incident
from repro.faults.xid import XID_CATALOG, Xid
from repro.util.timeutil import format_duration


def investigate(name: str, incident) -> None:
    print("=" * 72)
    print(name)
    print("=" * 72)
    print(f"Narrative: {incident.narrative}")
    print()

    lines = incident.log_lines()
    print(f"Raw syslog ({len(lines)} lines, first 3):")
    for line in lines[:3]:
        print(f"  {line}")
    print()

    errors = coalesce_errors(parse_batch(lines))
    print("Coalesced errors:")
    for error in errors:
        info = XID_CATALOG[Xid(error.xid)]
        print(
            f"  t={error.time:>9.1f}s  {error.node_id} {error.pci_bus}  "
            f"XID {error.xid} ({info.abbreviation}), persisted "
            f"{format_duration(max(error.persistence, 0.1))}"
        )
    print()

    analyzer = JobImpactAnalyzer(incident.slurm_db, errors)
    for job in incident.slurm_db.jobs:
        is_failed, responsible = analyzer.classify_jobs()[job.job_id]
        verdict = "GPU-FAILED" if is_failed else "unaffected"
        codes = ", ".join(str(x) for x in responsible) or "-"
        print(
            f"  job {job.job_id} ({job.name}, {job.n_gpus} GPU(s) on "
            f"{len(job.nodes)} node(s)): {verdict}; responsible XIDs: {codes}; "
            f"exit={job.exit_code} state={job.state.value}"
        )

    if len(errors) > 1:
        graph = PropagationAnalyzer(errors).analyze()
        for (src, dst), stats in graph.intra_edges.items():
            print(
                f"  propagation: XID {src} -> XID {dst} "
                f"(mean {stats.mean_delay:.1f}s)"
            )

    downtime = incident.slurm_db.total_downtime_node_hours()
    if downtime:
        print(f"  recovery cost: {downtime:.1f} node-hours of drain + reboot")
    print()


def main() -> None:
    investigate("Incident: GSP RPC timeout (paper Figure 1)", gsp_incident())
    investigate(
        "Incident 1: NVLink error fails a 4-node MPI job (Figure 8)",
        nvlink_multinode_incident(),
    )
    investigate(
        "Incident 2: PMU SPI error cascades into an MMU error (Figure 8)",
        pmu_mmu_incident(),
    )


if __name__ == "__main__":
    main()
