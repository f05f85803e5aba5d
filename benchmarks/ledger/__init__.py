"""Performance ledger: end-to-end and per-layer metrics for five workloads.

See ``README.md`` in this directory for the workloads, the metrics and how
to run and compare ledgers.
"""
