"""Property-based tests on substrate invariants: scheduler, propagation,
overprovisioning, rendering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeltaShape, build_delta_cluster
from repro.core.coalesce import CoalescedError
from repro.core.propagation import PropagationAnalyzer
from repro.core.overprovision import OverprovisionConfig, required_overprovision_analytic
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.slurm.job import JobSpec
from repro.slurm.scheduler import GpuScheduler
from repro.syslog.format import render_event_lines
from repro.core.parsing import parse_line
from repro.util.timeutil import parse_timestamp

_CLUSTER = build_delta_cluster(DeltaShape(1, 2, 2, 1, 1))


@st.composite
def job_specs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    specs = []
    for i in range(n):
        specs.append(
            JobSpec(
                job_id=i + 1,
                name="job",
                user="u",
                submit_time=draw(st.floats(min_value=0, max_value=1e6)),
                requested_gpus=draw(st.integers(min_value=1, max_value=8)),
                duration=draw(st.floats(min_value=10.0, max_value=1e5)),
                partition=draw(st.sampled_from(["a40", "a100"])),
                is_ml=False,
            )
        )
    return specs


@given(specs=job_specs())
@settings(max_examples=50, deadline=None)
def test_scheduler_never_double_books(specs):
    schedule = GpuScheduler(_CLUSTER).schedule(specs, 2e6)
    per_gpu = {}
    for job in schedule.jobs:
        assert job.start_time >= job.submit_time
        assert len(set(job.gpus)) == job.n_gpus  # no duplicate GPUs in a job
        for gpu in job.gpus:
            per_gpu.setdefault(gpu, []).append((job.start_time, job.end_time))
    for intervals in per_gpu.values():
        intervals.sort()
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6


@given(specs=job_specs())
@settings(max_examples=30, deadline=None)
def test_scheduler_accounts_every_job(specs):
    schedule = GpuScheduler(_CLUSTER).schedule(specs, 2e6)
    assert len(schedule.jobs) + schedule.dropped_jobs == len(specs)


@st.composite
def error_streams(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    out = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.1, max_value=300.0))
        out.append(
            CoalescedError(
                t,
                draw(st.sampled_from(["n1", "n2"])),
                draw(st.sampled_from(["p1", "p2"])),
                draw(st.sampled_from([31, 74, 95, 119, 122])),
                0.0,
                1,
            )
        )
    return out


@given(errors=error_streams())
@settings(max_examples=60, deadline=None)
def test_propagation_probabilities_normalized(errors):
    """Outgoing intra edges + terminal probability sum to 1 per code."""
    graph = PropagationAnalyzer(errors).analyze()
    for xid in graph.source_counts:
        outgoing = sum(
            stats.count for (src, _), stats in graph.intra_edges.items() if src == xid
        )
        terminal = graph.terminal_counts.get(xid, 0)
        assert outgoing + terminal == graph.source_counts[xid]


@given(errors=error_streams())
@settings(max_examples=60, deadline=None)
def test_nvlink_involvement_accounting(errors):
    involvement = PropagationAnalyzer(errors).nvlink_involvement()
    nvlink_total = sum(1 for e in errors if e.xid == int(Xid.NVLINK))
    assert involvement.total_errors == nvlink_total
    assert (
        involvement.errors_in_all8_incidents
        <= involvement.errors_in_4plus_gpu_incidents
        <= involvement.errors_in_multi_gpu_incidents
        <= involvement.total_errors
    )


@given(
    recovery=st.floats(min_value=1.0, max_value=120.0),
    availability=st.floats(min_value=0.99, max_value=0.9999),
)
@settings(max_examples=80, deadline=None)
def test_overprovision_monotone(recovery, availability):
    base = OverprovisionConfig(recovery_minutes=recovery, availability=availability)
    slower = OverprovisionConfig(
        recovery_minutes=recovery * 2, availability=availability
    )
    assert required_overprovision_analytic(slower) >= required_overprovision_analytic(
        base
    )


@given(persistence=st.floats(min_value=0.0, max_value=5_000.0))
@settings(max_examples=80, deadline=None)
def test_rendered_burst_parses_and_coalesces_whole(persistence):
    """Any event's burst parses back and would coalesce into one error."""
    event = ErrorEvent(
        time=1_000.0, node_id="n1", pci_bus="0000:07:00", xid=Xid.UNCONTAINED,
        persistence=persistence,
    )
    lines = render_event_lines(event, seed=1)
    times = []
    for line in lines:
        record = parse_line(line)
        assert record is not None
        times.append(record.time)
    times.sort()
    assert all(b - a <= 5.0 for a, b in zip(times, times[1:]))
    assert times[-1] - times[0] == (
        0.0 if persistence <= 0 else __import__("pytest").approx(persistence, abs=0.003)
    )


@given(persistence=st.floats(min_value=0.001, max_value=2_000.0), seed=st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_burst_offsets_cover_span(persistence, seed):
    event = ErrorEvent(
        time=1_000.0, node_id="n1", pci_bus="0000:07:00", xid=Xid.GSP,
        persistence=persistence,
    )
    times = [parse_timestamp(line.split(" ")[0]) for line in render_event_lines(event, seed=seed)]
    assert times[0] == event.time
    assert abs(times[-1] - (event.time + persistence)) <= 0.001
    assert all(b - a < 5.0 for a, b in zip(times, times[1:]))
