"""Error->job coupling: encounters, failures, repair incidents."""

from collections import Counter

import pytest

from repro.core.jobimpact import ATTRIBUTION_WINDOW
from repro.faults.calibration import AMPERE_CALIBRATION
from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.xid import Xid
from repro.slurm.failures import FAILURE_DELAY_RANGE, FailureCoupler
from repro.slurm.job import JobSpec, JobState
from repro.slurm.scheduler import GpuScheduler

WINDOW = 30 * 86400.0


def _failure_probability(result, xid):
    """The ground-truth P(job fails | it met ``xid``) of a coupling."""
    return len(result.truth_failures.get(xid, set())) / len(result.truth_encounters[xid])


def _of(trace, xid):
    return [e for e in trace if e.xid is xid]


def _spec(job_id, submit, duration=7200.0, gpus=1, mmu=0, xid13=0):
    return JobSpec(
        job_id=job_id,
        name="job",
        user="u001",
        submit_time=submit,
        requested_gpus=gpus,
        duration=duration,
        partition="a100",
        is_ml=False,
        mmu_emissions=mmu,
        xid13_emissions=xid13,
    )


def _couple(cluster, specs, events):
    schedule = GpuScheduler(cluster).schedule(specs, WINDOW)
    trace = FaultTrace(list(events), window_seconds=WINDOW)
    coupler = FailureCoupler(AMPERE_CALIBRATION, 3)
    return schedule, coupler.couple(schedule, trace, specs)


class TestEncounterAndFailure:
    def test_failure_delay_lands_inside_the_attribution_window(self):
        # A coupled failure ends its job this long after the error; Stage
        # III attributes a failure only within its Section-5.3 window.
        low, high = FAILURE_DELAY_RANGE
        assert 0.0 < low < high < ATTRIBUTION_WINDOW

    def test_gsp_error_on_busy_gpu_kills_job(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=10_000.0)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        gpu = schedule.jobs[0].gpus[0]
        error = ErrorEvent(
            time=schedule.jobs[0].start_time + 500.0,
            node_id=gpu[0], pci_bus=gpu[1], xid=Xid.GSP, inoperable=True,
        )
        trace = FaultTrace([error], window_seconds=WINDOW)
        result = FailureCoupler(AMPERE_CALIBRATION, 3).couple(
            schedule, trace, specs
        )
        job = result.jobs[0]
        # GSP: Table 2 gives 100% job failure.
        assert job.state is JobState.NODE_FAIL
        assert job.truth_failed_by_xid == int(Xid.GSP)
        # Failure lands inside the 20-second attribution window.
        assert 0.5 <= job.end_time - error.time <= 20.0
        assert _failure_probability(result, Xid.GSP) == 1.0

    def test_error_on_idle_gpu_touches_nothing(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=100.0)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        gpu = schedule.jobs[0].gpus[0]
        error = ErrorEvent(
            time=schedule.jobs[0].end_time + 5_000.0,
            node_id=gpu[0], pci_bus=gpu[1], xid=Xid.GSP,
        )
        trace = FaultTrace([error], window_seconds=WINDOW)
        result = FailureCoupler(AMPERE_CALIBRATION, 7).couple(schedule, trace, specs)
        assert result.jobs[0].state is JobState.COMPLETED
        assert Xid.GSP not in result.truth_encounters

    def test_mmu_failure_probability_statistics(self, small_cluster):
        # Many single-GPU jobs each encountering one MMU error: the failure
        # fraction should match Table 2's 58.67%.
        specs = [_spec(i, submit=i * 20_000.0, duration=10_000.0) for i in range(1, 301)]
        schedule = GpuScheduler(small_cluster).schedule(specs, 400 * 20_000.0)
        events = []
        for job in schedule.jobs:
            gpu = job.gpus[0]
            events.append(
                ErrorEvent(time=job.start_time + 100.0, node_id=gpu[0],
                           pci_bus=gpu[1], xid=Xid.MMU)
            )
        trace = FaultTrace(events, window_seconds=400 * 20_000.0)
        result = FailureCoupler(AMPERE_CALIBRATION, 5).couple(
            schedule, trace, specs
        )
        assert _failure_probability(result, Xid.MMU) == pytest.approx(0.5867, abs=0.09)

    def test_long_job_mmu_failures_suppressed(self, small_cluster):
        # >4,000-minute jobs mask MMU errors via checkpoint/retry machinery.
        specs = [
            _spec(i, submit=i * 400_000.0, duration=5_000 * 60.0)
            for i in range(1, 101)
        ]
        window = 102 * 400_000.0
        schedule = GpuScheduler(small_cluster).schedule(specs, window)
        events = []
        for job in schedule.jobs:
            gpu = job.gpus[0]
            events.append(
                ErrorEvent(time=job.start_time + 50.0, node_id=gpu[0],
                           pci_bus=gpu[1], xid=Xid.MMU)
            )
        trace = FaultTrace(events, window_seconds=window)
        result = FailureCoupler(AMPERE_CALIBRATION, 5).couple(
            schedule, trace, specs
        )
        assert _failure_probability(result, Xid.MMU) < 0.25


class TestWorkloadEmissions:
    def test_buggy_jobs_emit_mmu_on_their_own_gpus(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=50_000.0, mmu=3)]
        schedule, result = _couple(small_cluster, specs, [])
        mmu_events = _of(result.trace, Xid.MMU)
        assert mmu_events
        job_gpus = set(schedule.jobs[0].gpus)
        assert all(e.gpu_key in job_gpus for e in mmu_events)
        # Emissions stamped with the owner's pid for the renderer.
        assert result.pids

    def test_budget_roughly_conserved(self, small_cluster):
        specs = [
            _spec(i, submit=i * 60_000.0, duration=50_000.0, mmu=2)
            for i in range(1, 101)
        ]
        window = 102 * 60_000.0
        schedule = GpuScheduler(small_cluster).schedule(specs, window)
        trace = FaultTrace([], window_seconds=window)
        result = FailureCoupler(AMPERE_CALIBRATION, 7).couple(
            schedule, trace, specs
        )
        realized = len(_of(result.trace, Xid.MMU))
        assert realized == pytest.approx(200, rel=0.15)

    def test_user_xid13_rendered_but_not_studied(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=50_000.0, xid13=2)]
        _, result = _couple(small_cluster, specs, [])
        assert len(_of(result.trace, Xid.GENERAL_SW)) == 2
        assert Xid.GENERAL_SW not in result.truth_encounters

    def test_dead_jobs_stop_emitting(self, small_cluster):
        # With failure probability ~0.59 per job, many 5-emission jobs die
        # at their first emission; their later emissions must vanish.
        specs = [
            _spec(i, submit=i * 60_000.0, duration=50_000.0, mmu=5)
            for i in range(1, 81)
        ]
        window = 82 * 60_000.0
        schedule = GpuScheduler(small_cluster).schedule(specs, window)
        trace = FaultTrace([], window_seconds=window)
        result = FailureCoupler(AMPERE_CALIBRATION, 9).couple(
            schedule, trace, specs
        )
        per_job = Counter()
        for index, event in enumerate(result.trace.events):
            owner = result.pids.get(index)
            if owner is not None:
                per_job[owner] += 1
        failed = {j.job_id for j in result.jobs if j.truth_failed_by_xid == 31}
        for job_id in failed:
            assert per_job[10_000 + job_id % 50_000] == 1


class TestRepairIncidents:
    def test_errors_grouped_into_incidents(self, small_cluster):
        node = small_cluster.gpu_nodes[0]
        gpu = node.gpus[0]
        close = [
            ErrorEvent(time=t, node_id=node.node_id, pci_bus=gpu.pci_bus, xid=Xid.GSP)
            for t in (1_000.0, 1_400.0, 2_000.0)
        ]
        far = ErrorEvent(
            time=500_000.0, node_id=node.node_id, pci_bus=gpu.pci_bus, xid=Xid.GSP
        )
        _, result = _couple(small_cluster, [], close + [far])
        assert len(result.node_events) == 2
        reasons = {e.reason for e in result.node_events}
        assert reasons == {"xid119"}

    def test_user_codes_trigger_no_repair(self, small_cluster):
        node = small_cluster.gpu_nodes[0]
        gpu = node.gpus[0]
        event = ErrorEvent(
            time=1_000.0, node_id=node.node_id, pci_bus=gpu.pci_bus,
            xid=Xid.GENERAL_SW,
        )
        _, result = _couple(small_cluster, [], [event])
        assert result.node_events == []

    def test_incident_durations_positive(self, dataset):
        assert dataset.slurm_db.node_events
        assert all(e.duration_hours > 0 for e in dataset.slurm_db.node_events)
