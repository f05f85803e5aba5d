"""GPU scheduler: placement invariants, packing, blackouts, occupancy."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeltaShape, build_delta_cluster
from repro.slurm.job import JobRecord, JobSpec, JobState, JobTable
from repro.slurm.scheduler import GpuScheduler, OccupancyIndex, PARTITIONS
from repro.slurm.workload import WorkloadConfig, WorkloadModel

WINDOW = 40 * 86400.0


def _spec(job_id, submit, gpus=1, duration=3600.0, partition="a100"):
    return JobSpec(
        job_id=job_id,
        name="job",
        user="u001",
        submit_time=submit,
        requested_gpus=gpus,
        duration=duration,
        partition=partition,
        is_ml=False,
    )


@pytest.fixture(scope="module")
def schedule(small_cluster):
    model = WorkloadModel(WorkloadConfig(scale=0.002, seed=4))
    specs = model.generate()
    return GpuScheduler(small_cluster).schedule(specs, 855 * 86400.0 * 0.002)


class TestInvariants:
    def test_no_gpu_double_booked(self, schedule):
        per_gpu = {}
        for job in schedule.jobs:
            for gpu in job.gpus:
                per_gpu.setdefault(gpu, []).append((job.start_time, job.end_time))
        for intervals in per_gpu.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-6

    def test_jobs_start_after_submit(self, schedule):
        assert all(j.start_time >= j.submit_time for j in schedule.jobs)

    def test_requested_partition_respected(self, schedule, small_cluster):
        pools = {
            partition: {
                gpu.key
                for node in small_cluster.nodes_of_kind(*kinds)
                for gpu in node.gpus
            }
            for partition, kinds in PARTITIONS.items()
        }
        for job in schedule.jobs:
            assert set(job.gpus) <= pools[job.partition]

    def test_natural_state_carried_through(self, schedule):
        states = {j.state for j in schedule.jobs}
        assert JobState.COMPLETED in states and JobState.FAILED in states


class TestPacking:
    def test_small_jobs_pack_onto_one_node(self, small_cluster):
        specs = [_spec(i, submit=i * 10.0, gpus=4) for i in range(20)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        packed = sum(1 for j in schedule.jobs if len(j.nodes) == 1)
        assert packed / len(schedule.jobs) > 0.8

    def test_large_jobs_fill_whole_nodes(self, small_cluster):
        # 12 GPUs on 4-way nodes should use ~3 nodes, not 12.
        specs = [_spec(1, submit=0.0, gpus=12)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        assert len(schedule.jobs[0].nodes) <= 5


def _a100_pool(cluster):
    """GPUs in the a100 partition's pool."""
    return sum(len(n.gpus) for n in cluster.nodes_of_kind(*PARTITIONS["a100"]))


class TestQueueing:
    def test_oversubscribed_jobs_wait(self, small_cluster):
        pool = _a100_pool(small_cluster)
        specs = [
            _spec(i, submit=0.0, gpus=pool, duration=7200.0) for i in range(1, 3)
        ]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        starts = sorted(j.start_time for j in schedule.jobs)
        assert starts[1] >= starts[0] + 7200.0 - 1e-6

    def test_requests_beyond_pool_are_clamped(self, small_cluster):
        pool = _a100_pool(small_cluster)
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, 0.0, gpus=pool + 50)], WINDOW
        )
        assert schedule.jobs[0].n_gpus == pool

    def test_job_past_window_dropped(self, small_cluster):
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, submit=WINDOW + 10.0)], WINDOW
        )
        assert not schedule.jobs and schedule.dropped_jobs == 1

    def test_unknown_partition_dropped(self, small_cluster):
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, 0.0, partition="tpu")], WINDOW
        )
        assert schedule.dropped_jobs == 1


class TestBlackouts:
    def test_drained_gpu_gets_no_new_placements(self, small_cluster):
        node = [n for n in small_cluster.gpu_nodes if n.kind.value == "a100_x4"][0]
        blackout_gpu = node.gpus[0].key
        blackouts = {blackout_gpu: [(0.0, WINDOW)]}
        specs = [_spec(i, submit=float(i), gpus=1) for i in range(60)]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed = {gpu for job in schedule.jobs for gpu in job.gpus}
        assert blackout_gpu not in placed

    def test_blackout_delays_rather_than_drops(self, small_cluster):
        # Black out every a100 GPU for the first day: jobs queue behind it.
        pool = [
            gpu.key
            for node in small_cluster.gpu_nodes
            if node.kind.value in ("a100_x4", "a100_x8")
            for gpu in node.gpus
        ]
        blackouts = {gpu: [(0.0, 86400.0)] for gpu in pool}
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            [_spec(1, submit=0.0)], WINDOW
        )
        assert schedule.jobs[0].start_time >= 86400.0


class TestDrainSubstitution:
    """Drain semantics the what-if engine's spare policy relies on: a job
    already running through a blackout keeps its GPUs, while new placements
    are substituted onto the rest of the pool."""

    def _node_blackout(self, small_cluster, start, end):
        node = [n for n in small_cluster.gpu_nodes if n.kind.value == "a100_x4"][0]
        return node, {gpu.key: [(start, end)] for gpu in node.gpus}

    def test_running_job_keeps_gpus_through_blackout(self, small_cluster):
        # The blackout starts an hour into a four-hour job on that node:
        # Slurm drain does not preempt, so the placement must be identical
        # to the no-blackout schedule and occupancy must show the job
        # running on the drained GPUs mid-blackout.
        node, blackouts = self._node_blackout(small_cluster, 3600.0, WINDOW)
        specs = [_spec(1, submit=0.0, gpus=4, duration=4 * 3600.0)]
        plain = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        drained = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        assert drained.jobs[0].gpus == plain.jobs[0].gpus
        job = drained.jobs[0]
        mid_blackout = 2 * 3600.0
        assert all(
            drained.occupancy.job_at(gpu, mid_blackout) == job.job_id
            for gpu in job.gpus
        )

    def test_new_placements_substituted_onto_healthy_nodes(self, small_cluster):
        # While the node drains, single-GPU jobs keep flowing: every one of
        # them must land on a spare (non-drained) GPU even though the
        # drained node's GPUs are the earliest-available by release time.
        node, blackouts = self._node_blackout(small_cluster, 0.0, WINDOW / 2)
        drained_keys = {gpu.key for gpu in node.gpus}
        specs = [_spec(i, submit=float(i), gpus=1) for i in range(40)]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed_during = {
            gpu
            for job in schedule.jobs
            if job.start_time < WINDOW / 2
            for gpu in job.gpus
        }
        assert not placed_during & drained_keys
        assert schedule.dropped_jobs == 0  # substitution, not rejection

    def test_drained_node_returns_to_service(self, small_cluster):
        # After the drain window closes the node takes placements again —
        # the repaired node rejoining the pool.
        end = 86400.0
        node, blackouts = self._node_blackout(small_cluster, 0.0, end)
        drained_keys = {gpu.key for gpu in node.gpus}
        pool = _a100_pool(small_cluster)
        specs = [
            _spec(i, submit=end + float(i), gpus=pool, duration=3600.0)
            for i in range(1, 3)
        ]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed = {gpu for job in schedule.jobs for gpu in job.gpus}
        assert drained_keys <= placed

    def test_blackout_on_whole_pool_defers_until_lifted(self, small_cluster):
        # Degenerate spare-pool case: nothing healthy remains, so the job
        # waits for the drain to lift rather than silently landing on a
        # drained GPU.
        pool = [
            gpu.key
            for node in small_cluster.gpu_nodes
            if node.kind.value in ("a100_x4", "a100_x8")
            for gpu in node.gpus
        ]
        lift = 7200.0
        blackouts = {gpu: [(0.0, lift)] for gpu in pool}
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            [_spec(1, submit=0.0, gpus=4)], WINDOW
        )
        assert schedule.jobs[0].start_time >= lift


def _window_pick(heap, submit, blackouts):
    """The ``(ready, release, gpu)`` a single-GPU job takes under the window
    rule: pop up to 24 heap entries and keep the earliest ready one."""
    candidates = []
    for _ in range(min(len(heap), 24)):
        release, gpu = heapq.heappop(heap)
        ready = max(submit, release)
        for start, end in sorted(blackouts.get(gpu, ())):
            if start <= ready < end:
                ready = end
        candidates.append((ready, release, gpu))
    return min(candidates)


@st.composite
def single_gpu_pools(draw, gpus):
    """A heap over a random subset of ``gpus``, a submit time, and blackouts
    before, over or after the heap head's ready time."""
    chosen = draw(st.lists(st.sampled_from(gpus), min_size=1, unique=True))
    # Few distinct release times, so ties are common.
    heap = [(draw(st.sampled_from([0.0, 50.0, 100.0, 400.0])), gpu) for gpu in chosen]
    heapq.heapify(heap)
    submit = draw(st.sampled_from([0.0, 50.0, 75.0, 500.0]))
    head_ready = max(submit, heap[0][0])
    placements = {
        "before": (head_ready - 30.0, head_ready - 10.0),
        "over": (head_ready - 10.0, head_ready + 700.0),
        "after": (head_ready + 10.0, head_ready + 30.0),
    }
    blackouts = {}
    for gpu in draw(st.lists(st.sampled_from(chosen), unique=True)):
        blackouts[gpu] = [
            placements[where]
            for where in draw(st.sets(st.sampled_from(sorted(placements)), min_size=1))
        ]
    return heap, submit, blackouts


class TestSingleGpuAllocation:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_window_rule(self, small_cluster, data):
        gpus = [gpu.key for node in small_cluster.gpu_nodes for gpu in node.gpus]
        heap, submit, blackouts = data.draw(single_gpu_pools(gpus))
        scheduler = GpuScheduler(small_cluster, blackouts=blackouts)

        ready, release, gpu = _window_pick(list(heap), submit, blackouts)
        remaining = sorted(entry for entry in heap if entry != (release, gpu))

        pool = sorted(heap)
        assert scheduler._allocate(pool, submit, 1) == [(ready, gpu)]
        assert pool == remaining


class TestOccupancyIndex:
    def test_job_at_lookup(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=1000.0)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        job = schedule.jobs[0]
        gpu = job.gpus[0]
        occupancy = schedule.occupancy
        assert occupancy.job_at(gpu, job.start_time + 1.0) == job.job_id
        assert occupancy.job_at(gpu, job.end_time + 1.0) is None
        assert occupancy.job_at(("nope", "x"), 0.0) is None

    def test_sample_busy_points_hit_jobs(self, schedule):
        occupancy = schedule.occupancy
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_busy(rng, 200)
        assert len(gpus) == 200
        assert all(
            occupancy.job_at(gpu, t) is not None for gpu, t in zip(gpus, times)
        )

    def test_sample_idle_points_miss_jobs(self, schedule):
        occupancy = schedule.occupancy
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_idle(rng, 200)
        assert all(occupancy.job_at(gpu, t) is None for gpu, t in zip(gpus, times))

    def test_utilization_between_zero_and_one(self, schedule):
        util = schedule.utilization()
        assert 0.0 < util < 1.0

    def test_empty_index(self):
        occupancy = OccupancyIndex(JobTable.from_records(()), window_seconds=100.0)
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_busy(rng, 5)
        assert gpus == [] and times.size == 0
        assert occupancy.utilization() == 0.0


# ---------------------------------------------------------------------------
# The heap scheduler the sorted pools replaced, kept as the reference.
# ---------------------------------------------------------------------------


def _heap_allocate(scheduler, heap, submit_time, k):
    """Pop a window of up to max(4k, 24) heap entries, choose as
    ``GpuScheduler._allocate`` does, and push the rest back with their
    original release."""
    if k == 1:
        release, gpu = heap[0]
        ready = max(submit_time, release)
        if scheduler._skip_blackout(gpu, ready) == ready:
            heapq.heappop(heap)
            return [(ready, gpu)]
    window = min(len(heap), max(4 * k, 24))
    candidates = []
    for _ in range(window):
        release, gpu = heapq.heappop(heap)
        ready = scheduler._skip_blackout(gpu, max(submit_time, release))
        candidates.append((ready, release, gpu))
    candidates.sort()
    plain_start = candidates[k - 1][0]
    eligible = [c for c in candidates if c[0] <= plain_start + 600.0]
    by_node = {}
    for item in eligible:
        by_node.setdefault(item[2][0], []).append(item)
    packable = [group for group in by_node.values() if len(group) >= k]
    if packable:
        chosen = min(
            (sorted(group)[:k] for group in packable),
            key=lambda group: max(r for r, _, _ in group),
        )
    else:
        chosen = []
        for group in sorted(by_node.values(), key=len, reverse=True):
            if len(chosen) >= k:
                break
            chosen.extend(sorted(group)[: k - len(chosen)])
        chosen = chosen[:k]
        if len(chosen) < k:
            taken_keys = {gpu for _, _, gpu in chosen}
            for item in candidates:
                if len(chosen) >= k:
                    break
                if item[2] not in taken_keys:
                    chosen.append(item)
    chosen_keys = {gpu for _, _, gpu in chosen}
    for ready, release, gpu in candidates:
        if gpu not in chosen_keys:
            heapq.heappush(heap, (release, gpu))
    return [(ready, gpu) for ready, _, gpu in chosen]


def _heap_schedule(scheduler, jobs, window_seconds):
    """(placed jobs, dropped count) from one heap per partition."""
    heaps = {}
    for partition, gpus in scheduler._pools.items():
        heaps[partition] = [(0.0, gpu) for gpu in gpus]
        heapq.heapify(heaps[partition])
    records, dropped = [], 0
    for spec in sorted(jobs, key=lambda j: j.submit_time):
        heap = heaps.get(spec.partition)
        if not heap:
            dropped += 1
            continue
        k = min(spec.requested_gpus, len(heap))
        taken = _heap_allocate(scheduler, heap, spec.submit_time, k)
        start = max(ready for ready, _ in taken)
        if start >= window_seconds:
            for ready, gpu in taken:  # back ready from the would-be start
                heapq.heappush(heap, (ready, gpu))
            dropped += 1
            continue
        end = start + spec.duration
        for _, gpu in taken:
            heapq.heappush(heap, (end, gpu))
        records.append(JobRecord(
            job_id=spec.job_id, name=spec.name, user=spec.user,
            submit_time=spec.submit_time, start_time=start, end_time=end,
            n_gpus=k, gpus=tuple(gpu for _, gpu in taken),
            partition=spec.partition, is_ml=spec.is_ml,
            state=spec.natural_state, exit_code=spec.natural_exit_code,
        ))
    return records, dropped


#: 52 a100 GPUs on 9 four-way and 2 eight-way nodes, so candidate windows
#: (24 or 4k GPUs) cover part of a pool, not all of it.
_MEDIUM_CLUSTER = build_delta_cluster(DeltaShape(1, 3, 9, 2, 2))


@st.composite
def workloads(draw):
    """Jobs on a 300 s grid (ties and equal releases are common), some
    larger than a node or than a pool, blackouts whose ends fall before, on
    and after the times GPUs come free, and windows short enough that
    jobs are dropped."""
    specs = [
        JobSpec(
            job_id=i + 1,
            name="job",
            user="u001",
            submit_time=draw(st.integers(0, 48)) * 300.0,
            requested_gpus=draw(st.sampled_from([1, 1, 1, 2, 3, 4, 5, 8, 9, 12, 16, 60])),
            duration=draw(st.integers(1, 24)) * 900.0,
            partition=draw(st.sampled_from(["a100", "a100", "a40", "h100"])),
            is_ml=False,
        )
        for i in range(draw(st.integers(1, 50)))
    ]
    gpus = [gpu.key for node in _MEDIUM_CLUSTER.gpu_nodes for gpu in node.gpus]
    blackouts = {
        gpu: [
            (start * 300.0, start * 300.0 + length)
            for start, length in draw(st.lists(
                st.tuples(st.integers(0, 60), st.sampled_from([300.0, 900.0, 3600.0, 6 * 3600.0])),
                min_size=1, max_size=3,
            ))
        ]
        for gpu in draw(st.lists(st.sampled_from(gpus), unique=True, max_size=30))
    }
    window = draw(st.sampled_from([2 * 3600.0, 6 * 3600.0, 86400.0, 30 * 86400.0]))
    return specs, blackouts, window


class TestMatchesHeapReference:
    @given(workload=workloads())
    @settings(max_examples=300, deadline=None)
    def test_schedule_equals_heap_scheduler(self, workload):
        specs, blackouts, window = workload
        scheduler = GpuScheduler(_MEDIUM_CLUSTER, blackouts=blackouts)
        schedule = scheduler.schedule(specs, window)
        jobs, dropped = _heap_schedule(scheduler, specs, window)
        assert list(schedule.jobs) == jobs
        assert schedule.dropped_jobs == dropped

    def test_dropped_job_returns_its_gpus_ready_at_its_would_be_start(self):
        # Node X, the a100 node whose GPUs sort first, drains until 5 h and
        # one GPU of another node until 12 h, past the 10 h window.  A
        # whole-pool job is dropped and puts X's GPUs back released at 5 h,
        # not at 0: at 6 h a one-GPU job then takes a GPU that was idle
        # all along, not one of X's.
        a100 = sorted(
            gpu.key
            for node in _MEDIUM_CLUSTER.nodes_of_kind(*PARTITIONS["a100"])
            for gpu in node.gpus
        )
        x_gpus = {gpu for gpu in a100 if gpu[0] == a100[0][0]}
        blackouts = {gpu: [(0.0, 5 * 3600.0)] for gpu in x_gpus}
        blackouts[a100[-1]] = [(0.0, 12 * 3600.0)]
        specs = [_spec(1, submit=0.0, gpus=len(a100)), _spec(2, submit=6 * 3600.0)]
        scheduler = GpuScheduler(_MEDIUM_CLUSTER, blackouts=blackouts)
        schedule = scheduler.schedule(specs, 10 * 3600.0)
        assert schedule.dropped_jobs == 1
        assert schedule.jobs[0].gpus == (min(set(a100) - x_gpus),)
        assert (list(schedule.jobs), schedule.dropped_jobs) == _heap_schedule(
            scheduler, specs, 10 * 3600.0
        )
