"""Streaming coalescer and persistence alarms."""

import pytest

from repro.core.coalesce import coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch
from repro.core.streaming import StreamingCoalescer


def _record(t, msg="m", node="n1", pci="p", xid=95):
    return RawXidRecord(time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg)


class TestStreamingMatchesBatch:
    def test_same_output_as_batch_algorithm(self):
        times = [0.0, 3.0, 6.0, 30.0, 33.0, 100.0]
        records = [_record(t) for t in times]
        batch = coalesce_errors(XidBatch.from_records(records))
        streaming = StreamingCoalescer()
        for record in records:
            streaming.feed(record)
        online = streaming.flush()
        assert [(e.time, e.persistence, e.n_raw) for e in online] == [
            (e.time, e.persistence, e.n_raw) for e in batch
        ]

    def test_matches_batch_on_dataset_sample(self, dataset):
        from repro.core.parsing import parse_batch

        records = sorted(
            parse_batch(dataset.log_lines(include_noise=False)),
            key=lambda r: r.time,
        )[:5_000]
        batch = coalesce_errors(XidBatch.from_records(records))
        streaming = StreamingCoalescer()
        for record in records:
            streaming.feed(record)
        online = streaming.flush()
        assert len(online) == len(batch)

    def test_cutoff_splits_runs(self):
        streaming = StreamingCoalescer(max_persistence=10.0)
        for t in (0.0, 4.0, 8.0, 12.0, 16.0):
            streaming.feed(_record(t))
        errors = streaming.flush()
        assert len(errors) == 2
        assert all(e.persistence <= 10.0 for e in errors)


class TestAlarms:
    def test_alarm_fires_while_run_still_open(self):
        streaming = StreamingCoalescer(alarm_after_seconds=9.0)
        alarms = []
        for t in (0.0, 4.0, 8.0, 12.0):
            alarm = streaming.feed(_record(t))
            if alarm:
                alarms.append((t, alarm))
        assert len(alarms) == 1
        fired_at, alarm = alarms[0]
        assert fired_at == 12.0  # the moment the open span crossed 9s
        assert alarm.open_persistence == pytest.approx(12.0)
        assert streaming.open_runs() == 1  # run still open when alarmed

    def test_alarm_fires_once_per_run(self):
        streaming = StreamingCoalescer(alarm_after_seconds=5.0)
        fired = sum(
            1 for t in (0.0, 4.0, 8.0, 12.0, 16.0) if streaming.feed(_record(t))
        )
        assert fired == 1

    def test_new_run_can_alarm_again(self):
        streaming = StreamingCoalescer(alarm_after_seconds=5.0)
        total = 0
        for t in (0.0, 4.0, 8.0):
            total += bool(streaming.feed(_record(t)))
        for t in (100.0, 104.0, 108.0):
            total += bool(streaming.feed(_record(t)))
        assert total == 2

    def test_short_bursts_never_alarm(self):
        streaming = StreamingCoalescer(alarm_after_seconds=60.0)
        for t in (0.0, 2.0, 4.0):
            assert streaming.feed(_record(t)) is None
        assert streaming.alarm_count == 0

    def test_out_of_order_input_rejected(self):
        streaming = StreamingCoalescer()
        streaming.feed(_record(10.0))
        streaming.feed(_record(12.0))
        with pytest.raises(ValueError):
            streaming.feed(_record(5.0))

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            StreamingCoalescer(alarm_after_seconds=0.0)

    def test_late_record_within_window_is_folded_into_the_run(self):
        """A slightly-late line (flushed buffer, slow forwarder) must merge
        into the open run it would have coalesced with anyway."""
        streaming = StreamingCoalescer(window_seconds=5.0)
        streaming.feed(_record(10.0))
        streaming.feed(_record(12.0))
        streaming.feed(_record(9.0))  # 3s late: within the window
        errors = streaming.flush()
        assert len(errors) == 1
        assert errors[0].n_raw == 3
        # The late line extended the run's start backward.
        assert errors[0].time == 9.0
        assert errors[0].persistence == pytest.approx(3.0)

    def test_late_record_beyond_window_still_rejected(self):
        streaming = StreamingCoalescer(window_seconds=5.0)
        streaming.feed(_record(10.0))
        streaming.feed(_record(20.0))
        with pytest.raises(ValueError):
            streaming.feed(_record(14.0))  # 6s late: past the window

    def test_restart_mode_survives_a_time_regression(self):
        """A live feed that jumps backward (clock reset, replay restarting
        behind warm-started history) closes the stale run and starts a new
        one instead of raising."""
        closed = []
        streaming = StreamingCoalescer(
            window_seconds=5.0, time_regression="restart", on_close=closed.append
        )
        streaming.feed(_record(1000.0))
        streaming.feed(_record(1002.0))
        streaming.feed(_record(3.0))  # new timeline, far in the "past"
        streaming.feed(_record(5.0))
        assert len(closed) == 1  # the stale run closed at the jump
        assert closed[0].time == 1000.0
        errors = streaming.flush()
        assert len(errors) == 1 + 1
        assert {(e.time, e.n_raw) for e in errors} == {(1000.0, 2), (3.0, 2)}

    def test_restart_mode_still_folds_in_window_late_records(self):
        streaming = StreamingCoalescer(window_seconds=5.0, time_regression="restart")
        streaming.feed(_record(10.0))
        streaming.feed(_record(12.0))
        streaming.feed(_record(9.0))  # 3s late: folded, not a restart
        errors = streaming.flush()
        assert len(errors) == 1
        assert errors[0].n_raw == 3

    def test_unknown_time_regression_policy_rejected(self):
        with pytest.raises(ValueError):
            StreamingCoalescer(time_regression="ignore")

    def test_late_record_can_complete_an_alarm(self):
        streaming = StreamingCoalescer(window_seconds=5.0, alarm_after_seconds=6.0)
        streaming.feed(_record(10.0))
        streaming.feed(_record(14.0))
        alarm = streaming.feed(_record(9.0))  # stretches the span to 5s... no
        assert alarm is None
        alarm = streaming.feed(_record(16.0))  # span 9.0 -> 16.0 crosses 6s
        assert alarm is not None
        assert alarm.start_time == 9.0


class TestCallbacksAndMemory:
    def test_onsets_are_runs_with_one_line(self):
        streaming = StreamingCoalescer(window_seconds=5.0)
        opened = []
        for t in (0.0, 3.0, 100.0, 102.0):
            record = _record(t)
            streaming.feed(record)
            if streaming.run_of(record).n_raw == 1:
                opened.append(t)
        assert opened == [0.0, 100.0]  # dup lines never re-open

    def test_open_run_counts_the_early_window(self):
        """Every line within the observation window counts, repeated
        timestamps and late folds included; later lines do not."""
        from repro.core.prediction import OBSERVE_SECONDS

        streaming = StreamingCoalescer(window_seconds=5.0)
        times = [0.0, 2.0, 2.0, 6.0, 4.0]  # t=4 arrives late
        times += [6.0 + 4.0 * k for k in range(1, 100)]
        for t in times:
            streaming.feed(_record(t))
        run = streaming.run_of(_record(0.0))
        assert run.n_raw == len(times)
        early = [t for t in times if t <= OBSERVE_SECONDS]
        assert run.early_lines == len(early)
        assert run.early_last == max(early)

    def test_on_close_receives_every_error_even_without_keep_closed(self):
        closed = []
        streaming = StreamingCoalescer(
            window_seconds=5.0, keep_closed=False,
            on_close=lambda e: closed.append(e),
        )
        streaming.feed(_record(0.0))
        streaming.feed(_record(100.0))  # closes the first run
        assert [e.time for e in closed] == [0.0]
        assert streaming.flush() == []  # nothing retained on the live path
        assert [e.time for e in closed] == [0.0, 100.0]

    def test_keep_closed_default_retains_history(self):
        streaming = StreamingCoalescer(window_seconds=5.0)
        streaming.feed(_record(0.0))
        streaming.feed(_record(100.0))
        assert len(streaming.flush()) == 2

    def test_catches_the_uncontained_saga_early(self, dataset):
        """The 17-day-class burst should alarm within minutes of starting,
        not 17 days later — the monitoring gap the paper calls out."""
        from repro.core.parsing import parse_batch

        records = sorted(
            parse_batch(dataset.log_lines(include_noise=False)),
            key=lambda r: r.time,
        )
        streaming = StreamingCoalescer(alarm_after_seconds=1_800.0)
        first_alarm = None
        for record in records:
            alarm = streaming.feed(record)
            if alarm is not None:
                first_alarm = alarm
                break
        assert first_alarm is not None
        assert first_alarm.xid == 95
        # Fired while the burst was ~30 minutes old, i.e. "live".
        assert first_alarm.open_persistence < 2_000.0


class TestLiveVersusPostMortem:
    def test_alarm_latency_vs_postmortem(self, dataset):
        """Live alarms fire within ~threshold seconds of burst onset; the batch
        pipeline learns about a burst only after it ends, which for the paper's
        17-day saga is the whole incident."""
        from repro.core.parsing import parse_batch

        records = sorted(
            parse_batch(dataset.log_lines(include_noise=False)),
            key=lambda r: r.time,
        )
        threshold = 1_800.0
        coalescer = StreamingCoalescer(alarm_after_seconds=threshold)
        alarms = [a for a in map(coalescer.feed, records) if a is not None]
        errors = coalescer.flush()
        long_runs = [e for e in errors if e.persistence > threshold]
        assert alarms and long_runs
        # Every sufficiently long run alarmed, and it alarmed while young.
        assert len(alarms) >= len(long_runs)
        postmortem_delay = sum(e.persistence for e in long_runs) / len(long_runs)
        live_delay = sum(a.open_persistence for a in alarms) / len(alarms)
        assert live_delay < postmortem_delay / 3
