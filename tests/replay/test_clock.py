"""Virtual clock and pacer: wall time only paces, never decides."""

import pytest

from repro.replay import ReplayPacer, VirtualClock


class TestVirtualClock:
    def test_sleep_advances_instead_of_blocking(self):
        clock = VirtualClock(start=100.0)
        assert clock.monotonic() == 100.0
        clock.sleep(2.5)
        assert clock.monotonic() == 102.5
        assert clock.total_slept == 2.5

    def test_negative_sleep_is_a_no_op(self):
        clock = VirtualClock()
        clock.sleep(-1.0)
        assert clock.monotonic() == 0.0

    def test_advance_rejects_backward_time(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestReplayPacer:
    def test_unbounded_never_waits(self):
        clock = VirtualClock()
        pacer = ReplayPacer(None, monotonic=clock.monotonic, sleep=clock.sleep)
        for t in (0.0, 1e6, 2e6):
            pacer.wait_until(t)
        assert clock.total_slept == 0.0
        assert pacer.speed is None

    def test_infinite_speed_means_unbounded(self):
        assert ReplayPacer(float("inf")).speed is None

    def test_paces_event_time_at_speed(self):
        clock = VirtualClock()
        pacer = ReplayPacer(10.0, monotonic=clock.monotonic, sleep=clock.sleep)
        pacer.wait_until(0.0)    # anchors, no wait
        pacer.wait_until(10.0)   # 10 sim seconds -> 1 wall second
        pacer.wait_until(30.0)   # +20 sim -> +2 wall
        assert clock.total_slept == pytest.approx(3.0)
        assert pacer.waited == pytest.approx(3.0)

    def test_no_wait_when_already_late(self):
        clock = VirtualClock()
        pacer = ReplayPacer(1.0, monotonic=clock.monotonic, sleep=clock.sleep)
        pacer.wait_until(0.0)
        clock.advance(100.0)     # wall time ran ahead of the stream
        pacer.wait_until(50.0)   # due 50 s ago: deliver immediately
        assert clock.total_slept == 0.0

    def test_regression_reanchors_instead_of_blocking(self):
        clock = VirtualClock()
        pacer = ReplayPacer(1.0, monotonic=clock.monotonic, sleep=clock.sleep)
        pacer.wait_until(1_000.0)
        pacer.wait_until(0.0)     # a seek back: re-anchor, no wait
        assert clock.total_slept == 0.0
        pacer.wait_until(5.0)     # and pacing resumes from the new anchor
        assert clock.total_slept == pytest.approx(5.0)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            ReplayPacer(0.0)
        with pytest.raises(ValueError):
            ReplayPacer(-2.0)
