"""The subsystem's headline property: scorecards are byte-identical
across replay speeds, ingest worker counts, and repeated runs.

Speed factors run under a :class:`VirtualClock`, so even the 1x "real
time" pass of a two-day history completes instantly while exercising
the exact pacing arithmetic a wall-clock replay would.
"""

import pytest

from repro.pipeline import FileSetSource
from repro.replay import BacktestConfig, ReplayPacer, VirtualClock, run_backtest
from repro.store import EventStore


def _scorecard_bytes(store, speed):
    clock = VirtualClock()
    pacer = ReplayPacer(speed, monotonic=clock.monotonic, sleep=clock.sleep)
    result = run_backtest(
        lambda: store.query(),
        BacktestConfig(),
        pacer=pacer,
        source_label="store:demo",
        source_fingerprint=store.content_hash(),
    )
    return result.render_json().encode()


class TestByteIdentity:
    def test_identical_across_speed_factors(self, demo_store):
        unbounded = _scorecard_bytes(demo_store, None)
        assert _scorecard_bytes(demo_store, 100.0) == unbounded
        assert _scorecard_bytes(demo_store, 1.0) == unbounded

    def test_identical_across_repeated_runs(self, demo_store):
        assert _scorecard_bytes(demo_store, None) == _scorecard_bytes(
            demo_store, None
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_across_ingest_worker_counts(
        self, demo_logs_dir, demo_store, tmp_path, workers
    ):
        store = EventStore.create(tmp_path / f"events-w{workers}")
        store.ingest(FileSetSource(demo_logs_dir), workers=workers)
        assert store.content_hash() == demo_store.content_hash()
        assert _scorecard_bytes(store, None) == _scorecard_bytes(
            demo_store, None
        )

    def test_windowed_cursor_matches_flat_query(self, demo_store):
        from repro.store import ReplayCursor

        def cursor_factory():
            cursor = ReplayCursor(demo_store, window_seconds=3_600.0)
            return (r for _, _, window in cursor.windows() for r in window)

        windowed = run_backtest(
            cursor_factory,
            BacktestConfig(),
            source_label="store:demo",
            source_fingerprint=demo_store.content_hash(),
        )
        flat = run_backtest(
            lambda: demo_store.query(),
            BacktestConfig(),
            source_label="store:demo",
            source_fingerprint=demo_store.content_hash(),
        )
        assert windowed.render_json() == flat.render_json()
