"""Timestamp formatting/parsing: the syslog boundary must round-trip."""

import datetime as dt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.timeutil import (
    DAY,
    EPOCH,
    HOUR,
    MINUTE,
    format_duration,
    format_timestamp,
    format_timestamps,
    parse_timestamp,
)


def _per_value_reference(sim_seconds: float) -> str:
    """The per-value formatter :func:`format_timestamps` replaced, for a
    midnight epoch: it truncates toward zero, so a negative time with a
    fraction gets a negative millisecond field."""
    whole = int(sim_seconds)
    millis = int(round((sim_seconds - whole) * 1000.0))
    if millis >= 1000:  # rounding carried into the next second
        whole += 1
        millis -= 1000
    day, rem = divmod(whole, 86400)
    date_str = (EPOCH + dt.timedelta(days=day)).strftime("%Y-%m-%d")
    hours, rem = divmod(rem, 3600)
    minutes, seconds = divmod(rem, 60)
    return f"{date_str}T{hours:02d}:{minutes:02d}:{seconds:02d}.{millis:03d}"


#: Times from 400 days before the epoch to 5,000 days after it: whole
#: milliseconds, values just below a carry (``x.9995``) and half-even ties
#: (``x.0005``), and arbitrary floats.
_SECONDS = st.integers(-400 * 86400, 5000 * 86400)
_TIMES = st.one_of(
    st.builds(lambda s, ms: s + ms / 1000.0, _SECONDS, st.integers(0, 999)),
    st.builds(lambda s, tail: s + tail, _SECONDS, st.sampled_from([0.9995, 0.0005, 0.0015, 0.9994])),
    st.floats(-400 * DAY, 5000 * DAY, allow_nan=False),
)


class TestFormatTimestamp:
    def test_epoch_is_zero(self):
        assert format_timestamp(0.0) == "2022-01-01T00:00:00.000"

    def test_millisecond_precision(self):
        assert format_timestamp(1.234) == "2022-01-01T00:00:01.234"

    def test_rounding_carry_into_next_second(self):
        assert format_timestamp(1.9996) == "2022-01-01T00:00:02.000"

    def test_day_rollover(self):
        assert format_timestamp(DAY).startswith("2022-01-02T00:00:00")

    def test_large_offsets_render_correct_year(self):
        # 855 days past the epoch lands in May 2024, like the paper's window.
        assert format_timestamp(855 * DAY).startswith("2024-05-05")

    def test_negative_times_round_down_to_the_second(self):
        # A log dated before the epoch parses to negative seconds; its
        # timestamp must render back, not with a "-500" millisecond field.
        assert format_timestamp(-0.5) == "2021-12-31T23:59:59.500"
        assert format_timestamp(-DAY - 0.0004) == "2021-12-31T00:00:00.000"
        assert parse_timestamp(format_timestamp(-400 * DAY + 0.25)) == -400 * DAY + 0.25

    def test_empty_and_non_finite(self):
        assert format_timestamps([]) == []
        with pytest.raises(ValueError):
            format_timestamps([0.0, float("nan")])


class TestFormatTimestamps:
    @given(times=st.lists(_TIMES, min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    @example(times=[-400 * DAY, 5000 * DAY - 0.0005, 86399.9995, 0.0005, 0.0015, -1.0])
    def test_equals_the_per_value_reference(self, times):
        # Equal wherever the reference writes a time (every time from the
        # epoch on); before the epoch its fraction went negative, and the
        # round trip pins the date a negative day must look up.
        stamps = format_timestamps(times)
        assert len(stamps) == len(times)
        for value, stamp in zip(times, stamps):
            reference = _per_value_reference(value)
            if ".-" not in reference:
                assert stamp == reference
            assert parse_timestamp(stamp) == pytest.approx(value, abs=0.0005 + 1e-6)
            assert stamp == format_timestamp(value)

    def test_a_block_spanning_many_days_and_both_signs(self):
        times = [-400 * DAY + 1.5, 4999 * DAY + 0.9996, -1.0, 0.0, 86399.9996]
        assert format_timestamps(times) == [
            "2020-11-27T00:00:01.500",
            "2035-09-09T00:00:01.000",
            "2021-12-31T23:59:59.000",
            "2022-01-01T00:00:00.000",
            "2022-01-02T00:00:00.000",
        ]


class TestParseTimestamp:
    def test_parses_whole_seconds(self):
        assert parse_timestamp("2022-01-01T00:00:05") == 5.0

    def test_parses_fractional(self):
        assert parse_timestamp("2022-01-01T00:00:05.250") == pytest.approx(5.25)

    def test_round_trip_millisecond_accuracy(self):
        for value in (0.0, 0.123, 59.999, 3600.5, 86_399.25, 1_000_000.75):
            parsed = parse_timestamp(format_timestamp(value))
            assert parsed == pytest.approx(value, abs=0.001)

    def test_round_trip_across_two_and_a_half_years(self):
        value = 855 * DAY - 1.5
        assert parse_timestamp(format_timestamp(value)) == pytest.approx(value, abs=0.001)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_timestamp("not-a-timestamp")


class TestFormatDuration:
    def test_seconds(self):
        assert format_duration(12.34) == "12.3s"

    def test_minutes(self):
        assert format_duration(5 * MINUTE) == "5.0m"

    def test_hours(self):
        assert format_duration(2 * HOUR + 5 * MINUTE) == "02h 05m"

    def test_days(self):
        assert format_duration(DAY + 3 * HOUR + 4 * MINUTE) == "1d 03h 04m"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)
