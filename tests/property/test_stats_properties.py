"""Property-based tests for statistics helpers and MTBE invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.coalesce import CoalescedError
from repro.core.mtbe import ErrorStatistics
from repro.util.stats import lognormal_from_mean_p50, summarize_durations
from repro.util.timeutil import format_timestamp, parse_timestamp


@given(
    p50=st.floats(min_value=0.01, max_value=1e4),
    ratio=st.floats(min_value=1.0001, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_lognormal_inversion_exact(p50, ratio):
    mean = p50 * ratio
    params = lognormal_from_mean_p50(mean, p50)
    assert math.isclose(params.mean, mean, rel_tol=1e-9)
    assert math.isclose(params.median, p50, rel_tol=1e-9)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1,
        max_size=100,
    )
)
@settings(max_examples=150, deadline=None)
def test_duration_summary_ordering(values):
    summary = summarize_durations(values)
    assert min(values) <= summary.p50 <= max(values)
    assert summary.p50 <= summary.p95 + 1e-9
    assert math.isclose(summary.total, sum(values), rel_tol=1e-9, abs_tol=1e-9)


@given(seconds=st.floats(min_value=0.0, max_value=855 * 86_400.0))
@settings(max_examples=300, deadline=None)
def test_timestamp_round_trip(seconds):
    recovered = parse_timestamp(format_timestamp(seconds))
    assert abs(recovered - seconds) <= 0.0011  # millisecond quantization


@st.composite
def error_sets(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    xids = draw(
        st.lists(st.sampled_from([31, 48, 74, 95, 119]), min_size=n, max_size=n)
    )
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    return [
        CoalescedError(t, f"n{i % 7}", "p", xid, 0.0, 1)
        for i, (t, xid) in enumerate(zip(times, xids))
    ]


@given(errors=error_sets(), window=st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=150, deadline=None)
def test_mtbe_count_identity(errors, window):
    """count(xid) * mtbe(xid) == window_hours, for every code present."""
    stats = ErrorStatistics(errors, window_hours=window, n_nodes=5)
    for xid, count in stats.counts().items():
        assert math.isclose(
            stats.mtbe_all_nodes_hours(xid) * count, window, rel_tol=1e-9
        )
    assert math.isclose(
        stats.overall_mtbe_node_hours() * stats.total_count,
        window * 5,
        rel_tol=1e-9,
    )


@given(errors=error_sets())
@settings(max_examples=100, deadline=None)
def test_restriction_partitions_counts(errors):
    """Removing a code's errors removes exactly that code's count."""
    stats = ErrorStatistics(errors, window_hours=100.0, n_nodes=5)
    counts = stats.counts()
    assume(len(counts) >= 2)
    victim = next(iter(counts))
    restricted = stats.restricted(exclude_xids=[victim])
    assert restricted.total_count == stats.total_count - counts[victim]
    assert victim not in restricted.counts()

