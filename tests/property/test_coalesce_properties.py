"""Property-based tests for Algorithm 1 (coalescing)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import CoalesceConfig, coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch


def _records(times, msg="m", node="n1", pci="p", xid=95):
    return [
        RawXidRecord(time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg)
        for t in times
    ]


times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@given(times=times_strategy)
@settings(max_examples=150, deadline=None)
def test_raw_lines_conserved(times):
    """Every raw record lands in exactly one coalesced error."""
    errors = coalesce_errors(XidBatch.from_records(_records(times)))
    assert sum(e.n_raw for e in errors) == len(times)


@given(times=times_strategy)
@settings(max_examples=150, deadline=None)
def test_output_bounded_by_input(times):
    errors = coalesce_errors(XidBatch.from_records(_records(times)))
    assert 1 <= len(errors) <= len(times)


@given(times=times_strategy)
@settings(max_examples=150, deadline=None)
def test_persistence_nonnegative_and_bounded(times):
    config = CoalesceConfig()
    for error in coalesce_errors(XidBatch.from_records(_records(times)), config):
        assert 0.0 <= error.persistence <= config.max_persistence + 1e-6


@given(times=times_strategy)
@settings(max_examples=150, deadline=None)
def test_runs_separated_by_more_than_window(times):
    """Consecutive coalesced errors of one group are > window apart —
    otherwise they would have been merged."""
    config = CoalesceConfig()
    errors = sorted(coalesce_errors(XidBatch.from_records(_records(times)), config), key=lambda e: e.time)
    for a, b in zip(errors, errors[1:]):
        gap = b.time - (a.time + a.persistence)
        # Gap rule may be violated only when the cut-off forced a split.
        if a.persistence < config.max_persistence - 1e-9:
            assert gap > config.window_seconds

    spans = [(e.time, e.end_time) for e in errors]
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert s2 >= e1  # runs never overlap


@given(times=times_strategy, shift=st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=80, deadline=None)
def test_time_shift_equivariance(times, shift):
    """Shifting all timestamps shifts errors without changing structure."""
    base = coalesce_errors(XidBatch.from_records(_records(times)))
    shifted = coalesce_errors(XidBatch.from_records(_records([t + shift for t in times])))
    assert len(base) == len(shifted)
    for a, b in zip(base, shifted):
        assert abs((b.time - a.time) - shift) < 1e-6
        assert abs(b.persistence - a.persistence) < 1e-6
        assert a.n_raw == b.n_raw


@given(times=times_strategy)
@settings(max_examples=80, deadline=None)
def test_permutation_invariance(times):
    forward = coalesce_errors(XidBatch.from_records(_records(times)))
    backward = coalesce_errors(XidBatch.from_records(_records(list(reversed(times)))))
    assert [(e.time, e.n_raw) for e in forward] == [
        (e.time, e.n_raw) for e in backward
    ]


@given(
    times=times_strategy,
    window=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=80, deadline=None)
def test_wider_window_never_increases_count(times, window):
    narrow = coalesce_errors(XidBatch.from_records(_records(times)), CoalesceConfig(window_seconds=window))
    wide = coalesce_errors(
        XidBatch.from_records(_records(times)), CoalesceConfig(window_seconds=window * 2)
    )
    assert len(wide) <= len(narrow)


@given(
    times_a=times_strategy,
    times_b=times_strategy,
)
@settings(max_examples=60, deadline=None)
def test_groups_independent(times_a, times_b):
    """Records of different GPUs coalesce independently."""
    merged = coalesce_errors(
        XidBatch.from_records(_records(times_a, pci="p1") + _records(times_b, pci="p2"))
    )
    separate = coalesce_errors(XidBatch.from_records(_records(times_a, pci="p1"))) + coalesce_errors(
        XidBatch.from_records(_records(times_b, pci="p2"))
    )
    assert len(merged) == len(separate)
