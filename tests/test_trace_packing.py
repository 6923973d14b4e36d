"""Differential tests: the columnar trace packers against a per-record oracle.

``ColumnarCTATrace.base_groups`` and ``fast_groups`` build their records
with a few C-level passes over a memoised record layout.  The oracle below
is the straightforward per-record packer they replaced; every drawn trace
and geometry must produce the same records, element for element.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import (
    ColumnarCTATrace,
    TraceRecord,
    WalkGeometry,
    records_from_arrays,
)


def oracle_base_groups(trace):
    """One ``TraceRecord`` list per group, one record at a time."""
    groups = []
    for row in trace.addrs:
        row_list = row.tolist()
        groups.append(
            [
                TraceRecord(
                    trace.compute_cycles,
                    tuple(row_list[start:mid]),
                    tuple(row_list[mid:end]),
                )
                for start, mid, end in trace.spans
            ]
        )
    return groups


def oracle_fast_groups(trace, geometry):
    """Fast records for ``geometry``, one record (and quintuple) at a time."""
    compute_cycles = trace.compute_cycles
    spans = trace.spans
    busys = [
        (compute_cycles + (mid - start) + (end - mid)) / geometry.issue_throughput
        for start, mid, end in spans
    ]
    if not geometry.packed:
        return [
            [
                (record.compute_cycles, busy, record.reads, record.writes)
                for record, busy in zip(records, busys)
            ]
            for records in oracle_base_groups(trace)
        ]

    def quintuple(line):
        if geometry.line_interleaved:
            home = line % geometry.n_partitions
        else:
            home = line // geometry.lines_per_page
        return (
            line,
            line % geometry.n_l1_sets if geometry.n_l1_sets else 0,
            home,
            line % geometry.n_l2_sets if geometry.n_l2_sets else 0,
            line % geometry.n_l15_sets if geometry.n_l15_sets else 0,
        )

    groups = []
    for row in trace.addrs:
        row_list = row.tolist()
        groups.append(
            [
                (
                    compute_cycles,
                    busy,
                    tuple(quintuple(line) for line in row_list[start:mid]),
                    tuple(quintuple(line) for line in row_list[mid:end]),
                )
                for (start, mid, end), busy in zip(spans, busys)
            ]
        )
    return groups


def assert_same_records(actual, expected):
    """Equal element for element, with plain tuples for groups and records."""
    assert type(actual) is tuple
    assert len(actual) == len(expected)
    for group, oracle_group in zip(actual, expected):
        assert type(group) is tuple
        assert list(group) == oracle_group
        for record in group:
            assert type(record) is tuple


compute_cycles = st.floats(min_value=0.0, max_value=64.0, allow_nan=False)
addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


@st.composite
def flat_traces(draw):
    """``from_flat`` traces: write period 0, 1 or N; partial tails; one group."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    per_group = draw(st.integers(min_value=0, max_value=40))
    write_period = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 9)))
    accesses_per_record = draw(st.integers(min_value=1, max_value=9))
    lines = draw(
        st.lists(addresses, min_size=n_groups * per_group, max_size=n_groups * per_group)
    )
    return ColumnarCTATrace.from_flat(
        np.array(lines, dtype=np.int64),
        n_groups,
        write_period,
        accesses_per_record,
        draw(compute_cycles),
    )


@st.composite
def span_traces(draw):
    """Traces built from explicit spans, the way ``repro.ingest`` builds them."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    shape = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(sum),
            min_size=1,
            max_size=8,
        )
    )
    spans = []
    cursor = 0
    for reads, writes in shape:
        spans.append((cursor, cursor + reads, cursor + reads + writes))
        cursor += reads + writes
    lines = draw(st.lists(addresses, min_size=n_groups * cursor, max_size=n_groups * cursor))
    is_write = np.zeros(cursor, dtype=bool)
    for _, mid, end in spans:
        is_write[mid:end] = True
    return ColumnarCTATrace(
        np.array(lines, dtype=np.int64).reshape(n_groups, cursor),
        is_write,
        spans,
        draw(compute_cycles),
    )


traces = st.one_of(flat_traces(), span_traces())

set_counts = st.one_of(st.just(0), st.integers(min_value=1, max_value=96))

geometries = st.builds(
    WalkGeometry,
    packed=st.booleans(),
    n_l1_sets=set_counts,
    line_interleaved=st.booleans(),
    n_partitions=st.integers(min_value=1, max_value=16),
    lines_per_page=st.integers(min_value=1, max_value=64),
    issue_throughput=st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
    n_l2_sets=set_counts,
    n_l15_sets=set_counts,
)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(trace=traces, geometry=geometries)
    def test_fast_groups_match_per_record_packer(self, trace, geometry):
        expected = oracle_fast_groups(trace, geometry)
        assert_same_records(trace.fast_groups(geometry), expected)

    @settings(max_examples=100, deadline=None)
    @given(trace=traces, geometries=st.lists(geometries, min_size=2, max_size=4))
    def test_interleaved_geometries_each_match(self, trace, geometries):
        for geometry in geometries + geometries[::-1]:
            assert_same_records(
                trace.fast_groups(geometry), oracle_fast_groups(trace, geometry)
            )

    @settings(max_examples=100, deadline=None)
    @given(trace=traces)
    def test_base_groups_match_per_record_packer(self, trace):
        base = trace.base_groups()
        assert base == oracle_base_groups(trace)
        assert type(base) is list
        for records in base:
            assert type(records) is list
            assert all(type(record) is TraceRecord for record in records)

    @settings(max_examples=100, deadline=None)
    @given(
        n_groups=st.integers(1, 3),
        per_group=st.integers(0, 30),
        write_period=st.integers(0, 6),
        accesses_per_record=st.integers(1, 8),
    )
    def test_from_flat_matches_records_from_arrays(
        self, n_groups, per_group, write_period, accesses_per_record
    ):
        lines = (np.arange(n_groups * per_group, dtype=np.int64) * 11) % 37
        trace = ColumnarCTATrace.from_flat(
            lines, n_groups, write_period, accesses_per_record, 1.5
        )
        for group, records in enumerate(trace.base_groups()):
            chunk = lines[group * per_group : (group + 1) * per_group].tolist()
            assert records == records_from_arrays(
                chunk, write_period, accesses_per_record, 1.5
            )


PACKED = WalkGeometry(
    packed=True,
    n_l1_sets=8,
    line_interleaved=False,
    n_partitions=4,
    lines_per_page=16,
    issue_throughput=2.0,
    n_l2_sets=32,
    n_l15_sets=16,
)


class TestSharedLayout:
    def _pair(self):
        first = ColumnarCTATrace.from_flat(
            np.arange(60, dtype=np.int64), 3, 4, 6, 1.0
        )
        second = ColumnarCTATrace.from_flat(
            np.arange(60, dtype=np.int64) * 13 + 5, 3, 4, 6, 2.0
        )
        return first, second

    def test_same_shape_shares_one_layout(self):
        first, second = self._pair()
        assert first.spans is second.spans
        assert first.is_write is second.is_write
        assert not np.shares_memory(first.addrs, second.addrs)

    def test_shared_layout_is_immutable(self):
        first, _ = self._pair()
        with pytest.raises(ValueError):
            first.is_write[0] = not first.is_write[0]
        with pytest.raises(TypeError):
            first.spans[0] = (0, 0, 0)

    def test_traces_sharing_a_layout_cannot_change_each_other(self):
        first, second = self._pair()
        expected = oracle_fast_groups(second, PACKED)
        expected_base = oracle_base_groups(second)
        first.fast_groups(PACKED)
        first.fast_groups(PACKED._replace(packed=False))
        first.addrs[:] = 0
        assert_same_records(second.fast_groups(PACKED), expected)
        assert second.base_groups() == expected_base

    def test_each_shape_keeps_its_own_layout(self):
        first, _ = self._pair()
        other = ColumnarCTATrace.from_flat(np.arange(60, dtype=np.int64), 3, 4, 5, 1.0)
        assert other.spans is not first.spans
        assert other.spans != first.spans


def _tracked(value) -> int:
    count = gc.is_tracked(value)
    if isinstance(value, tuple):
        count += sum(_tracked(item) for item in value)
    return count


class TestCollectorShape:
    """Packed records hold no tracked object once the collector has seen them.

    Groups, records and quintuples are plain tuples of numbers, so the
    cyclic collector stops tracking a packed trace (one tree level per
    pass) instead of rescanning it in every later full collection.
    """

    @pytest.mark.parametrize("packed", [True, False])
    def test_packed_trace_becomes_untracked(self, packed):
        trace = ColumnarCTATrace.from_flat(
            (np.arange(400, dtype=np.int64) * 7) % 1013, 4, 3, 7, 2.0
        )
        geometry = PACKED._replace(packed=packed)
        groups = trace.fast_groups(geometry)
        for _ in range(6):
            gc.collect()
        assert _tracked(groups) == 0
        assert not gc.is_tracked(trace._fast)
        assert trace.fast_groups(geometry) is groups
