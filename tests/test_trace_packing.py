"""Differential tests: the columnar trace packers against a per-record oracle.

``ColumnarCTATrace.base_groups`` and ``fast_groups`` build their records
with a few C-level passes over a memoised record layout, taking packed
quintuples from one shared line table per geometry.  The oracle below is
the straightforward per-record packer they replaced; every drawn trace and
geometry must produce the same records, element for element.

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import (
    _LINE_TABLES,
    _TABLE_PINS,
    ColumnarCTATrace,
    TraceRecord,
    WalkGeometry,
    records_from_arrays,
)


def examples(count: int) -> int:
    """``count``, or the loaded profile's example count when that is larger."""
    return max(count, settings.default.max_examples)


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
# Sparse addresses mixed with a small shared range, so that traces drawn
# together touch some of the same lines.
overlapping_addresses = st.one_of(st.integers(min_value=0, max_value=63), addresses)


@st.composite
def flat_traces(draw, lines=addresses):
    """``from_flat`` traces: write period 0, 1 or N; partial tails; one group."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    per_group = draw(st.integers(min_value=0, max_value=40))
    write_period = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 9)))
    accesses_per_record = draw(st.integers(min_value=1, max_value=9))
    drawn = draw(
        st.lists(lines, min_size=n_groups * per_group, max_size=n_groups * per_group)
    )
    return ColumnarCTATrace.from_flat(
        np.array(drawn, dtype=np.int64),
        n_groups,
        write_period,
        accesses_per_record,
        draw(compute_cycles),
    )


@st.composite
def span_traces(draw, lines=addresses):
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
    drawn = draw(st.lists(lines, min_size=n_groups * cursor, max_size=n_groups * cursor))
    is_write = np.zeros(cursor, dtype=bool)
    for _, mid, end in spans:
        is_write[mid:end] = True
    return ColumnarCTATrace(
        np.array(drawn, dtype=np.int64).reshape(n_groups, cursor),
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
    @settings(max_examples=examples(150), deadline=None)
    @given(trace=traces, geometry=geometries)
    def test_fast_groups_match_per_record_packer(self, trace, geometry):
        expected = oracle_fast_groups(trace, geometry)
        assert_same_records(trace.fast_groups(geometry), expected)

    @settings(max_examples=examples(100), deadline=None)
    @given(trace=traces, geometries=st.lists(geometries, min_size=2, max_size=4))
    def test_interleaved_geometries_each_match(self, trace, geometries):
        for geometry in geometries + geometries[::-1]:
            assert_same_records(
                trace.fast_groups(geometry), oracle_fast_groups(trace, geometry)
            )

    @settings(max_examples=examples(100), deadline=None)
    @given(trace=traces)
    def test_base_groups_match_per_record_packer(self, trace):
        base = trace.base_groups()
        assert base == oracle_base_groups(trace)
        assert type(base) is list
        for records in base:
            assert type(records) is list
            assert all(type(record) is TraceRecord for record in records)

    @settings(max_examples=examples(100), deadline=None)
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


def _quintuples(groups):
    """Every packed read and write quintuple of ``groups``, in record order."""
    for group in groups:
        for _, _, reads, writes in group:
            yield from reads
            yield from writes


def _first_trace(workload):
    """CTA 0 of ``workload``'s first kernel."""
    return next(iter(workload.kernels())).trace_fn(0)


def _workload(name, pattern):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=8,
            groups_per_cta=2,
            records_per_group=4,
            accesses_per_record=4,
            kernel_iterations=1,
            footprint_bytes=64 * 1024,
        )
    )


class TestSharedLineTables:
    """Packed records share one quintuple per (geometry, line)."""

    @settings(max_examples=examples(100), deadline=None)
    @given(
        drawn=st.lists(
            st.one_of(
                flat_traces(lines=overlapping_addresses),
                span_traces(lines=overlapping_addresses),
            ),
            min_size=2,
            max_size=5,
        ),
        geometries=st.lists(geometries, min_size=2, max_size=3),
        throughput=st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
        data=st.data(),
    )
    def test_interleaved_traces_share_quintuples_and_match(
        self, drawn, geometries, throughput, data
    ):
        # One more geometry that differs from the first only in issue rate.
        geometries = geometries + [geometries[0]._replace(issue_throughput=throughput)]
        order = data.draw(
            st.permutations(
                [(trace, geometry) for trace in drawn for geometry in geometries]
            )
        )
        shared = {}
        for trace, geometry in order:
            groups = trace.fast_groups(geometry)
            assert_same_records(groups, oracle_fast_groups(trace, geometry))
            if geometry.packed:
                key = geometry.line_table_key()
                for quintuple in _quintuples(groups):
                    assert shared.setdefault((key, quintuple[0]), quintuple) is quintuple

    def test_one_quintuple_per_line_across_workloads(self):
        first = _first_trace(_workload("share-a", "streaming"))
        second = _first_trace(_workload("share-b", "hotset"))
        by_line = {q[0]: q for q in _quintuples(first.fast_groups(PACKED))}
        common = [q for q in _quintuples(second.fast_groups(PACKED)) if q[0] in by_line]
        assert common
        assert all(by_line[q[0]] is q for q in common)

    def test_issue_rate_does_not_split_a_table(self):
        first, second = (
            ColumnarCTATrace.from_flat(np.arange(48, dtype=np.int64) * 5, 2, 3, 4, 1.0)
            for _ in range(2)
        )
        slower = PACKED._replace(issue_throughput=0.5)
        assert slower.line_table_key() == PACKED.line_table_key()
        pairs = zip(_quintuples(first.fast_groups(PACKED)), _quintuples(second.fast_groups(slower)))
        assert all(a is b for a, b in pairs)
        assert first._line_table(PACKED) is second._line_table(slower)
        assert first.fast_groups(PACKED) != second.fast_groups(slower)  # busy differs

    def test_a_table_lives_exactly_as_long_as_its_traces(self):
        # Page sizes no other test uses, so no other live trace pins these.
        pages = (4099, 8197, 16411)
        geometries = [PACKED._replace(lines_per_page=page) for page in pages]
        keys = [geometry.line_table_key() for geometry in geometries]
        traces = [
            ColumnarCTATrace.from_flat(np.arange(60, dtype=np.int64) * stride, 3, 4, 6, 1.0)
            for stride in (1, 7, 4099)
        ]
        for geometry in geometries:
            for trace in traces:
                trace.fast_groups(geometry)
        tables = [weakref.ref(_LINE_TABLES[key]) for key in keys]
        pins = weakref.ref(traces[0]._pins)
        assert pins().keys == tuple(keys)
        assert all(trace._pins is pins() for trace in traces)

        survivor = traces[-1]
        del trace, traces
        gc.collect()
        assert all(table() is not None for table in tables)
        assert survivor._pins is pins()
        del survivor
        gc.collect()
        assert all(table() is None for table in tables)
        assert pins() is None
        assert not any(key in _LINE_TABLES for key in keys)
        assert not any(set(keys) & set(pinned) for pinned in _TABLE_PINS.keys())


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
