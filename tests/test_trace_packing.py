"""Differential tests: the columnar trace packers against a per-record oracle.

``ColumnarCTATrace.base_groups`` and ``fast_groups`` build their records
with a few C-level passes over a memoised record layout, sharing one set
of read/write tuples of plain line ints interned through one live line
table.  The oracles below are the straightforward per-record packers they
replaced; every drawn trace and issue rate must produce the same records,
element for element.

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

import gc
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import (
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


def with_busy(base, geometry):
    """Engine records: each ``TraceRecord`` plus its issue busy time.

    The busy time is ``SM.charge_issue``'s left-to-right arithmetic.
    """
    return [
        [
            (
                record.compute_cycles,
                (record.compute_cycles + len(record.reads) + len(record.writes))
                / geometry.issue_throughput,
                record.reads,
                record.writes,
            )
            for record in records
        ]
        for records in base
    ]


def oracle_fast_groups(trace, geometry):
    """Fast records for ``geometry``, one record at a time."""
    return with_busy(oracle_base_groups(trace), geometry)


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
# together touch some of the same lines.  The range sits above the small
# ints the interpreter caches, so one object per line has to come from the
# line table.
overlapping_addresses = st.one_of(
    st.integers(min_value=1 << 20, max_value=(1 << 20) + 63), addresses
)


@st.composite
def flat_sources(draw, lines=addresses):
    """``from_flat`` arguments: write period 0, 1 or N; partial tails; one group."""
    n_groups = draw(st.integers(min_value=1, max_value=4))
    per_group = draw(st.integers(min_value=0, max_value=40))
    write_period = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 9)))
    accesses_per_record = draw(st.integers(min_value=1, max_value=9))
    drawn = draw(
        st.lists(lines, min_size=n_groups * per_group, max_size=n_groups * per_group)
    )
    return (
        np.array(drawn, dtype=np.int64),
        n_groups,
        write_period,
        accesses_per_record,
        draw(compute_cycles),
    )


def flat_traces(lines=addresses):
    """``from_flat`` traces of :func:`flat_sources`."""
    return flat_sources(lines).map(lambda source: ColumnarCTATrace.from_flat(*source))


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

issue_rates = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)
geometries = st.builds(WalkGeometry, issue_throughput=issue_rates)


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

    @settings(max_examples=examples(150), deadline=None)
    @given(source=flat_sources(), geometry=geometries, base_first=st.booleans())
    def test_fast_groups_match_records_from_arrays(self, source, geometry, base_first):
        lines, n_groups, write_period, accesses_per_record, cycles = source
        trace = ColumnarCTATrace.from_flat(*source)
        if base_first:
            trace.base_groups()
        per_group = len(lines) // n_groups
        expected = with_busy(
            [
                records_from_arrays(
                    lines[group * per_group : (group + 1) * per_group].tolist(),
                    write_period,
                    accesses_per_record,
                    cycles,
                )
                for group in range(n_groups)
            ],
            geometry,
        )
        assert_same_records(trace.fast_groups(geometry), expected)

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


GEOMETRY = WalkGeometry(issue_throughput=2.0)


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
        expected = oracle_fast_groups(second, GEOMETRY)
        expected_base = oracle_base_groups(second)
        first.fast_groups(GEOMETRY)
        first.base_groups()
        first.addrs[:] = 0
        assert_same_records(second.fast_groups(GEOMETRY), expected)
        assert second.base_groups() == expected_base

    def test_each_shape_keeps_its_own_layout(self):
        first, _ = self._pair()
        other = ColumnarCTATrace.from_flat(np.arange(60, dtype=np.int64), 3, 4, 5, 1.0)
        assert other.spans is not first.spans
        assert other.spans != first.spans


def _lines(groups):
    """Every read and write line of ``groups``, in record order."""
    for group in groups:
        for _, _, reads, writes in group:
            yield from reads
            yield from writes


def _kernel_lines(workload, geometry):
    """Every record line of ``workload``'s first kernel, CTA by CTA."""
    kernel = next(iter(workload.kernels()))
    for cta in range(kernel.n_ctas):
        yield from _lines(kernel.trace_fn(cta).fast_groups(geometry))


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
            footprint_bytes=256 * 1024,
        )
    )


#: Checks a table's lifetime in a fresh interpreter: in the test process,
#: traces other tests keep alive would pin the one live table.
LIFETIME_SCRIPT = textwrap.dedent(
    """
    import gc
    import weakref

    import numpy as np

    from repro.workloads import trace as t

    traces = [
        t.ColumnarCTATrace.from_flat(np.arange(60, dtype=np.int64) * stride, 3, 4, 6, 1.0)
        for stride in (1, 7, 4099)
    ]
    for each in traces:
        each.fast_groups(t.WalkGeometry(2.0))
    traces[1].base_groups()
    table = weakref.ref(traces[0]._table)
    assert all(each._table is table() for each in traces)
    assert t._line_table() is table()

    survivor = traces[-1]
    del each, traces
    gc.collect()
    assert table() is not None
    assert t._line_table() is survivor._table
    del survivor
    gc.collect()
    assert table() is None
    assert t._LINE_TABLE() is None
    print("table freed")
    """
)


class TestSharedLineTables:
    """Records hold one int object per line, from one live line table."""

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
        views=st.lists(st.one_of(st.none(), geometries), min_size=2, max_size=3),
        data=st.data(),
    )
    def test_interleaved_traces_share_line_ints_and_match(self, drawn, views, data):
        # ``None`` stands for the base view.
        order = data.draw(
            st.permutations([(trace, view) for trace in drawn for view in views])
        )
        shared = {}
        for trace, view in order:
            if view is None:
                groups = trace.base_groups()
                assert groups == oracle_base_groups(trace)
                lines = [
                    line
                    for records in groups
                    for record in records
                    for line in record.reads + record.writes
                ]
            else:
                groups = trace.fast_groups(view)
                assert_same_records(groups, oracle_fast_groups(trace, view))
                lines = list(_lines(groups))
            for line in lines:
                assert type(line) is int
                assert shared.setdefault(line, line) is line

    def test_one_int_per_line_across_workloads(self):
        first = _workload("share-a", "streaming")
        second = _workload("share-b", "hotset")
        by_line = {line: line for line in _kernel_lines(first, GEOMETRY)}
        # Ints above 256 are not cached by the interpreter, so identity
        # there comes from the line table alone.
        slower = GEOMETRY._replace(issue_throughput=0.5)
        common = [
            line
            for line in _kernel_lines(second, slower)
            if line > 256 and line in by_line
        ]
        assert common
        assert all(by_line[line] is line for line in common)

    def test_issue_rate_does_not_split_a_table(self):
        first, second = (
            ColumnarCTATrace.from_flat(np.arange(48, dtype=np.int64) * 500, 2, 3, 4, 1.0)
            for _ in range(2)
        )
        slower = GEOMETRY._replace(issue_throughput=0.5)
        pairs = list(zip(_lines(first.fast_groups(GEOMETRY)), _lines(second.fast_groups(slower))))
        assert pairs
        assert all(a is b for a, b in pairs)
        assert first._table is second._table
        assert first.fast_groups(GEOMETRY) != second.fast_groups(slower)  # busy differs

    def test_a_table_lives_exactly_as_long_as_its_traces(self):
        env = {"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", LIFETIME_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "table freed"


def _tracked(value) -> int:
    count = gc.is_tracked(value)
    if isinstance(value, tuple):
        count += sum(_tracked(item) for item in value)
    return count


class TestCollectorShape:
    """Fast records hold no tracked object once the collector has seen them.

    Groups, records and their line tuples are plain tuples of numbers, so
    the cyclic collector stops tracking a trace's records (one tree level
    per pass) instead of rescanning them in every later full collection,
    whether they were built first or taken from the base view.
    """

    @pytest.mark.parametrize("base_first", [True, False])
    def test_packed_trace_becomes_untracked(self, base_first):
        trace = ColumnarCTATrace.from_flat(
            (np.arange(400, dtype=np.int64) * 7) % 1013, 4, 3, 7, 2.0
        )
        if base_first:
            trace.base_groups()
        groups = trace.fast_groups(GEOMETRY)
        for _ in range(6):
            gc.collect()
        assert _tracked(groups) == 0
        assert not gc.is_tracked(trace._fast)
        assert trace.fast_groups(GEOMETRY) is groups
