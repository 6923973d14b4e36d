"""Unit tests for trace records and packing helpers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from repro.workloads.trace import (
    ColumnarCTATrace,
    KernelLaunch,
    TraceRecord,
    WalkGeometry,
    records_from_arrays,
    write_period_from_fraction,
)


class TestWritePeriod:
    def test_zero_fraction(self):
        assert write_period_from_fraction(0.0) == 0

    def test_common_fractions(self):
        assert write_period_from_fraction(0.5) == 2
        assert write_period_from_fraction(0.33) == 3
        assert write_period_from_fraction(0.25) == 4
        assert write_period_from_fraction(0.1) == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="write_fraction"):
            write_period_from_fraction(1.0)
        with pytest.raises(ValueError, match="write_fraction"):
            write_period_from_fraction(-0.1)


class TestRecordsFromArrays:
    def test_packs_batches(self):
        records = records_from_arrays(list(range(10)), 0, 4, 7.0)
        assert len(records) == 3
        assert records[0].reads == (0, 1, 2, 3)
        assert records[2].reads == (8, 9)  # partial tail kept
        assert all(record.compute_cycles == 7.0 for record in records)

    def test_write_period_marks_stores(self):
        records = records_from_arrays(list(range(8)), 4, 4, 1.0)
        # Accesses 4 and 8 (1-indexed) are stores.
        assert records[0].writes == (3,)
        assert records[1].writes == (7,)
        assert records[0].reads == (0, 1, 2)

    def test_all_access_counts_preserved(self):
        lines = list(range(23))
        records = records_from_arrays(lines, 3, 5, 0.0)
        total = sum(record.n_accesses for record in records)
        assert total == 23

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="accesses_per_record"):
            records_from_arrays([1], 0, 0, 1.0)


class TestTraceRecord:
    def test_n_accesses(self):
        record = TraceRecord(1.0, (1, 2), (3,))
        assert record.n_accesses == 3


class TestKernelLaunch:
    def test_validates_sizes(self):
        with pytest.raises(ValueError, match="n_ctas"):
            KernelLaunch(n_ctas=0, groups_per_cta=1, trace_fn=lambda c: [])
        with pytest.raises(ValueError, match="groups_per_cta"):
            KernelLaunch(n_ctas=1, groups_per_cta=0, trace_fn=lambda c: [])


class TestColumnarCTATrace:
    def _trace(self, **overrides):
        kwargs = dict(
            n_groups=2, write_period=3, accesses_per_record=5, compute_cycles=2.0
        )
        kwargs.update(overrides)
        lines = (np.arange(46, dtype=np.int64) * 7) % 31
        return lines, ColumnarCTATrace.from_flat(lines, **kwargs)

    def test_from_flat_matches_records_from_arrays_per_group(self):
        lines, trace = self._trace()
        per_group = lines.size // 2
        for group in range(2):
            chunk = lines[group * per_group : (group + 1) * per_group].tolist()
            assert trace.base_groups()[group] == records_from_arrays(
                chunk, 3, 5, 2.0
            )

    def test_sequence_protocol_views_base_groups(self):
        _, trace = self._trace()
        assert len(trace) == 2
        assert list(iter(trace)) == trace.base_groups()
        assert trace[1] == trace.base_groups()[1]

    def test_validation(self):
        lines = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError, match="accesses_per_record"):
            ColumnarCTATrace.from_flat(lines, 2, 0, 0, 1.0)
        with pytest.raises(ValueError, match="n_groups"):
            ColumnarCTATrace.from_flat(lines, 0, 0, 4, 1.0)
        with pytest.raises(ValueError, match="equal groups"):
            ColumnarCTATrace.from_flat(lines, 3, 0, 4, 1.0)


GEOMETRY = WalkGeometry(issue_throughput=4.0)


def _memsys(config):
    system = build_system(config)
    system.reset()
    return system.memsys


class TestFastGroups:
    def _trace(self):
        lines = (np.arange(24, dtype=np.int64) * 5) % 97
        return ColumnarCTATrace.from_flat(
            lines, n_groups=2, write_period=4, accesses_per_record=6,
            compute_cycles=3.0,
        )

    def test_records_carry_plain_line_addresses(self):
        trace = self._trace()
        groups = trace.fast_groups(GEOMETRY)
        base = trace.base_groups()
        for group, records in zip(groups, base):
            for fast, record in zip(group, records):
                compute_cycles, busy, reads, writes = fast
                assert compute_cycles == record.compute_cycles
                assert busy == (
                    3.0 + len(record.reads) + len(record.writes)
                ) / 4.0
                # The base view's own tuples of plain ints, not copies.
                assert reads is record.reads
                assert writes is record.writes
                assert all(type(line) is int for line in reads + writes)

    def test_machines_sharing_an_issue_rate_share_groups(self):
        # Every cache and homing field differs: L1, L2 and L1.5 set
        # counts, interleaved against paged homing, partition count and
        # page size.  Only the issue rate is shared.
        first = _memsys(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        base = mcm_gpu_with_l15(
            8, remote_only=False, placement="first_touch", n_gpms=2, sms_per_gpm=2
        )
        sm = base.gpm.sm
        second = _memsys(
            replace(
                base,
                page_bytes=4 * base.page_bytes,
                gpm=replace(
                    base.gpm,
                    sm=replace(sm, l1=replace(sm.l1, ways=2)),
                    l2=replace(base.gpm.l2, ways=4),
                ),
            )
        )
        gpm_a, gpm_b = first._gpms[0], second._gpms[0]
        assert gpm_a.sms[0].l1.n_sets != gpm_b.sms[0].l1.n_sets
        assert gpm_a.l2.n_sets != gpm_b.l2.n_sets
        assert not gpm_a.has_l15 and gpm_b.has_l15
        assert first._page_table._line_interleaved
        assert not second._page_table._line_interleaved
        assert len(first._gpms) != len(second._gpms)
        assert (
            first._page_table.address_map.lines_per_page
            != second._page_table.address_map.lines_per_page
        )

        trace = self._trace()
        assert first.walk_geometry() == second.walk_geometry()
        assert trace.fast_groups(first.walk_geometry()) is trace.fast_groups(
            second.walk_geometry()
        )

    def test_unpacked_flavor_keeps_plain_addresses(self):
        # ``packed`` is accepted and ignored: the reference path asks for
        # the same records the walkers read.
        memsys = _memsys(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        trace = self._trace()
        groups = trace.fast_groups(memsys.walk_geometry(packed=False))
        assert groups is trace.fast_groups(memsys.walk_geometry(packed=True))
        for group, records in zip(groups, trace.base_groups()):
            for (compute_cycles, busy, reads, writes), record in zip(
                group, records
            ):
                assert reads == record.reads
                assert writes == record.writes

    def test_cache_is_per_geometry_and_stable(self):
        trace = self._trace()
        slower = GEOMETRY._replace(issue_throughput=2.0)
        first_a = trace.fast_groups(GEOMETRY)
        first_b = trace.fast_groups(slower)
        # Interleaving issue rates (a benchmark sweeping configs over one
        # memoized trace) must not rebuild: each rate keeps its slot.
        assert trace.fast_groups(GEOMETRY) is first_a
        assert trace.fast_groups(slower) is first_b
        assert first_a is not first_b
        # Only the busy time differs; the line tuples are shared.
        for group_a, group_b in zip(first_a, first_b):
            for record_a, record_b in zip(group_a, group_b):
                assert 2 * record_a[1] == record_b[1]
                assert record_a[2] is record_b[2]
                assert record_a[3] is record_b[3]
