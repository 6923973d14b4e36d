"""Unit tests for the memory-system request path."""

import pytest

from repro.core.gpu import build_system
from repro.core.memsys import LINE_BYTES, REQUEST_HEADER_BYTES
from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15

from .stubs import resident


def interleaved_system(**kwargs):
    return build_system(baseline_mcm_gpu(**kwargs))


def line_homed_at(partition, n_partitions=4, offset=0):
    """A line address whose interleaved home is ``partition``."""
    return partition + n_partitions * offset


class TestLoadPath:
    def test_l1_hit_is_fast(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        first = system.memsys.load(0.0, sm, 0)
        second = system.memsys.load(first, sm, 0)
        assert second - first == pytest.approx(sm.l1_hit_latency)

    def test_local_load_avoids_ring(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        system.memsys.load(0.0, sm, line_homed_at(0))
        assert system.ring.total_link_bytes == 0
        assert system.memsys.remote_loads == 0

    def test_remote_load_crosses_ring_both_ways(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        system.memsys.load(0.0, sm, line_homed_at(1))
        expected = REQUEST_HEADER_BYTES + LINE_BYTES + REQUEST_HEADER_BYTES
        assert system.ring.total_link_bytes == expected
        assert system.memsys.remote_loads == 1

    def test_two_hop_remote_costs_more_latency(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        one_hop = system.memsys.load(0.0, sm, line_homed_at(1))
        system.reset()
        two_hop = system.memsys.load(0.0, sm, line_homed_at(2))
        assert two_hop > one_hop

    def test_remote_load_slower_than_local(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        local = system.memsys.load(0.0, sm, line_homed_at(0))
        system.reset()
        remote = system.memsys.load(0.0, sm, line_homed_at(1))
        assert remote > local

    def test_l2_hit_avoids_dram(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        line = line_homed_at(0)
        system.memsys.load(0.0, sm, line)
        reads_before = system.gpms[0].dram.reads
        # Different SM, same line: misses its own L1, hits the home L2.
        other = system.gpms[0].sms[1]
        system.memsys.load(0.0, other, line)
        assert system.gpms[0].dram.reads == reads_before


class TestL15Path:
    def test_remote_only_l15_captures_second_remote_access(self):
        system = build_system(mcm_gpu_with_l15(16, remote_only=True))
        gpm = system.gpms[0]
        line = line_homed_at(1)
        miss_time = system.memsys.load(0.0, gpm.sms[0], line)
        bytes_after_miss = system.ring.total_link_bytes
        hit_time = system.memsys.load(0.0, gpm.sms[1], line)
        assert system.ring.total_link_bytes == bytes_after_miss  # no new traffic
        assert hit_time < miss_time
        assert gpm.l15.stats.hits == 1

    def test_remote_only_l15_ignores_local_accesses(self):
        system = build_system(mcm_gpu_with_l15(16, remote_only=True))
        gpm = system.gpms[0]
        system.memsys.load(0.0, gpm.sms[0], line_homed_at(0))
        assert gpm.l15.stats.accesses == 0

    def test_all_policy_l15_caches_local_accesses_too(self):
        system = build_system(mcm_gpu_with_l15(16, remote_only=False))
        gpm = system.gpms[0]
        system.memsys.load(0.0, gpm.sms[0], line_homed_at(0))
        assert gpm.l15.stats.accesses == 1

    def test_l15_miss_penalty_applies(self):
        plain = build_system(baseline_mcm_gpu())
        cached = build_system(mcm_gpu_with_l15(16, remote_only=True))
        line = line_homed_at(1)
        t_plain = plain.memsys.load(0.0, plain.gpms[0].sms[0], line)
        t_cached = cached.memsys.load(0.0, cached.gpms[0].sms[0], line)
        assert t_cached > t_plain  # first access pays the extra tag check


class TestStorePath:
    def test_store_acks_immediately(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        ack = system.memsys.store(5.0, sm, line_homed_at(1))
        assert ack == pytest.approx(6.0)

    def test_remote_store_sends_line_one_way(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        system.memsys.store(0.0, sm, line_homed_at(1))
        assert system.ring.total_link_bytes == LINE_BYTES + REQUEST_HEADER_BYTES
        assert system.memsys.remote_stores == 1

    def test_store_miss_write_allocates_in_l2(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        line = line_homed_at(0)
        system.memsys.store(0.0, sm, line)
        assert resident(system.gpms[0].l2, line)
        assert system.gpms[0].dram.reads == 1  # fetch-on-write

    def test_dirty_l2_eviction_writes_back(self):
        config = baseline_mcm_gpu()
        system = build_system(config)
        sm = system.gpms[0].sms[0]
        l2 = system.gpms[0].l2
        capacity = l2.capacity_lines
        # Dirty a line, then stream enough conflicting lines to evict it.
        target_set = 0
        system.memsys.store(0.0, sm, 0)
        writes_before = system.gpms[0].dram.writes
        for i in range(1, l2.ways + 2):
            system.memsys.load(0.0, sm, i * l2.n_sets * 4)  # same set, local
        assert system.gpms[0].dram.writes > writes_before

    def test_store_does_not_allocate_l1(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        system.memsys.store(0.0, sm, 99 * 4)
        assert not resident(sm.l1, 99 * 4)


class TestCounters:
    def test_remote_fraction_interleave(self):
        system = interleaved_system()
        sm = system.gpms[0].sms[0]
        for line in range(16):
            system.memsys.load(0.0, sm, line)
        # Every load misses L1 and is routed by GPM 0's crossbar.
        xbar = system.gpms[0].xbar
        routed = xbar.local_requests + xbar.remote_requests
        assert xbar.remote_requests / routed == pytest.approx(0.75)
        assert system.memsys.loads == 16
