"""Unit tests for SimResult metrics and serialization."""

import pytest

from repro.core.energy import IntegrationTier
from repro.memory.cache import CacheStats
from repro.sim.result import SimResult


def make_result(**overrides):
    base = dict(
        workload_name="wl",
        system_name="sys",
        cycles=1000.0,
        kernels=2,
        ctas=64,
        records=512,
        loads=2000,
        stores=500,
        remote_loads=1500,
        remote_stores=375,
        l1=CacheStats(hits=500, misses=2000),
        l15=CacheStats(),
        l2=CacheStats(hits=1000, misses=1000),
        dram_bytes_read=128000,
        dram_bytes_written=64000,
        link_bytes=500000,
        page_local=625,
        page_remote=1875,
        link_tier="package",
        workload_digest="wd",
        system_digest="sd",
    )
    base.update(overrides)
    return SimResult(**base)


class TestDerivedMetrics:
    def test_accesses(self):
        assert make_result().accesses == 2500

    def test_inter_gpm_bandwidth(self):
        result = make_result()
        assert result.inter_gpm_bandwidth == pytest.approx(500.0)
        assert result.inter_gpm_tbps == pytest.approx(0.5)

    def test_zero_cycles_bandwidth(self):
        assert make_result(cycles=0.0).inter_gpm_bandwidth == 0.0

    def test_dram_totals(self):
        result = make_result()
        assert result.dram_bytes == 192000
        assert result.dram_bytes / result.cycles == pytest.approx(192.0)

    def test_remote_fraction(self):
        assert make_result().remote_access_fraction == pytest.approx(0.75)


class TestSpeedup:
    def test_speedup_over(self):
        fast = make_result(cycles=500.0)
        slow = make_result(cycles=1000.0)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_rejects_workload_mismatch(self):
        with pytest.raises(ValueError, match="same workload"):
            make_result().speedup_over(make_result(workload_name="other"))

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError, match="zero-cycle"):
            make_result(cycles=0.0).speedup_over(make_result())


class TestEnergy:
    def test_package_tier_energy(self):
        energy = make_result().energy
        assert energy.inter_module_tier is IntegrationTier.PACKAGE
        assert energy.total_joules > 0

    def test_board_tier_costs_more(self):
        package = make_result(link_tier="package").energy
        board = make_result(link_tier="board").energy
        assert board.inter_module_joules > package.inter_module_joules


class TestSerialization:
    def test_round_trip(self):
        original = make_result()
        restored = SimResult.from_dict(original.to_dict())
        assert restored == original

    def test_round_trip_preserves_cache_stats(self):
        restored = SimResult.from_dict(make_result().to_dict())
        assert restored.l1.hits == 500
        assert restored.l2.hit_rate == pytest.approx(0.5)

    def test_summary_mentions_key_facts(self):
        text = make_result().summary()
        assert "wl" in text
        assert "sys" in text
