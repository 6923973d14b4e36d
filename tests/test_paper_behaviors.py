"""Integration tests: the paper's qualitative mechanisms on small configs.

These exercise end-to-end simulations (smaller machines / shrunken
workloads, so they stay fast) and assert the *mechanisms* of the paper:
NUMA sensitivity, L1.5 traffic capture, distributed-scheduling locality,
first-touch localization, and the cross-kernel binding story of Figure 12.
"""

import pytest

from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, monolithic_gpu
from repro.experiments.common import run_one
from repro.sim.simulator import simulate
from repro.workloads.suite import spec_by_name
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def workload(name, factor=0.25):
    return SyntheticWorkload(spec_by_name(name).scaled_down(factor))


def custom(name="custom", **overrides):
    base = dict(
        name=name,
        category=Category.M_INTENSIVE,
        pattern="streaming",
        n_ctas=384,
        groups_per_cta=2,
        records_per_group=4,
        accesses_per_record=4,
        write_fraction=0.2,
        compute_per_record=4.0,
        kernel_iterations=2,
        footprint_bytes=2 << 20,
    )
    base.update(overrides)
    return SyntheticWorkload(WorkloadSpec(**base))


class TestNUMASensitivity:
    def test_narrow_links_slow_memory_intensive_work(self):
        wl = custom()
        wide = simulate(wl, baseline_mcm_gpu(link_bandwidth=6144.0))
        narrow = simulate(wl, baseline_mcm_gpu(link_bandwidth=384.0))
        assert narrow.cycles > wide.cycles * 1.3

    def test_interleave_produces_three_quarters_remote(self):
        result = simulate(custom(), baseline_mcm_gpu())
        assert result.remote_access_fraction == pytest.approx(0.75, abs=0.05)

    def test_monolithic_fabric_traffic_is_chip_tier(self):
        """Cross-slice traffic on a die exists but is cheap and unthrottled."""
        wl = custom()
        mono = simulate(wl, monolithic_gpu(256))
        mcm = simulate(wl, baseline_mcm_gpu())
        assert mono.link_tier == "chip"
        # Same slice structure, so similar cross-slice volume...
        assert mono.link_bytes > 0
        # ...but the fabric doesn't throttle: the die is faster.
        assert mono.cycles < mcm.cycles
        # And its interconnect energy is an order of magnitude cheaper.
        assert mono.energy.inter_module_joules < mcm.energy.inter_module_joules / 3


class TestL15Mechanism:
    def test_l15_reduces_link_traffic_for_hot_workload(self):
        wl = custom(pattern="hotset", pattern_params=(("hot_fraction", 0.6), ("hot_lines", 256)))
        without = simulate(wl, baseline_mcm_gpu())
        with_l15 = simulate(wl, mcm_gpu_with_l15(16, remote_only=True))
        assert with_l15.link_bytes < without.link_bytes * 0.9
        assert with_l15.l15.hit_rate > 0.3

    def test_l15_useless_for_pure_streaming(self):
        wl = custom(pattern="streaming")
        with_l15 = simulate(wl, mcm_gpu_with_l15(16, remote_only=True))
        assert with_l15.l15.hit_rate < 0.2

    def test_remote_only_policy_keeps_local_lines_out(self):
        result = simulate(custom(), mcm_gpu_with_l15(16, remote_only=True))
        # All L1.5 lookups came from remote requests: lookups < all accesses.
        assert result.l15.accesses <= result.remote_loads + result.remote_stores


class TestDistributedSchedulingMechanism:
    def test_ds_captures_band_sharing_in_l15(self):
        wl = custom(
            pattern="banded",
            pattern_params=(
                ("band_fraction", 0.4),
                ("band_width_ctas", 96),
                ("band_lines", 128),
            ),
            footprint_bytes=4 << 20,
        )
        central = simulate(wl, mcm_gpu_with_l15(16, remote_only=True))
        distributed = simulate(
            wl, mcm_gpu_with_l15(16, remote_only=True, scheduler="distributed")
        )
        assert distributed.l15.hit_rate > central.l15.hit_rate
        assert distributed.link_bytes < central.link_bytes


class TestFirstTouchMechanism:
    def test_ft_with_ds_localizes_private_chunks(self):
        wl = custom(pattern="streaming")
        config = mcm_gpu_with_l15(
            8, remote_only=True, scheduler="distributed", placement="first_touch"
        )
        result = simulate(wl, config)
        assert result.remote_access_fraction < 0.15
        assert result.link_bytes < simulate(wl, baseline_mcm_gpu()).link_bytes / 3

    def test_ft_without_ds_loses_locality_across_kernels(self):
        """Figure 12's contrapositive: the centralized scheduler re-binds
        CTAs to different GPMs each launch, so pages placed in kernel 1 are
        remote in kernel 2."""
        from dataclasses import replace

        wl = custom(pattern="streaming", kernel_iterations=3)
        ft_central = replace(baseline_mcm_gpu(name="ft-central"), placement="first_touch")
        ft_distributed = replace(
            baseline_mcm_gpu(name="ft-ds"),
            placement="first_touch",
            scheduler="distributed",
        )
        central = simulate(wl, ft_central)
        distributed = simulate(wl, ft_distributed)
        assert central.remote_access_fraction > distributed.remote_access_fraction + 0.2


class TestScalingMechanism:
    def test_high_parallelism_scales_with_sms(self):
        wl = custom(n_ctas=1024, kernel_iterations=1)
        small = simulate(wl, monolithic_gpu(32))
        big = simulate(wl, monolithic_gpu(256))
        assert small.cycles / big.cycles > 3.0

    def test_limited_parallelism_plateaus(self):
        wl = custom(
            name="few-ctas", n_ctas=64, kernel_iterations=1, compute_per_record=64.0
        )
        mid = simulate(wl, monolithic_gpu(128))
        big = simulate(wl, monolithic_gpu(256))
        assert big.cycles > mid.cycles * 0.75  # barely any gain


class TestWriteTrafficMechanism:
    def test_write_heavy_workload_generates_writebacks(self):
        wl = custom(write_fraction=0.5, footprint_bytes=4 << 20)
        result = simulate(wl, baseline_mcm_gpu())
        assert result.dram_bytes_written > 0
        assert result.l2.writebacks > 0

    def test_kernel_waits_for_store_drain(self):
        """Buffered stores must be inside the measured makespan."""
        wl = custom(write_fraction=0.5, compute_per_record=0.5, kernel_iterations=1)
        result = simulate(wl, baseline_mcm_gpu())
        # DRAM bandwidth within physical limits proves drain accounting.
        assert result.dram_bytes / result.cycles <= 3072.0 * 1.01
