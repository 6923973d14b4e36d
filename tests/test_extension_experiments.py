"""Unit tests for the extension-study experiment modules (stubbed runs)."""

import pytest

from repro.experiments import (
    ablation_page_size,
    ablation_scheduler,
    gpm_scaling,
    topology_study,
)
from repro.workloads.suite import all_specs

from .stubs import reduce_stubbed


class TestTopologyStudy:
    def test_speedup_direction(self):
        def cycles(config, workload):
            return 800.0 if config.topology == "fully_connected" else 1000.0

        points = reduce_stubbed(topology_study.plan(), cycles)
        assert points["baseline"].overall == pytest.approx(1.25)
        assert points["optimized"].overall == pytest.approx(1.25)
        assert "Topology" in topology_study.report(points)

    def test_iso_budget_bandwidth_used(self):
        seen = []

        def cycles(config, workload):
            seen.append((config.topology, config.link_bandwidth))
            return 1000.0

        reduce_stubbed(topology_study.plan(link_setting=768.0), cycles)
        fc_settings = {bw for topo, bw in seen if topo == "fully_connected"}
        assert len(fc_settings) == 1
        assert fc_settings.pop() == pytest.approx(512.0)


class TestGPMScaling:
    def test_reference_point_is_unity(self):
        points = reduce_stubbed(gpm_scaling.plan((2, 4, 8)), lambda config, workload: 100.0)
        by_count = {p.n_gpms: p for p in points}
        assert by_count[4].baseline_speedup == pytest.approx(1.0)
        assert by_count[4].sms_per_gpm == 64
        assert by_count[8].sms_per_gpm == 32

    def test_resources_held_constant(self):
        config = gpm_scaling._scaled_config(
            __import__("repro.core.presets", fromlist=["baseline_mcm_gpu"]).baseline_mcm_gpu(),
            8,
            "test-8gpm",
        )
        assert config.total_sms == 256
        assert config.total_dram_bandwidth == pytest.approx(3072.0)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="divide"):
            gpm_scaling.plan((3,))


class TestSchedulerAblation:
    def test_imbalanced_set_nonempty(self):
        assert len(ablation_scheduler.IMBALANCED) >= 3
        names = {spec.name for spec in all_specs()}
        assert set(ablation_scheduler.IMBALANCED) <= names

    def test_speedups_computed(self):
        def cycles(config, workload):
            return {"centralized": 1000.0, "distributed": 800.0, "dynamic": 750.0}[
                config.scheduler
            ]

        ablation = reduce_stubbed(ablation_scheduler.plan(), cycles)
        assert ablation.overall["distributed"] == pytest.approx(1.25)
        assert ablation.overall["dynamic"] == pytest.approx(1000 / 750)
        assert "Scheduler" in ablation_scheduler.report(ablation)


class TestPageSizeAblation:
    def test_reference_and_locality(self):
        def cycles(config, workload):
            return 1000.0 if config.page_bytes == 2048 else 1100.0

        points = reduce_stubbed(ablation_page_size.plan((1024, 2048)), cycles)
        by_size = {p.page_bytes: p for p in points}
        assert by_size[2048].speedup == pytest.approx(1.0)
        assert by_size[1024].speedup == pytest.approx(1000 / 1100)
        assert by_size[2048].mean_locality == pytest.approx(0.8)
        assert "Page-size" in ablation_page_size.report(points)
