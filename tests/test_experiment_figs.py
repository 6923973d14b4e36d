"""Unit tests for the figure-experiment modules.

Simulating the full suite is benchmark territory; here the experiment
logic (aggregation, variant selection, report rendering) is tested by
feeding each plan's ``reduce`` stubbed suite results, so these tests run
in milliseconds.
"""

import pytest

from repro.experiments import (
    fig2_scaling,
    fig4_bandwidth,
    fig6_l15,
    fig13_ft,
    fig15_scurve,
    fig16_breakdown,
    fig17_multigpu,
)
from repro.experiments import traffic_common
from repro.workloads.suite import all_specs

from .stubs import reduce_stubbed, stub_result


class TestFig2Logic:
    def test_requires_reference_point(self):
        with pytest.raises(ValueError, match="32-SM reference"):
            fig2_scaling.plan(sm_counts=(64, 128))

    def test_scaling_points(self):
        def cycles(config, workload):
            return 1000.0 * 32.0 / config.total_sms  # perfect linear scaling

        points = reduce_stubbed(fig2_scaling.plan(sm_counts=(32, 64, 128)), cycles)
        assert points[0].high_parallelism == pytest.approx(1.0)
        assert points[2].high_parallelism == pytest.approx(4.0)
        assert points[2].efficiency == pytest.approx(1.0)
        assert "Figure 2" in fig2_scaling.report(points)


class TestFig4Logic:
    def test_relative_to_first_setting(self):
        def cycles(config, workload):
            return 1000.0 * 6144.0 / config.link_bandwidth  # slower at lower settings

        points = reduce_stubbed(fig4_bandwidth.plan((6144.0, 768.0)), cycles)
        assert points[0].m_intensive == pytest.approx(1.0)
        assert points[1].m_intensive == pytest.approx(768.0 / 6144.0)
        assert "Figure 4" in fig4_bandwidth.report(points)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="at least one"):
            fig4_bandwidth.plan(())


class TestFig6Logic:
    def test_best_iso_transistor_prefers_higher_m_geomean(self):
        def cycles(config, workload):
            if config.total_l15_bytes == 0:
                return 1000.0  # baseline
            # 16 MB variants twice as fast as 8 MB variants.
            return 500.0 if config.total_l15_bytes > 300_000 else 900.0

        variants = reduce_stubbed(fig6_l15.plan(((8, True), (16, True))), cycles)
        best = fig6_l15.best_iso_transistor(variants)
        assert best.capacity_mb == 16
        assert "Figure 6" in fig6_l15.report(variants)

    def test_best_iso_transistor_rejects_empty(self):
        with pytest.raises(ValueError, match="no iso-transistor"):
            fig6_l15.best_iso_transistor([])


class TestFig13Logic:
    def test_two_variants(self):
        variants = reduce_stubbed(fig13_ft.plan(), lambda config, workload: 1000.0)
        assert set(variants) == {8, 16}
        assert "Figure 13" in fig13_ft.report(variants)


class TestTrafficComparisonLogic:
    def test_reduction_factor_first_vs_last(self):
        first = {spec.name: stub_result(spec.name, 1000.0, 10_000) for spec in all_specs()}
        last = {spec.name: stub_result(spec.name, 1000.0, 2_000) for spec in all_specs()}
        comparison = traffic_common.build_comparison("T", [("a", first), ("b", last)])
        assert comparison.reduction_factor == pytest.approx(5.0)
        assert "5.0" in traffic_common.report(comparison)

    def test_needs_two_configs(self):
        with pytest.raises(ValueError, match="at least two"):
            traffic_common.build_comparison("T", [("only", {})])


class TestFig15Logic:
    def test_counts_and_extremes(self):
        per_workload = {f"w{i}": 1.0 + i / 10.0 for i in range(10)}
        per_workload["loser"] = 0.5
        scurve = fig15_scurve.SCurve(per_workload=per_workload)
        assert scurve.degraded == 1
        assert scurve.improved == 9  # w0 is exactly 1.0
        assert scurve.curve[0] == 0.5
        extremes = scurve.extremes(2)
        assert "loser" in extremes


class TestFig16Logic:
    def test_gap_to_monolithic(self):
        breakdown = fig16_breakdown.Breakdown(
            speedups={"optimized": 1.2, "monolithic-256": 1.32}
        )
        assert breakdown.gap_to_monolithic() == pytest.approx(1.1)


class TestFig17Logic:
    def test_headline_ratio(self):
        comparison = fig17_multigpu.MultiGPUComparison(
            speedups={"multi-gpu-optimized": 1.25, "mcm-optimized": 1.52}
        )
        assert comparison.mcm_over_optimized_multi_gpu() == pytest.approx(1.216)
