"""Unit tests for the static table experiments (Tables 1-4)."""

import pytest

from repro.experiments import table1_history, table2_domains, table3_baseline, table4_workloads
from repro.workloads.synthetic import Category


def output(table):
    """A static table's output: its plan has no slots to simulate."""
    return table.plan().reduce([])


class TestTable1:
    def test_four_generations(self):
        rows = output(table1_history)
        assert [g.name for g in rows] == ["Fermi", "Kepler", "Maxwell", "Pascal"]

    def test_pascal_values(self):
        pascal = output(table1_history)[-1]
        assert pascal.sms == 56
        assert pascal.bandwidth_gbps == 720.0
        assert pascal.transistors_billion == 15.3

    def test_die_size_near_reticle_limit(self):
        assert 0.7 < table1_history.die_size_headroom() < 1.0

    def test_report_renders(self):
        text = table1_history.report(output(table1_history))
        assert "Fermi" in text and "Pascal" in text


class TestTable2:
    def test_monotonicity(self):
        assert table2_domains.bandwidth_monotone_decreasing()
        assert table2_domains.energy_monotone_increasing()

    def test_package_advantage(self):
        assert table2_domains.package_advantage_over_board() == pytest.approx(20.0)

    def test_rows(self):
        rows = output(table2_domains)
        assert [row[0] for row in rows] == ["chip", "package", "board", "system"]

    def test_report_renders(self):
        assert "pJ/bit" in table2_domains.report(output(table2_domains))


class TestTable3:
    def test_model_matches_paper(self):
        assert table3_baseline.matches_paper()

    def test_full_scale_inversion(self):
        assert table3_baseline.full_scale_bytes(512 << 10) == 16 << 20

    def test_rows_cover_every_parameter(self):
        rows = output(table3_baseline)
        parameters = {row[0] for row in rows}
        assert "Total SMs" in parameters
        assert "Total DRAM bandwidth" in parameters
        assert "Inter-GPM interconnect" in parameters

    def test_report_renders(self):
        assert "3 TB/s" in table3_baseline.report(output(table3_baseline))


class TestTable4:
    def test_seventeen_rows(self):
        assert len(output(table4_workloads)) == 17

    def test_paper_footprints_match_table(self):
        rows = {row[0]: row[3] for row in output(table4_workloads)}
        for name, footprint in table4_workloads.PAPER_FOOTPRINTS_MB.items():
            assert rows[name] == footprint

    def test_composition(self):
        composition = table4_workloads.suite_composition()
        assert composition[Category.M_INTENSIVE] == 17
        assert composition[Category.C_INTENSIVE] == 16
        assert composition[Category.LIMITED_PARALLELISM] == 15
        assert composition["total"] == 48

    def test_report_renders(self):
        text = table4_workloads.report(output(table4_workloads))
        assert "Stream" in text
