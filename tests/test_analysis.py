"""Unit tests for speedup aggregation and report rendering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import format_series, format_table
from repro.analysis.speedup import (
    average_bandwidth_tbps,
    bandwidth_reduction_factor,
    fraction_above,
    geomean,
    geomean_speedup,
    sorted_speedup_curve,
    speedups,
)
from repro.memory.cache import CacheStats
from repro.sim.result import SimResult


def result(name, cycles, link_bytes=1000):
    return SimResult(
        workload_name=name,
        system_name="sys",
        cycles=cycles,
        kernels=1,
        ctas=1,
        records=1,
        loads=1,
        stores=0,
        remote_loads=0,
        remote_stores=0,
        l1=CacheStats(),
        l15=CacheStats(),
        l2=CacheStats(),
        dram_bytes_read=0,
        dram_bytes_written=0,
        link_bytes=link_bytes,
        page_local=0,
        page_remote=0,
    )


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            geomean([1.0, 0.0])

    def test_below_arithmetic_mean(self):
        values = [0.5, 1.0, 4.0]
        assert geomean(values) < sum(values) / len(values)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            geomean([1.0, -2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            geomean([1.0, math.nan])

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite"):
            geomean([math.inf, 2.0])

    def test_error_names_offending_values(self):
        with pytest.raises(ValueError, match=r"\[0\.0\]"):
            geomean([1.0, 0.0, 2.0])


class TestSpeedups:
    def test_per_workload(self):
        results = {"a": result("a", 50.0), "b": result("b", 200.0)}
        baselines = {"a": result("a", 100.0), "b": result("b", 100.0)}
        assert speedups(results, baselines) == {"a": pytest.approx(2.0), "b": pytest.approx(0.5)}

    def test_missing_baseline_is_error(self):
        with pytest.raises(KeyError, match="no baseline"):
            speedups({"a": result("a", 1.0)}, {})

    def test_geomean_speedup(self):
        results = {"a": result("a", 50.0), "b": result("b", 200.0)}
        baselines = {"a": result("a", 100.0), "b": result("b", 100.0)}
        assert geomean_speedup(results, baselines) == pytest.approx(1.0)


class TestBandwidthAggregates:
    def test_average_tbps(self):
        results = {
            "a": result("a", 1000.0, link_bytes=1_000_000),
            "b": result("b", 1000.0, link_bytes=3_000_000),
        }
        # 1e6 B / 1e3 cyc = 1000 GB/s = 1 TB/s; likewise 3 TB/s -> mean 2.
        assert average_bandwidth_tbps(results) == pytest.approx(2.0)

    def test_reduction_factor(self):
        base = {"a": result("a", 1.0, link_bytes=5000)}
        opt = {"a": result("a", 1.0, link_bytes=1000)}
        assert bandwidth_reduction_factor(base, opt) == pytest.approx(5.0)

    def test_reduction_factor_zero_optimized(self):
        base = {"a": result("a", 1.0, link_bytes=5000)}
        opt = {"a": result("a", 1.0, link_bytes=0)}
        assert bandwidth_reduction_factor(base, opt) == math.inf


class TestCurveHelpers:
    def test_sorted_curve(self):
        assert sorted_speedup_curve({"a": 2.0, "b": 0.5, "c": 1.0}) == [0.5, 1.0, 2.0]

    def test_fraction_above(self):
        assert fraction_above({"a": 2.0, "b": 0.5, "c": 1.5}) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            fraction_above({})


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["x", 1.5], ["longer", 20.0]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert all(len(line) <= 80 for line in lines)

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])

    def test_format_table_empty_rows(self):
        table = format_table(["a", "bb"], [])
        lines = table.splitlines()
        assert lines[0].rstrip() == "a  bb"
        assert len(lines) == 2  # header + rule, no body

    def test_format_table_float_formatting(self):
        table = format_table(
            ["v"], [[0.0], [1.2345], [12.345], [1234.5]]
        )
        body = table.splitlines()[2:]
        assert body[0].strip() == "0"
        assert body[1].strip() == "1.234"  # three decimals under 10
        assert body[2].strip() == "12.3"  # one decimal from 10 up
        assert body[3].strip() == "1,234"  # thousands separator from 1000 up

    def test_format_table_pads_to_widest_cell(self):
        table = format_table(["x"], [["short"], ["a-much-longer-cell"]])
        header, rule, *_ = table.splitlines()
        assert len(header) == len(rule) == len("a-much-longer-cell")

    def test_format_series_chunks(self):
        text = format_series("s", list(range(25)), per_line=10)
        assert "(25 points)" in text
        assert len(text.splitlines()) == 4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30))
def test_geomean_bounded_by_extremes(values):
    """Property: min <= geomean <= max."""
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
def test_geomean_of_inverses_is_inverse(values):
    """Property: geomean(1/x) == 1/geomean(x) — why geomean suits ratios."""
    inverse = geomean([1.0 / value for value in values])
    assert inverse == pytest.approx(1.0 / geomean(values), rel=1e-6)
