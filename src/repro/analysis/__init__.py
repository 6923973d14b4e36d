"""Result aggregation, speedup math, and report formatting."""

from .compare import ComparisonMatrix, build_matrix, render_matrix
from .report import format_series, format_table
from .speedup import (
    average_bandwidth_tbps,
    bandwidth_reduction_factor,
    fraction_above,
    geomean,
    geomean_speedup,
    sorted_speedup_curve,
    speedups,
)

__all__ = [
    "ComparisonMatrix",
    "build_matrix",
    "render_matrix",
    "format_series",
    "format_table",
    "average_bandwidth_tbps",
    "bandwidth_reduction_factor",
    "fraction_above",
    "geomean",
    "geomean_speedup",
    "sorted_speedup_curve",
    "speedups",
]
