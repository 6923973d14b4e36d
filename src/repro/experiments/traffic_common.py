"""Shared machinery for the inter-GPM traffic figures (7, 10, 14).

All three figures plot the same quantity — average inter-GPM bandwidth in
TB/s for each memory-intensive workload plus per-category averages — for
different pairs of configurations.  This module holds the plan, the
extraction and the rendering; the per-figure modules pick the
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import format_table
from ..workloads.synthetic import Category
from .common import ExperimentPlan, filter_names, names_in_category, suite_plan


@dataclass(frozen=True)
class TrafficComparison:
    """Inter-GPM traffic of one or more configurations, ready to render."""

    title: str
    labels: List[str]
    per_workload_tbps: Dict[str, List[float]]
    category_avg_tbps: Dict[str, List[float]]
    reduction_factor: float


def traffic_plan(title: str, labeled_configs: List) -> ExperimentPlan:
    """The suite on every (label, config); its output is their comparison."""
    labels = [label for label, _ in labeled_configs]
    return suite_plan(
        [config for _, config in labeled_configs],
        lambda suites: build_comparison(title, list(zip(labels, suites))),
    )


def build_comparison(
    title: str,
    labeled_results: List,
) -> TrafficComparison:
    """Assemble a :class:`TrafficComparison` from (label, results) pairs.

    The reduction factor compares the first configuration's total link
    traffic against the last one's, over all 48 workloads.
    """
    if len(labeled_results) < 2:
        raise ValueError("a traffic comparison needs at least two configurations")
    labels = [label for label, _ in labeled_results]
    m_names = names_in_category(Category.M_INTENSIVE)
    per_workload: Dict[str, List[float]] = {
        name: [results[name].inter_gpm_tbps for _, results in labeled_results]
        for name in m_names
    }
    category_avg: Dict[str, List[float]] = {}
    for category in Category:
        names = names_in_category(category)
        category_avg[category.value] = [
            sum(filter_names(results, names)[n].inter_gpm_tbps for n in names) / len(names)
            for _, results in labeled_results
        ]
    first = labeled_results[0][1]
    last = labeled_results[-1][1]
    base_bytes = sum(result.link_bytes for result in first.values())
    opt_bytes = sum(result.link_bytes for result in last.values())
    reduction = base_bytes / opt_bytes if opt_bytes else float("inf")
    return TrafficComparison(
        title=title,
        labels=labels,
        per_workload_tbps=per_workload,
        category_avg_tbps=category_avg,
        reduction_factor=reduction,
    )


def report(comparison: TrafficComparison) -> str:
    """Render the traffic table in the paper's figure layout."""
    headers = ["Benchmark"] + comparison.labels
    rows: List[List[object]] = [
        [name] + values for name, values in comparison.per_workload_tbps.items()
    ]
    for category, values in comparison.category_avg_tbps.items():
        rows.append([f"[{category} avg]"] + values)
    table = format_table(headers, rows, title=comparison.title + " (inter-GPM TB/s)")
    return table + f"\n\nTotal traffic reduction (first vs last): {comparison.reduction_factor:.2f}x"
