"""Figure 17: MCM-GPU vs multi-GPU.

Compares, against the baseline two-GPU board system (which already applies
distributed scheduling and first-touch placement, Section 6.1):

* the optimized multi-GPU (GPU-side remote cache added),
* the optimized MCM-GPU at 768 GB/s links,
* the bandwidth-rich MCM-GPU at 6 TB/s,
* the unbuildable 256-SM monolithic GPU.

Paper headlines: optimized multi-GPU +25.1%; optimized MCM-GPU +51.9%
(i.e., 26.8% over the optimized multi-GPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import (
    baseline_mcm_gpu,
    monolithic_gpu,
    multi_gpu,
    optimized_mcm_gpu,
)
from .common import ExperimentPlan, suite_plan


@dataclass(frozen=True)
class MultiGPUComparison:
    """Geomean speedups over the baseline multi-GPU."""

    speedups: Dict[str, float]

    def mcm_over_optimized_multi_gpu(self) -> float:
        """The paper's 26.8% headline ratio."""
        return self.speedups["mcm-optimized"] / self.speedups["multi-gpu-optimized"]


def plan(fast_factor: Optional[float] = None) -> ExperimentPlan:
    """Every Figure 17 system; ``fast_factor`` shrinks every workload."""
    points = {
        "multi-gpu-optimized": multi_gpu(optimized=True),
        "mcm-optimized": optimized_mcm_gpu(),
        "mcm-6tbs": baseline_mcm_gpu(link_bandwidth=6144.0),
        "monolithic-256": monolithic_gpu(256),
    }
    configs = [multi_gpu(optimized=False)] + list(points.values())

    def reduce(suites) -> MultiGPUComparison:
        baseline, *point_results = suites
        out: Dict[str, float] = {
            label: geomean_speedup(results, baseline)
            for label, results in zip(points, point_results)
        }
        return MultiGPUComparison(speedups=out)

    return suite_plan(configs, reduce, fast_factor)


def report(comparison: MultiGPUComparison) -> str:
    """Render Figure 17."""
    paper = {
        "multi-gpu-optimized": "+25.1%",
        "mcm-optimized": "+51.9%",
        "mcm-6tbs": "",
        "monolithic-256": "",
    }
    rows: List[List[object]] = [
        [label, value, f"{(value - 1) * 100:+.1f}%", paper.get(label, "")]
        for label, value in comparison.speedups.items()
    ]
    rows.append(
        [
            "mcm vs optimized multi-GPU",
            comparison.mcm_over_optimized_multi_gpu(),
            f"{(comparison.mcm_over_optimized_multi_gpu() - 1) * 100:+.1f}%",
            "+26.8%",
        ]
    )
    return format_table(
        ["System", "Speedup", "Delta", "Paper"],
        rows,
        title="Figure 17: MCM-GPU vs multi-GPU (vs baseline multi-GPU)",
    )
