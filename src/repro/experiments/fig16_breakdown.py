"""Figure 16: breakdown of the optimizations' contributions.

Evaluates each mechanism alone (remote-only L1.5, distributed scheduling,
first-touch placement), the combined optimized design, the 6 TB/s
bandwidth-rich MCM-GPU, and the unbuildable 256-SM monolithic GPU — all as
geomean speedup over the baseline MCM-GPU across the 48-workload suite.

Paper headlines: L1.5 alone +5.2%; DS alone ~0; FT alone -4.7%; all three
together +22.8%; the optimized design comes within ~10% of the monolithic
256-SM GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    optimized_mcm_gpu,
)
from .common import ExperimentPlan, suite_plan, variant


@dataclass(frozen=True)
class Breakdown:
    """Geomean speedups over the baseline MCM-GPU, keyed by design point."""

    speedups: Dict[str, float]

    def gap_to_monolithic(self) -> float:
        """How far the optimized design sits below the 256-SM monolithic."""
        return self.speedups["monolithic-256"] / self.speedups["optimized"]


def plan(fast_factor: Optional[float] = None) -> ExperimentPlan:
    """Every Figure 16 design point; ``fast_factor`` shrinks every workload."""
    baseline_cfg = baseline_mcm_gpu()
    points = {
        "l15-alone": mcm_gpu_with_l15(16, remote_only=True),
        "ds-alone": variant(baseline_cfg, "mcm-ds-only", scheduler="distributed"),
        "ft-alone": variant(baseline_cfg, "mcm-ft-only", placement="first_touch"),
        "optimized": optimized_mcm_gpu(),
        "mcm-6tbs": baseline_mcm_gpu(link_bandwidth=6144.0),
        "monolithic-256": monolithic_gpu(256),
    }
    configs = [baseline_cfg] + list(points.values())

    def reduce(suites) -> Breakdown:
        baseline, *point_results = suites
        result: Dict[str, float] = {
            label: geomean_speedup(results, baseline)
            for label, results in zip(points, point_results)
        }
        return Breakdown(speedups=result)

    return suite_plan(configs, reduce, fast_factor)


def report(breakdown: Breakdown) -> str:
    """Render Figure 16."""
    paper = {
        "l15-alone": "+5.2%",
        "ds-alone": "~0%",
        "ft-alone": "-4.7%",
        "optimized": "+22.8%",
        "mcm-6tbs": "(bandwidth-rich)",
        "monolithic-256": "optimized +~10%",
    }
    rows: List[List[object]] = [
        [label, value, f"{(value - 1) * 100:+.1f}%", paper.get(label, "")]
        for label, value in breakdown.speedups.items()
    ]
    return format_table(
        ["Design point", "Speedup", "Delta", "Paper"],
        rows,
        title="Figure 16: Optimization breakdown (geomean over 48 workloads)",
    )
