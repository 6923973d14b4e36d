"""Figure 14: inter-GPM bandwidth with first-touch page placement.

Paper headline: the fully optimized MCM-GPU moves ~5x less inter-GPM
traffic than the baseline; several workloads nearly eliminate it.
"""

from __future__ import annotations

from ..core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from .common import ExperimentPlan
from .traffic_common import TrafficComparison, traffic_plan
from .traffic_common import report as report_traffic


def plan() -> ExperimentPlan:
    """Baseline traffic against both optimized (L1.5 + DS + FT) splits."""
    return traffic_plan(
        "Figure 14: Baseline vs L1.5+DS+FT (16MB and 8MB splits)",
        [("baseline", baseline_mcm_gpu()),
         ("16MB+DS+FT", optimized_mcm_gpu(l15_total_mb=16)),
         ("8MB+DS+FT", optimized_mcm_gpu(l15_total_mb=8))],
    )


def report(comparison: TrafficComparison) -> str:
    """Render Figure 14."""
    return report_traffic(comparison)
