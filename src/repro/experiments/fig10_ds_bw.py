"""Figure 10: inter-GPM bandwidth with distributed scheduling.

Paper headline: L1.5 + distributed scheduling together cut inter-GPM
traffic by ~33% overall compared to the baseline.
"""

from __future__ import annotations

from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from .common import ExperimentPlan
from .traffic_common import TrafficComparison, traffic_plan
from .traffic_common import report as report_traffic


def plan(l15_mb: int = 16) -> ExperimentPlan:
    """Baseline traffic against L1.5 + distributed scheduling."""
    return traffic_plan(
        "Figure 10: Baseline vs 16MB remote-only L1.5 + DS",
        [("baseline", baseline_mcm_gpu()),
         ("L1.5 + DS", mcm_gpu_with_l15(l15_mb, remote_only=True, scheduler="distributed"))],
    )


def report(comparison: TrafficComparison) -> str:
    """Render Figure 10."""
    return report_traffic(comparison)
