"""Figure 7: inter-GPM bandwidth, baseline vs 16 MB remote-only L1.5.

Paper headlines: the L1.5 cuts inter-GPM traffic by 16.9% / 36.4% / 32.9%
for the memory-/compute-intensive/limited categories, ~28% overall, with
SSSP reduced by up to ~40%.
"""

from __future__ import annotations

from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from .common import ExperimentPlan
from .traffic_common import TrafficComparison, traffic_plan
from .traffic_common import report as report_traffic


def plan() -> ExperimentPlan:
    """Baseline traffic against the 16 MB remote-only L1.5."""
    return traffic_plan(
        "Figure 7: Baseline vs 16MB remote-only L1.5",
        [("baseline", baseline_mcm_gpu()),
         ("16MB remote-only L1.5", mcm_gpu_with_l15(16, remote_only=True))],
    )


def report(comparison: TrafficComparison) -> str:
    """Render Figure 7."""
    return report_traffic(comparison)
