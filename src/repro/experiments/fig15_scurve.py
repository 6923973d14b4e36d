"""Figure 15: s-curve of optimized-MCM speedups over all 48 workloads.

Paper headlines: of the 48 workloads, 31 speed up, 9 slow down; the best
gains exceed 3x (CoMD 3.5x, SP 4.4x) and the worst losses come from the
L1.5 latency adder on latency-bound workloads (up to -14.6%) and from the
shrunken write-back L2 on write-heavy ones (Streamcluster -25.3%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.report import format_series
from ..analysis.speedup import sorted_speedup_curve, speedups
from ..core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from .common import ExperimentPlan, suite_plan


@dataclass(frozen=True)
class SCurve:
    """Optimized-vs-baseline speedups for the full suite."""

    per_workload: Dict[str, float]

    @property
    def curve(self) -> List[float]:
        """Speedups sorted ascending (the plotted series)."""
        return sorted_speedup_curve(self.per_workload)

    @property
    def improved(self) -> int:
        """Workloads faster on the optimized machine."""
        return sum(1 for value in self.per_workload.values() if value > 1.001)

    @property
    def degraded(self) -> int:
        """Workloads slower on the optimized machine."""
        return sum(1 for value in self.per_workload.values() if value < 0.999)

    def extremes(self, n: int = 3) -> Dict[str, float]:
        """The n best and n worst workloads."""
        ordered = sorted(self.per_workload.items(), key=lambda item: item[1])
        picked = ordered[:n] + ordered[-n:]
        return dict(picked)


def plan(fast_factor: Optional[float] = None) -> ExperimentPlan:
    """Optimized vs baseline over the whole suite, shrunk by ``fast_factor``."""
    configs = [baseline_mcm_gpu(), optimized_mcm_gpu()]

    def reduce(suites) -> SCurve:
        baseline, optimized = suites
        return SCurve(per_workload=speedups(optimized, baseline))

    return suite_plan(configs, reduce, fast_factor)


def report(scurve: SCurve) -> str:
    """Render Figure 15."""
    lines = [
        format_series("Figure 15: sorted speedups (optimized / baseline)", scurve.curve),
        f"improved: {scurve.improved} / 48, degraded: {scurve.degraded} / 48 "
        "(paper: 31 improved, 9 degraded)",
        "extremes: "
        + ", ".join(f"{name}={value:.2f}" for name, value in scurve.extremes().items()),
    ]
    return "\n".join(lines)
