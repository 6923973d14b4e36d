"""Figure 2: hypothetical GPU performance scaling with SM count.

Runs every suite workload on monolithic GPUs of growing SM count (L2 and
DRAM bandwidth scaled proportionally, as the paper specifies) and reports
speedup over the 32-SM machine for the high-parallelism and
limited-parallelism groups against the linear-scaling reference.

Paper headlines checked by the bench: high-parallelism workloads reach a
large fraction (~88%) of linear scaling at 256 SMs; limited-parallelism
workloads plateau well below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import monolithic_gpu
from ..workloads.synthetic import Category
from .common import ExperimentPlan, filter_names, names_in_category, suite_plan

#: SM counts evaluated by default.  The paper sweeps 32..288; the default
#: keeps the powers of two plus the 288 extrapolation point.
DEFAULT_SM_COUNTS: Tuple[int, ...] = (32, 64, 96, 128, 160, 192, 224, 256, 288)
#: Reduced sweep for quick runs.
FAST_SM_COUNTS: Tuple[int, ...] = (32, 64, 128, 256)


@dataclass(frozen=True)
class ScalingPoint:
    """Speedups over the 32-SM reference at one SM count."""

    n_sms: int
    linear: float
    high_parallelism: float
    limited_parallelism: float

    @property
    def efficiency(self) -> float:
        """High-parallelism fraction of linear scaling."""
        return self.high_parallelism / self.linear


def plan(sm_counts: Sequence[int] = DEFAULT_SM_COUNTS) -> ExperimentPlan:
    """The SM sweep, one point per SM count."""
    if 32 not in sm_counts:
        raise ValueError("the sweep needs the 32-SM reference point")
    high = names_in_category(Category.M_INTENSIVE) + names_in_category(Category.C_INTENSIVE)
    limited = names_in_category(Category.LIMITED_PARALLELISM)

    configs = [monolithic_gpu(32)] + [monolithic_gpu(n_sms) for n_sms in sm_counts]

    def reduce(suites) -> List[ScalingPoint]:
        reference, *swept = suites
        points: List[ScalingPoint] = []
        for n_sms, results in zip(sm_counts, swept):
            points.append(
                ScalingPoint(
                    n_sms=n_sms,
                    linear=n_sms / 32.0,
                    high_parallelism=geomean_speedup(
                        filter_names(results, high), filter_names(reference, high)
                    ),
                    limited_parallelism=geomean_speedup(
                        filter_names(results, limited), filter_names(reference, limited)
                    ),
                )
            )
        return points

    return suite_plan(configs, reduce)


def report(points: List[ScalingPoint]) -> str:
    """Render the Figure 2 series."""
    rows = [
        [p.n_sms, p.linear, p.high_parallelism, p.limited_parallelism, f"{p.efficiency:.0%}"]
        for p in points
    ]
    return format_table(
        ["SMs", "Linear", "High-Parallelism", "Limited-Parallelism", "Efficiency"],
        rows,
        title="Figure 2: Speedup over 32 SMs vs SM count",
    )
