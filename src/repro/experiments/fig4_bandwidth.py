"""Figure 4: performance sensitivity to inter-GPM link bandwidth.

Sweeps the 4-GPM, 256-SM baseline MCM-GPU's link bandwidth from an
abundant 6 TB/s down to 384 GB/s and reports each category's slowdown
relative to the 6 TB/s machine.

Paper headlines: memory-intensive workloads degrade ~12% / ~40% / ~57%
at 1.5 TB/s / 768 GB/s / 384 GB/s; compute-intensive workloads degrade
less; even limited-parallelism workloads show some sensitivity through
queuing delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..analysis.report import format_table
from ..core.presets import baseline_mcm_gpu
from ..workloads.synthetic import Category
from .common import ExperimentPlan, category_geomeans, suite_plan

#: Link bandwidth settings swept by the paper, GB/s per link.
DEFAULT_BANDWIDTHS: Tuple[float, ...] = (6144.0, 3072.0, 1536.0, 768.0, 384.0)


@dataclass(frozen=True)
class BandwidthPoint:
    """Per-category relative performance at one link bandwidth setting."""

    link_bandwidth: float
    m_intensive: float
    c_intensive: float
    limited: float


def plan(bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS) -> ExperimentPlan:
    """The sweep; performance is relative to the first setting."""
    if not bandwidths:
        raise ValueError("need at least one bandwidth setting")
    configs = [baseline_mcm_gpu(link_bandwidth=bandwidths[0])] + [
        baseline_mcm_gpu(link_bandwidth=bandwidth) for bandwidth in bandwidths
    ]

    def reduce(suites) -> List[BandwidthPoint]:
        reference, *swept = suites
        points: List[BandwidthPoint] = []
        for bandwidth, results in zip(bandwidths, swept):
            relative = category_geomeans(results, reference)
            points.append(
                BandwidthPoint(
                    link_bandwidth=bandwidth,
                    m_intensive=relative[Category.M_INTENSIVE],
                    c_intensive=relative[Category.C_INTENSIVE],
                    limited=relative[Category.LIMITED_PARALLELISM],
                )
            )
        return points

    return suite_plan(configs, reduce)


def report(points: List[BandwidthPoint]) -> str:
    """Render the Figure 4 series (relative performance vs 6 TB/s)."""
    rows = [
        [f"{p.link_bandwidth:.0f} GB/s", p.m_intensive, p.c_intensive, p.limited]
        for p in points
    ]
    return format_table(
        ["Link BW", "M-Intensive", "C-Intensive", "Limited-Parallelism"],
        rows,
        title="Figure 4: Relative performance vs inter-GPM link bandwidth",
    )
