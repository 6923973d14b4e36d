"""Ablation: page granularity for first-touch placement.

First-touch placement operates at page granularity (Section 5.3).  Larger
pages amortize driver work but suffer first-toucher capture of data that
other GPMs also use (false page sharing); smaller pages track sharing
more precisely at higher management cost.  This ablation sweeps the
(scaled) page size on the optimized MCM-GPU and reports the suite
geomean and the achieved access locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import optimized_mcm_gpu
from .common import ExperimentPlan, suite_plan, variant

#: Scaled page sizes; the default 2 KB stands for a 64 KB GPU page.
DEFAULT_PAGE_SIZES = (512, 1024, 2048, 4096, 8192)


@dataclass(frozen=True)
class PageSizePoint:
    """Suite results at one page size, relative to the default."""

    page_bytes: int
    speedup: float
    mean_locality: float


def plan(page_sizes: Sequence[int] = DEFAULT_PAGE_SIZES) -> ExperimentPlan:
    """Page sizes swept on the optimized machine."""
    configs = [optimized_mcm_gpu()] + [
        variant(optimized_mcm_gpu(), f"opt-page-{page_bytes}", page_bytes=page_bytes)
        for page_bytes in page_sizes
    ]

    def reduce(suites) -> List[PageSizePoint]:
        reference, *swept = suites
        points: List[PageSizePoint] = []
        for page_bytes, results in zip(page_sizes, swept):
            locality = sum(
                1.0 - result.remote_access_fraction for result in results.values()
            ) / len(results)
            points.append(
                PageSizePoint(
                    page_bytes=page_bytes,
                    speedup=geomean_speedup(results, reference),
                    mean_locality=locality,
                )
            )
        return points

    return suite_plan(configs, reduce)


def report(points: List[PageSizePoint]) -> str:
    """Render the page-size sweep."""
    rows = [
        [f"{p.page_bytes} B (scaled)", p.speedup, f"{p.mean_locality:.1%}"]
        for p in points
    ]
    return format_table(
        ["Page size", "Speedup vs 2KB", "Mean access locality"],
        rows,
        title="Page-size ablation for first-touch placement (optimized MCM-GPU)",
    )
