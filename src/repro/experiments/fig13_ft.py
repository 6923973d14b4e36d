"""Figure 13: performance with first-touch page placement (+ L1.5 + DS).

Adds the Section 5.3 first-touch policy on top of the remote-only L1.5 and
distributed scheduling, with both L2/L1.5 splits the paper compares: the
16 MB L1.5 (residual L2) and the 8 MB L1.5 + 8 MB L2 rebalance that wins
once most traffic is local.

Paper headlines: 8 MB split gives +51% / +11.3% / +7.9% per category over
the baseline and beats the 16 MB split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.report import format_table
from ..analysis.speedup import speedups
from ..core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from ..workloads.synthetic import Category
from .common import ExperimentPlan, category_geomeans, filter_names, names_in_category, suite_plan


@dataclass(frozen=True)
class FTVariant:
    """One L1.5 capacity split under L1.5 + DS + FT."""

    l15_mb: int
    per_workload_m: Dict[str, float]
    m_geomean: float
    c_geomean: float
    limited_geomean: float


def plan(fast_factor: Optional[float] = None) -> ExperimentPlan:
    """The 16 and 8 MB splits with all three optimizations; ``fast_factor`` shrinks workloads."""
    splits = (16, 8)
    configs = [baseline_mcm_gpu()] + [
        optimized_mcm_gpu(l15_total_mb=l15_mb) for l15_mb in splits
    ]

    def reduce(suites) -> Dict[int, FTVariant]:
        baseline, *split_results = suites
        m_names = names_in_category(Category.M_INTENSIVE)
        out: Dict[int, FTVariant] = {}
        for l15_mb, results in zip(splits, split_results):
            geomeans = category_geomeans(results, baseline)
            out[l15_mb] = FTVariant(
                l15_mb=l15_mb,
                per_workload_m=speedups(
                    filter_names(results, m_names), filter_names(baseline, m_names)
                ),
                m_geomean=geomeans[Category.M_INTENSIVE],
                c_geomean=geomeans[Category.C_INTENSIVE],
                limited_geomean=geomeans[Category.LIMITED_PARALLELISM],
            )
        return out

    return suite_plan(configs, reduce, fast_factor)


def report(variants: Dict[int, FTVariant]) -> str:
    """Render Figure 13."""
    order = sorted(variants, reverse=True)
    headers = ["Benchmark"] + [f"{mb}MB L1.5+DS+FT" for mb in order]
    m_names = list(variants[order[0]].per_workload_m)
    rows = [
        [name] + [variants[mb].per_workload_m[name] for mb in order] for name in m_names
    ]
    rows.append(["[M geomean]"] + [variants[mb].m_geomean for mb in order])
    rows.append(["[C geomean]"] + [variants[mb].c_geomean for mb in order])
    rows.append(["[Lim geomean]"] + [variants[mb].limited_geomean for mb in order])
    return format_table(
        headers, rows, title="Figure 13: First-touch placement (speedup over baseline)"
    )
