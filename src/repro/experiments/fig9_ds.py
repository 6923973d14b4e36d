"""Figure 9: performance with distributed CTA scheduling (+ L1.5).

Adds the Section 5.2 distributed scheduler on top of the 16 MB remote-only
L1.5 and reports speedups over the Table 3 baseline.

Paper headlines: +23.4% / +1.9% / +5.2% on the memory-/compute-intensive/
limited categories; Srad-v2 and Kmeans only improve once distributed
scheduling is combined with the L1.5 (inter-CTA reuse becomes capturable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.report import format_table
from ..analysis.speedup import speedups
from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from ..workloads.synthetic import Category
from .common import ExperimentPlan, category_geomeans, filter_names, names_in_category, suite_plan


@dataclass(frozen=True)
class DSResult:
    """Speedups of the L1.5 + distributed-scheduling machine."""

    per_workload_m: Dict[str, float]
    m_geomean: float
    c_geomean: float
    limited_geomean: float
    #: The same L1.5 under the centralized scheduler (Figure 6's point).
    l15_m_geomean: float


def plan(l15_mb: int = 16, fast_factor: Optional[float] = None) -> ExperimentPlan:
    """L1.5 + DS (and the L1.5 alone) against the baseline; ``fast_factor`` shrinks workloads."""
    configs = [
        baseline_mcm_gpu(),
        mcm_gpu_with_l15(l15_mb, remote_only=True),
        mcm_gpu_with_l15(l15_mb, remote_only=True, scheduler="distributed"),
    ]

    def reduce(suites) -> DSResult:
        baseline, l15_alone, results = suites
        m_names = names_in_category(Category.M_INTENSIVE)
        geomeans = category_geomeans(results, baseline)
        return DSResult(
            per_workload_m=speedups(
                filter_names(results, m_names), filter_names(baseline, m_names)
            ),
            m_geomean=geomeans[Category.M_INTENSIVE],
            c_geomean=geomeans[Category.C_INTENSIVE],
            limited_geomean=geomeans[Category.LIMITED_PARALLELISM],
            l15_m_geomean=category_geomeans(l15_alone, baseline)[Category.M_INTENSIVE],
        )

    return suite_plan(configs, reduce, fast_factor)


def report(result: DSResult) -> str:
    """Render Figure 9."""
    rows = [[name, value] for name, value in result.per_workload_m.items()]
    rows.append(["[M geomean]", result.m_geomean])
    rows.append(["[C geomean]", result.c_geomean])
    rows.append(["[Lim geomean]", result.limited_geomean])
    return format_table(
        ["Benchmark", "Speedup"],
        rows,
        title="Figure 9: L1.5 + distributed scheduling (speedup over baseline)",
    )
