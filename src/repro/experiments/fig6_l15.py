"""Figure 6: L1.5 cache design-space exploration.

Evaluates the GPM-side L1.5 cache at 8/16/32 MB capacities with both
allocation policies (cache-everything vs remote-only) against the Table 3
baseline, reporting per-workload speedups for the memory-intensive group
and geometric means per category.

Paper headlines: remote-only allocation wins at iso-capacity; the 16 MB
iso-transistor remote-only point gives +11.4% on memory-intensive
workloads and +3.5% on limited-parallelism workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..analysis.speedup import speedups
from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from ..workloads.synthetic import Category
from .common import ExperimentPlan, category_geomeans, filter_names, names_in_category, suite_plan

#: Design points: (capacity MB, remote_only).
DEFAULT_VARIANTS: Tuple[Tuple[int, bool], ...] = (
    (8, False),
    (8, True),
    (16, False),
    (16, True),
    (32, False),
    (32, True),
)


@dataclass(frozen=True)
class L15Variant:
    """Results of one L1.5 design point relative to the baseline."""

    capacity_mb: int
    remote_only: bool
    per_workload: Dict[str, float]
    m_intensive_geomean: float
    c_intensive_geomean: float
    limited_geomean: float

    @property
    def label(self) -> str:
        """Short identifier like '16MB remote-only'."""
        policy = "remote-only" if self.remote_only else "all"
        return f"{self.capacity_mb}MB {policy}"


def plan(
    variants: Tuple[Tuple[int, bool], ...] = DEFAULT_VARIANTS,
    fast_factor: Optional[float] = None,
) -> ExperimentPlan:
    """Every design point against the no-L1.5 baseline; ``fast_factor`` shrinks workloads."""
    configs = [baseline_mcm_gpu()] + [
        mcm_gpu_with_l15(capacity_mb, remote_only=remote_only)
        for capacity_mb, remote_only in variants
    ]

    def reduce(suites) -> List[L15Variant]:
        baseline, *variant_results = suites
        m_names = names_in_category(Category.M_INTENSIVE)
        out: List[L15Variant] = []
        for (capacity_mb, remote_only), results in zip(variants, variant_results):
            geomeans = category_geomeans(results, baseline)
            out.append(
                L15Variant(
                    capacity_mb=capacity_mb,
                    remote_only=remote_only,
                    per_workload=speedups(
                        filter_names(results, m_names), filter_names(baseline, m_names)
                    ),
                    m_intensive_geomean=geomeans[Category.M_INTENSIVE],
                    c_intensive_geomean=geomeans[Category.C_INTENSIVE],
                    limited_geomean=geomeans[Category.LIMITED_PARALLELISM],
                )
            )
        return out

    return suite_plan(configs, reduce, fast_factor)


def best_iso_transistor(variants: List[L15Variant]) -> L15Variant:
    """The best iso-transistor point (8/16 MB) by M-intensive geomean."""
    iso = [v for v in variants if v.capacity_mb in (8, 16)]
    if not iso:
        raise ValueError("no iso-transistor variants present")
    return max(iso, key=lambda v: v.m_intensive_geomean)


def report(variants: List[L15Variant]) -> str:
    """Render per-variant speedups for the M-intensive set + geomeans."""
    m_names = names_in_category(Category.M_INTENSIVE)
    headers = ["Benchmark"] + [v.label for v in variants]
    rows: List[List[object]] = []
    for name in m_names:
        rows.append([name] + [v.per_workload.get(name, float("nan")) for v in variants])
    rows.append(["[M geomean]"] + [v.m_intensive_geomean for v in variants])
    rows.append(["[C geomean]"] + [v.c_intensive_geomean for v in variants])
    rows.append(["[Lim geomean]"] + [v.limited_geomean for v in variants])
    return format_table(
        headers, rows, title="Figure 6: L1.5 design space (speedup over baseline MCM-GPU)"
    )
