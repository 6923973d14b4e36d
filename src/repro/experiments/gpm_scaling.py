"""Extension study: GPM count scaling at fixed total resources.

The paper builds 256 SMs from four 64-SM GPMs and motivates "256 or more
SMs" (Section 2.3); smaller GPMs are more cost-effective (Section 1).
This experiment varies the module count at constant totals — 256 SMs,
16 MB of cache transistors, 3 TB/s of DRAM — to expose the cost-locality
trade: more, smaller GPMs are cheaper to manufacture but fragment the
caches, add ring hops, and raise the remote-access fraction
((n-1)/n under interleave).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from .common import ExperimentPlan, suite_plan, variant

#: Total SMs held constant across the sweep.
TOTAL_SMS = 256
DEFAULT_GPM_COUNTS = (2, 4, 8)


@dataclass(frozen=True)
class GPMScalingPoint:
    """Suite geomean at one module count, relative to the 4-GPM machine."""

    n_gpms: int
    sms_per_gpm: int
    baseline_speedup: float
    optimized_speedup: float


def _scaled_config(base_config, n_gpms: int, name: str):
    """Re-slice a 4-GPM preset to ``n_gpms`` modules at constant totals."""
    gpm = base_config.gpm
    factor = base_config.n_gpms / n_gpms
    new_gpm = replace(
        gpm,
        n_sms=TOTAL_SMS // n_gpms,
        l2=replace(gpm.l2, size_bytes=max(512, int(gpm.l2.size_bytes * factor))),
        l15=None
        if gpm.l15 is None
        else replace(gpm.l15, size_bytes=max(512, int(gpm.l15.size_bytes * factor))),
        dram_bandwidth=gpm.dram_bandwidth * factor,
    )
    return variant(base_config, name, n_gpms=n_gpms, gpm=new_gpm)


def plan(gpm_counts: Sequence[int] = DEFAULT_GPM_COUNTS) -> ExperimentPlan:
    """The module-count sweep for the baseline and optimized designs."""
    for n_gpms in gpm_counts:
        if TOTAL_SMS % n_gpms:
            raise ValueError(f"{n_gpms} GPMs do not divide {TOTAL_SMS} SMs")
    configs = [baseline_mcm_gpu(), optimized_mcm_gpu()]
    for n_gpms in gpm_counts:
        configs.append(_scaled_config(baseline_mcm_gpu(), n_gpms, f"mcm-baseline-{n_gpms}gpm"))
        configs.append(_scaled_config(optimized_mcm_gpu(), n_gpms, f"mcm-optimized-{n_gpms}gpm"))

    def reduce(suites) -> List[GPMScalingPoint]:
        reference_base, reference_opt, *swept = suites
        points: List[GPMScalingPoint] = []
        for index, n_gpms in enumerate(gpm_counts):
            base_results = swept[2 * index]
            opt_results = swept[2 * index + 1]
            points.append(
                GPMScalingPoint(
                    n_gpms=n_gpms,
                    sms_per_gpm=TOTAL_SMS // n_gpms,
                    baseline_speedup=geomean_speedup(base_results, reference_base),
                    optimized_speedup=geomean_speedup(opt_results, reference_opt),
                )
            )
        return points

    return suite_plan(configs, reduce)


def report(points: List[GPMScalingPoint]) -> str:
    """Render the module-count sweep."""
    rows = [
        [f"{p.n_gpms} x {p.sms_per_gpm} SMs", p.baseline_speedup, p.optimized_speedup]
        for p in points
    ]
    return format_table(
        ["Organization", "Baseline vs 4-GPM", "Optimized vs 4-GPM"],
        rows,
        title="GPM-count scaling at constant totals (256 SMs, 3 TB/s, 16 MB)",
    )
