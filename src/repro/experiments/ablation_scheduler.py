"""Ablation: CTA scheduler policies on the optimized memory system.

Compares, on the optimized MCM-GPU memory system (remote-only L1.5 +
first-touch placement):

* centralized scheduling (destroys the locality FT needs),
* static distributed scheduling (the paper's choice),
* the dynamic scheduler extension (finer batches + work stealing —
  Section 5.4 leaves this to future work, predicting gains for workloads
  whose CTAs do unequal work).

Also reports the imbalanced workloads alone, where the dynamic scheduler's
advantage should concentrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import optimized_mcm_gpu
from ..workloads.suite import all_specs
from .common import ExperimentPlan, filter_names, suite_plan, variant

#: Suite workloads with per-CTA work skew (the distributed scheduler's
#: weak spot, Section 5.4).
IMBALANCED = [spec.name for spec in all_specs() if spec.imbalance > 0]


@dataclass(frozen=True)
class SchedulerAblation:
    """Geomean speedups over the centralized-scheduled machine."""

    overall: Dict[str, float]
    imbalanced_only: Dict[str, float]


def plan() -> ExperimentPlan:
    """The three schedulers on the optimized memory system."""
    schedulers = ("distributed", "dynamic")
    configs = [
        variant(optimized_mcm_gpu(), f"opt-{scheduler}", scheduler=scheduler)
        for scheduler in ("centralized",) + schedulers
    ]

    def reduce(suites) -> SchedulerAblation:
        baseline, *swept = suites
        overall: Dict[str, float] = {}
        imbalanced: Dict[str, float] = {}
        for scheduler, results in zip(schedulers, swept):
            overall[scheduler] = geomean_speedup(results, baseline)
            imbalanced[scheduler] = geomean_speedup(
                filter_names(results, IMBALANCED), filter_names(baseline, IMBALANCED)
            )
        return SchedulerAblation(overall=overall, imbalanced_only=imbalanced)

    return suite_plan(configs, reduce)


def report(ablation: SchedulerAblation) -> str:
    """Render the scheduler ablation."""
    rows: List[List[object]] = [
        [name, ablation.overall[name], ablation.imbalanced_only[name]]
        for name in ablation.overall
    ]
    return format_table(
        ["Scheduler", "Overall (48)", f"Imbalanced only ({len(IMBALANCED)})"],
        rows,
        title="Scheduler ablation on the optimized memory system "
        "(speedup over centralized)",
    )
