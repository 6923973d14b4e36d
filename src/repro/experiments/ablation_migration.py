"""Ablation: static first-touch vs dynamic page migration.

The paper's placement is static first touch (Section 5.3); the NUMA
literature it cites in Section 7 also moves pages dynamically.  This
ablation runs the optimized MCM-GPU with the
:class:`~repro.memory.migration.MigratingFirstTouch` extension and asks
whether migration recovers anything the static policy leaves behind —
e.g. pages trapped on the wrong GPM by untimely first touches in
irregular workloads — and what the copy traffic costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup, speedups
from ..core.presets import optimized_mcm_gpu
from .common import ExperimentPlan, category_geomeans, suite_plan, variant


@dataclass(frozen=True)
class MigrationAblation:
    """Migrating vs static first touch on the optimized machine."""

    overall_speedup: float
    per_category: Dict[str, float]
    biggest_winners: Dict[str, float]
    biggest_losers: Dict[str, float]


def plan() -> ExperimentPlan:
    """Both placements over the full suite."""
    configs = [
        optimized_mcm_gpu(),
        variant(optimized_mcm_gpu(), "mcm-optimized-migrating", placement="migrating_first_touch"),
    ]

    def reduce(suites) -> MigrationAblation:
        static, migrating = suites
        per_workload = speedups(migrating, static)
        ordered = sorted(per_workload.items(), key=lambda item: item[1])
        per_category = {
            category.value: value
            for category, value in category_geomeans(migrating, static).items()
        }
        return MigrationAblation(
            overall_speedup=geomean_speedup(migrating, static),
            per_category=per_category,
            biggest_winners=dict(ordered[-3:]),
            biggest_losers=dict(ordered[:3]),
        )

    return suite_plan(configs, reduce)


def report(ablation: MigrationAblation) -> str:
    """Render the migration ablation."""
    rows = [["overall", ablation.overall_speedup]]
    rows.extend([category, value] for category, value in ablation.per_category.items())
    table = format_table(
        ["scope", "migrating / static"],
        rows,
        title="Page-migration ablation (optimized MCM-GPU)",
    )
    winners = ", ".join(f"{k}={v:.2f}" for k, v in ablation.biggest_winners.items())
    losers = ", ".join(f"{k}={v:.2f}" for k, v in ablation.biggest_losers.items())
    return table + f"\nbiggest winners: {winners}\nbiggest losers: {losers}"
