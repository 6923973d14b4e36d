"""Experiment drivers, one module per paper table/figure.

Each module exposes ``plan(**params)``, an :class:`ExperimentPlan` of the
(configuration, workloads) slots it simulates and a pure ``reduce`` that
builds its output, and ``report(output)`` rendering the paper-layout
table; :func:`run_plans` runs any set of plans as one batch.  The mapping
from paper artifact to module lives in DESIGN.md's per-experiment index;
the claims on each output live in :data:`repro.validate.claims.CLAIMS`.
"""

from . import (
    ablation_migration,
    ablation_page_size,
    ablation_scheduler,
    fabric_hops,
    fig2_scaling,
    fig4_bandwidth,
    fig6_l15,
    fig7_l15_bw,
    fig9_ds,
    fig10_ds_bw,
    fig13_ft,
    fig14_ft_bw,
    fig15_scurve,
    fig16_breakdown,
    fig17_multigpu,
    gpm_scaling,
    ml_verdicts,
    ml_workloads,
    scaleout_study,
    table1_history,
    table2_domains,
    table3_baseline,
    table4_workloads,
    topology_study,
)
from .common import DEFAULT_CACHE, ExperimentPlan, ResultCache, default_cache, run_one
from .common import run_plans, run_suite, run_suites

#: Registry: paper artifact id -> experiment module.
EXPERIMENTS = {
    "table1": table1_history,
    "table2": table2_domains,
    "table3": table3_baseline,
    "table4": table4_workloads,
    "fig2": fig2_scaling,
    "fig4": fig4_bandwidth,
    "fig6": fig6_l15,
    "fig7": fig7_l15_bw,
    "fig9": fig9_ds,
    "fig10": fig10_ds_bw,
    "fig13": fig13_ft,
    "fig14": fig14_ft_bw,
    "fig15": fig15_scurve,
    "fig16": fig16_breakdown,
    "fig17": fig17_multigpu,
    # Extension studies beyond the paper's figures.
    "topology": topology_study,
    "scaleout": scaleout_study,
    "gpm-scaling": gpm_scaling,
    "ml-workloads": ml_workloads,
    "ml-verdicts": ml_verdicts,
    "sched-ablation": ablation_scheduler,
    "page-ablation": ablation_page_size,
    "migration-ablation": ablation_migration,
    "fabric-hops": fabric_hops,
}

__all__ = [
    "DEFAULT_CACHE",
    "ExperimentPlan",
    "ResultCache",
    "default_cache",
    "run_one",
    "run_plans",
    "run_suite",
    "run_suites",
    "EXPERIMENTS",
]
