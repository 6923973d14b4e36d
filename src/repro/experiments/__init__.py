"""Experiment drivers, one module per paper table/figure.

Each module exposes ``run_<exp>()`` returning structured results and
``report(...)`` rendering the paper-layout table.  The mapping from paper
artifact to module lives in DESIGN.md's per-experiment index; the claims
on each output live in :data:`repro.validate.claims.CLAIMS`, keyed by id.
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
    ml_workloads,
    scaleout_study,
    table1_history,
    table2_domains,
    table3_baseline,
    table4_workloads,
    topology_study,
)
from .common import DEFAULT_CACHE, ResultCache, default_cache, run_one, run_suite, run_suites

#: Registry: paper artifact id -> (experiment module, entry point name).
EXPERIMENTS = {
    "table1": (table1_history, "run_table1"),
    "table2": (table2_domains, "run_table2"),
    "table3": (table3_baseline, "run_table3"),
    "table4": (table4_workloads, "run_table4"),
    "fig2": (fig2_scaling, "run_fig2"),
    "fig4": (fig4_bandwidth, "run_fig4"),
    "fig6": (fig6_l15, "run_fig6"),
    "fig7": (fig7_l15_bw, "run_fig7"),
    "fig9": (fig9_ds, "run_fig9"),
    "fig10": (fig10_ds_bw, "run_fig10"),
    "fig13": (fig13_ft, "run_fig13"),
    "fig14": (fig14_ft_bw, "run_fig14"),
    "fig15": (fig15_scurve, "run_fig15"),
    "fig16": (fig16_breakdown, "run_fig16"),
    "fig17": (fig17_multigpu, "run_fig17"),
    # Extension studies beyond the paper's figures.
    "topology": (topology_study, "run_topology_study"),
    "scaleout": (scaleout_study, "run_scaleout_study"),
    "gpm-scaling": (gpm_scaling, "run_gpm_scaling"),
    "ml-workloads": (ml_workloads, "run_ml_workloads"),
    "sched-ablation": (ablation_scheduler, "run_scheduler_ablation"),
    "page-ablation": (ablation_page_size, "run_page_size_ablation"),
    "migration-ablation": (ablation_migration, "run_migration_ablation"),
    "fabric-hops": (fabric_hops, "run_fabric_hops"),
}

__all__ = [
    "DEFAULT_CACHE",
    "ResultCache",
    "default_cache",
    "run_one",
    "run_suite",
    "run_suites",
    "EXPERIMENTS",
]
