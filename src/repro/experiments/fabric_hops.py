"""Cross-topology link traffic at 8 GPMs (extension: routing conservation).

Runs the golden workloads on an 8-GPM baseline under every registered
topology.  Uniform interleave makes the traffic between GPM pairs
near-uniform and topology-independent, so each fabric's link bytes should
be the single-hop fully-connected reference times its average hop count.
Cycle totals show what the hierarchical fabric's board ring costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..core.presets import baseline_mcm_gpu
from ..interconnect.topology import average_hops
from ..workloads.suite import suite_workloads
from .common import ExperimentPlan

#: Topologies swept, all at :data:`N_GPMS` modules.
TOPOLOGIES = ("ring", "mesh", "torus", "hierarchical", "fully_connected")
N_GPMS = 8


@dataclass(frozen=True)
class FabricTotals:
    """Link bytes and cycles summed over the workloads, per topology."""

    link_bytes: Dict[str, float]
    cycles: Dict[str, float]

    def hop_ratio(self, topology: str) -> float:
        """Link bytes relative to the single-hop fully-connected fabric."""
        reference = self.link_bytes["fully_connected"]
        return self.link_bytes[topology] / reference if reference else 0.0


def plan(fast_factor: Optional[float] = None) -> ExperimentPlan:
    """The golden workloads, shrunk by ``fast_factor``, on every topology at 8 GPMs."""
    # Lazy: repro.validate imports this package.
    from ..validate.golden import GOLDEN_WORKLOADS

    workloads = [
        workload
        for workload in suite_workloads(fast_factor=fast_factor)
        if workload.name in GOLDEN_WORKLOADS
    ]
    configs = [
        replace(
            baseline_mcm_gpu(n_gpms=N_GPMS, name=f"mcm-{topology}-{N_GPMS}"),
            topology=topology,
        )
        for topology in TOPOLOGIES
    ]

    def reduce(suites) -> FabricTotals:
        fabrics = dict(zip(TOPOLOGIES, suites))
        return FabricTotals(
            link_bytes={t: float(sum(r.link_bytes for r in s.values())) for t, s in fabrics.items()},
            cycles={t: float(sum(r.cycles for r in s.values())) for t, s in fabrics.items()},
        )

    return ExperimentPlan([(config, workloads) for config in configs], reduce)


def report(totals: FabricTotals) -> str:
    """Render link traffic against the analytical hop counts."""
    rows: List[List[object]] = [
        [t, average_hops(t, N_GPMS), totals.hop_ratio(t), totals.link_bytes[t], totals.cycles[t]]
        for t in totals.link_bytes
    ]
    return format_table(
        ["Topology", "Avg hops", "Link bytes / FC", "Link bytes", "Cycles"],
        rows,
        title=f"Fabric hops: golden workloads at {N_GPMS} GPMs (uniform interleave)",
    )
