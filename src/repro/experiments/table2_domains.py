"""Table 2: bandwidth and energy per integration domain.

The paper's core feasibility argument: on-package links sit between
on-chip wires and on-board links in both bandwidth and energy per bit.
The data lives in :mod:`repro.core.energy`; this experiment renders the
table and exposes the monotonicity checks the argument relies on.
"""

from __future__ import annotations

from typing import List

from ..analysis.report import format_table
from ..core.energy import ENERGY_PJ_PER_BIT, TIER_BANDWIDTH_GBPS, IntegrationTier
from .common import ExperimentPlan

#: Qualitative integration overhead, as in the paper's table.
TIER_OVERHEAD = {
    IntegrationTier.CHIP: "Low",
    IntegrationTier.PACKAGE: "Medium",
    IntegrationTier.BOARD: "High",
    IntegrationTier.SYSTEM: "Very High",
}


def tiers_ordered() -> List[IntegrationTier]:
    """Tiers from closest to farthest integration."""
    return [
        IntegrationTier.CHIP,
        IntegrationTier.PACKAGE,
        IntegrationTier.BOARD,
        IntegrationTier.SYSTEM,
    ]


def bandwidth_monotone_decreasing() -> bool:
    """Bandwidth shrinks as communication moves off-chip/-package/-board."""
    values = [TIER_BANDWIDTH_GBPS[t] for t in tiers_ordered()]
    return all(a > b for a, b in zip(values, values[1:]))


def energy_monotone_increasing() -> bool:
    """Energy per bit grows as communication moves outward."""
    values = [ENERGY_PJ_PER_BIT[t] for t in tiers_ordered()]
    return all(a < b for a, b in zip(values, values[1:]))


def package_advantage_over_board() -> float:
    """Energy-per-bit ratio of board links to package links (paper: 20x)."""
    return ENERGY_PJ_PER_BIT[IntegrationTier.BOARD] / ENERGY_PJ_PER_BIT[IntegrationTier.PACKAGE]


def plan() -> ExperimentPlan:
    """Rows: tier, bandwidth (GB/s), energy (pJ/bit), overhead; nothing to simulate."""
    return ExperimentPlan((), lambda suites: [
        [tier.value, TIER_BANDWIDTH_GBPS[tier], ENERGY_PJ_PER_BIT[tier], TIER_OVERHEAD[tier]]
        for tier in tiers_ordered()
    ])


def report(rows: List[List[object]]) -> str:
    """Render Table 2."""
    return format_table(
        ["Domain", "BW (GB/s)", "Energy (pJ/bit)", "Overhead"],
        rows,
        title="Table 2: Bandwidth and energy per integration domain",
    )
