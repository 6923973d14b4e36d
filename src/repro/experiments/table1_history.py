"""Table 1: key characteristics of recent NVIDIA GPUs.

Static historical data quoted by the paper to motivate MCM-GPUs: SM count,
memory bandwidth, L2 capacity, transistor count, process node and die size
for the Fermi/Kepler/Maxwell/Pascal generations.  The experiment checks
the trends the paper argues from: SMs and transistors grow generation over
generation while the die size approaches the reticle limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import format_table
from .common import ExperimentPlan


@dataclass(frozen=True)
class GPUGeneration:
    """One row of Table 1."""

    name: str
    sms: int
    bandwidth_gbps: float
    l2_kb: int
    transistors_billion: float
    tech_node_nm: int
    die_mm2: int


TABLE1: List[GPUGeneration] = [
    GPUGeneration("Fermi", 16, 177.0, 768, 3.0, 40, 529),
    GPUGeneration("Kepler", 15, 288.0, 1536, 7.1, 28, 551),
    GPUGeneration("Maxwell", 24, 288.0, 3072, 8.0, 28, 601),
    GPUGeneration("Pascal", 56, 720.0, 4096, 15.3, 16, 610),
]

#: Maximum manufacturable die size the paper assumes (mm^2).
RETICLE_LIMIT_MM2 = 800

#: The paper's assumed ceiling on a buildable monolithic GPU.
MAX_BUILDABLE_SMS = 128


def die_size_headroom() -> float:
    """Fraction of the reticle limit the latest GPU already occupies."""
    return TABLE1[-1].die_mm2 / RETICLE_LIMIT_MM2


def plan() -> ExperimentPlan:
    """The table rows; nothing to simulate."""
    return ExperimentPlan((), lambda suites: list(TABLE1))


def report(generations: List[GPUGeneration]) -> str:
    """Render Table 1 in the paper's layout."""
    rows = [
        [g.name, g.sms, g.bandwidth_gbps, g.l2_kb, g.transistors_billion, g.tech_node_nm, g.die_mm2]
        for g in generations
    ]
    return format_table(
        ["GPU", "SMs", "BW (GB/s)", "L2 (KB)", "Transistors (B)", "Node (nm)", "Die (mm2)"],
        rows,
        title="Table 1: Key characteristics of recent NVIDIA GPUs",
    )
