"""Table 4: the memory-intensive workloads and their footprints.

Renders the 17 Table 4 entries with the paper's full-scale footprints and
the scaled simulation footprints actually used, plus suite-composition
checks (17 + 16 + 15 = 48, category definitions).
"""

from __future__ import annotations

from typing import List

from ..analysis.report import format_table
from ..workloads.suite import (
    all_specs,
    c_intensive_specs,
    limited_parallelism_specs,
    m_intensive_specs,
)
from ..workloads.synthetic import Category
from .common import ExperimentPlan

#: Paper Table 4 footprints (MB), keyed by benchmark abbreviation.
PAPER_FOOTPRINTS_MB = {
    "AMG": 5430, "NN-Conv": 496, "BFS": 37, "CFD": 25, "CoMD": 385,
    "Kmeans": 216, "Lulesh1": 1891, "Lulesh2": 4309, "Lulesh3": 203,
    "MiniAMR": 5407, "MnCtct": 251, "MST": 73, "Nekbone1": 1746,
    "Nekbone2": 287, "Srad-v2": 96, "SSSP": 37, "Stream": 3072,
}


def plan() -> ExperimentPlan:
    """Rows: name, suite, pattern, paper MB, scaled sim KB; nothing to simulate."""
    return ExperimentPlan((), lambda suites: [
        [spec.name, spec.suite, spec.pattern, spec.paper_footprint_mb, spec.footprint_bytes // 1024]
        for spec in m_intensive_specs()
    ])


def suite_composition() -> dict:
    """Workload counts per category (paper: 17 / 16 / 15, 48 total)."""
    return {
        Category.M_INTENSIVE: len(m_intensive_specs()),
        Category.C_INTENSIVE: len(c_intensive_specs()),
        Category.LIMITED_PARALLELISM: len(limited_parallelism_specs()),
        "total": len(all_specs()),
    }


def report(rows: List[List[object]]) -> str:
    """Render Table 4."""
    return format_table(
        ["Benchmark", "Suite", "Pattern", "Paper MB", "Sim KB (scaled)"],
        rows,
        title="Table 4: Memory-intensive workloads and footprints",
    )
