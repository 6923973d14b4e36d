"""Extension study: budget-constrained scale-out across fabric topologies.

The paper stops at four GPMs on a ring (Section 3.2 leaves topology
exploration to future work).  This experiment pushes the same per-module
recipe (64 SMs, 768 GB/s of DRAM each) to eight modules on every fabric
in the topology registry and asks two questions the 4-GPM study cannot:

* **Simulated** — what does each fabric's hop count and bisection do to
  suite performance, link traffic, and data-movement energy at 8 GPMs,
  and does the resulting package still fit a reticle-and-socket budget
  (:mod:`repro.core.budget`)?
* **Analytical** — where does each fabric's bisection collapse as the
  module count keeps growing (8/16/64), via
  :func:`repro.core.analytical.bisection_collapse`?  64-GPM full-suite
  simulation is deliberately out of scope here; the collapse model is
  the scaling instrument (the ``scaleout`` sweep in
  ``scripts/explore.py`` simulates the larger counts on scaled rungs).

Speedups are reported against the paper's 4-GPM ring baseline, so the
table reads as "what does doubling the module count buy on each fabric".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup, suite_energy_joules
from ..core.analytical import bisection_collapse
from ..core.budget import DEFAULT_BUDGET, evaluate_budget
from ..core.presets import baseline_mcm_gpu
from .common import ExperimentPlan, suite_plan

#: Every registered fabric, in registry-study order.
STUDY_TOPOLOGIES = ("ring", "fully_connected", "mesh", "torus", "hierarchical")

#: Module counts covered by the analytical collapse table.
STUDY_GPM_COUNTS = (8, 16, 64)

#: Simulated module count (the full suite at 64 GPMs is out of budget).
SIMULATED_GPMS = 8


@dataclass(frozen=True)
class ScaleoutPoint:
    """One simulated 8-GPM fabric, scored against the 4-GPM ring."""

    topology: str
    speedup: float
    link_gbytes: float
    energy_joules: float
    area_mm2: float
    power_w: float
    budget: str


@dataclass(frozen=True)
class ScaleoutStudy:
    """Simulated 8-GPM points plus the analytical collapse table."""

    points: List[ScaleoutPoint]
    #: ``(topology, n_gpms) -> collapse link GB/s`` (``inf`` = the board
    #: ring, not the link setting, is the binding constraint).
    collapse: Dict[str, Dict[int, float]]


def _budget_label(config) -> str:
    """Compact feasibility verdict against the default package budget."""
    verdict = evaluate_budget(config)
    if verdict.feasible:
        return "feasible"
    limits = [
        label
        for label, ok in (
            ("area", verdict.area_ok),
            ("power", verdict.power_ok),
            ("link-tier", verdict.bandwidth_ok),
        )
        if not ok
    ]
    return "over " + "+".join(limits)


def plan(topologies: Sequence[str] = STUDY_TOPOLOGIES) -> ExperimentPlan:
    """Every fabric at 8 GPMs, plus the collapse-point table."""
    fabrics = [
        replace(
            baseline_mcm_gpu(n_gpms=SIMULATED_GPMS, name=f"mcm-{topology}-{SIMULATED_GPMS}"),
            topology=topology,
        )
        for topology in topologies
    ]
    configs = [baseline_mcm_gpu()] + fabrics

    def reduce(suites) -> ScaleoutStudy:
        reference, *swept = suites
        points: List[ScaleoutPoint] = []
        for config, results in zip(fabrics, swept):
            verdict = evaluate_budget(config)
            points.append(
                ScaleoutPoint(
                    topology=config.topology,
                    speedup=geomean_speedup(results, reference),
                    link_gbytes=sum(r.link_bytes for r in results.values()) / 1e9,
                    energy_joules=suite_energy_joules(results),
                    area_mm2=verdict.cost.area_mm2,
                    power_w=verdict.cost.power_w,
                    budget=_budget_label(config),
                )
            )
        collapse: Dict[str, Dict[int, float]] = {
            topology: {
                n_gpms: bisection_collapse(n_gpms, topology=topology).collapse_gbps
                for n_gpms in STUDY_GPM_COUNTS
            }
            for topology in topologies
        }
        return ScaleoutStudy(points=points, collapse=collapse)

    return suite_plan(configs, reduce)


def report(study: ScaleoutStudy) -> str:
    """Render the simulated table and the analytical collapse table."""
    sim_rows = [
        [
            point.topology,
            f"{point.speedup:.3f}",
            f"{point.link_gbytes:.2f}",
            f"{point.energy_joules:.3e}",
            f"{point.area_mm2:.0f}",
            f"{point.power_w:.0f}",
            point.budget,
        ]
        for point in study.points
    ]
    simulated = format_table(
        ["Topology", "Speedup", "Link GB", "Energy J", "Area mm2", "Power W", "Budget"],
        sim_rows,
        title=f"Scale-out at {SIMULATED_GPMS} GPMs vs the 4-GPM ring "
        f"(budget {DEFAULT_BUDGET.area_mm2:.0f} mm2 / {DEFAULT_BUDGET.power_w:.0f} W)",
    )
    collapse_rows = [
        [topology]
        + [
            "board-limited" if math.isinf(by_count[n]) else f"{by_count[n]:.0f}"
            for n in STUDY_GPM_COUNTS
        ]
        for topology, by_count in study.collapse.items()
    ]
    collapse = format_table(
        ["Topology"] + [f"{n} GPMs" for n in STUDY_GPM_COUNTS],
        collapse_rows,
        title="Analytical collapse link bandwidth (GB/s) — the setting below "
        "which the fabric bisection, not the DRAM, bounds remote traffic",
    )
    return simulated + "\n\n" + collapse
