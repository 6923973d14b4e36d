"""Extension study: ring vs fully-connected inter-GPM topology.

Section 3.2 leaves topology exploration out of scope; this experiment
runs the obvious comparison at a fixed per-GPM escape-bandwidth budget:

* the paper's ring at a given link setting (each GPM: 2 links), and
* all-to-all links sized so each GPM's total port bandwidth matches
  (each GPM: ``n-1`` thinner links, but every message is one hop and no
  pass-through traffic loads intermediate nodes).

Reported per category and for the optimized configuration as well, since
first-touch placement removes most of the traffic either topology would
carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup
from ..core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from ..interconnect.topology import iso_budget_link_bandwidth
from ..workloads.synthetic import Category
from .common import filter_names, names_in_category, run_suites


@dataclass(frozen=True)
class TopologyPoint:
    """Speedup of all-to-all over the ring at one design point."""

    label: str
    m_intensive: float
    c_intensive: float
    limited: float
    overall: float


def _categories(results, baselines) -> Dict[str, float]:
    out = {}
    for key, category in (
        ("m", Category.M_INTENSIVE),
        ("c", Category.C_INTENSIVE),
        ("l", Category.LIMITED_PARALLELISM),
    ):
        names = names_in_category(category)
        out[key] = geomean_speedup(
            filter_names(results, names), filter_names(baselines, names)
        )
    out["all"] = geomean_speedup(results, baselines)
    return out


def run_topology_study(link_setting: float = 768.0) -> Dict[str, TopologyPoint]:
    """Compare topologies on the baseline and optimized machines."""
    points: Dict[str, TopologyPoint] = {}

    fc_bandwidth = iso_budget_link_bandwidth(link_setting, 4)
    fc_base_cfg = replace(
        baseline_mcm_gpu(link_bandwidth=fc_bandwidth, name=f"mcm-fc-{int(link_setting)}"),
        topology="fully_connected",
    )
    fc_opt_cfg = replace(
        optimized_mcm_gpu(
            link_bandwidth=fc_bandwidth, name=f"mcm-opt-fc-{int(link_setting)}"
        ),
        topology="fully_connected",
    )
    ring_base, fc_base, ring_opt, fc_opt = run_suites(
        [
            baseline_mcm_gpu(link_bandwidth=link_setting),
            fc_base_cfg,
            optimized_mcm_gpu(link_bandwidth=link_setting),
            fc_opt_cfg,
        ]
    )
    cats = _categories(fc_base, ring_base)
    points["baseline"] = TopologyPoint(
        label=f"all-to-all vs ring @ {link_setting:.0f} GB/s budget",
        m_intensive=cats["m"],
        c_intensive=cats["c"],
        limited=cats["l"],
        overall=cats["all"],
    )

    cats = _categories(fc_opt, ring_opt)
    points["optimized"] = TopologyPoint(
        label="all-to-all vs ring, optimized machine",
        m_intensive=cats["m"],
        c_intensive=cats["c"],
        limited=cats["l"],
        overall=cats["all"],
    )
    return points


def report(points: Dict[str, TopologyPoint]) -> str:
    """Render the topology comparison."""
    rows = [
        [key, point.m_intensive, point.c_intensive, point.limited, point.overall]
        for key, point in points.items()
    ]
    return format_table(
        ["machine", "M-Int", "C-Int", "Limited", "Overall"],
        rows,
        title="Topology study: all-to-all speedup over the ring (iso port budget)",
    )
