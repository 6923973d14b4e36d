"""Interconnect substrate: links, topologies (ring/FC/mesh/torus/hier), board tier."""

from .board import BOARD_AGGREGATE_GBPS, BOARD_HOP_LATENCY_CYCLES
from .crossbar import GPMCrossbar
from .grid import GraphNetwork
from .hierarchical import PACKAGE_SIZE
from .link import Link
from .mesh import grid_dims
from .topology import (
    TopologyDescriptor,
    build_network,
    get_topology,
    iso_budget_link_bandwidth,
    topology_names,
)

__all__ = [
    "BOARD_AGGREGATE_GBPS",
    "BOARD_HOP_LATENCY_CYCLES",
    "GPMCrossbar",
    "iso_budget_link_bandwidth",
    "GraphNetwork",
    "PACKAGE_SIZE",
    "Link",
    "grid_dims",
    "TopologyDescriptor",
    "build_network",
    "get_topology",
    "topology_names",
]
