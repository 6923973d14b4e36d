"""Topology registry: one place that knows every inter-GPM fabric.

Every registered topology supplies two things:

* an **edge builder** — ``(n_nodes, link_bandwidth, hop_latency) ->``
  undirected weighted edge list — from which all analytical quantities
  (hop distributions, port counts, diameter, bisection bandwidth, PHY
  totals) are derived generically by BFS, with no per-topology closed
  forms to keep in sync;
* a **network factory** — ``(n_nodes, link_bandwidth, hop_latency) ->``
  a network object implementing the ring protocol (``route`` /
  ``hops_between`` / ``transfer`` / ``total_link_bytes`` / ``links`` /
  ``reset`` plus the precomputed ``_routes`` the generated walkers key
  on).  ``ring`` and ``fully_connected`` keep their dedicated classes
  (bit-identical timing with pre-registry code); mesh/torus/hierarchical
  build on :class:`~repro.interconnect.grid.GraphNetwork`.

``core.config`` validates ``SystemConfig.topology`` against this
registry, ``core.gpu`` builds fabrics through :func:`build_network`, and
``core.analytical`` / ``validate.invariants`` dispatch their math
through the query helpers — so registering a topology here is the single
step that makes it simulatable, analyzable, and validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from .fully_connected import FullyConnectedNetwork
from .grid import (
    GraphNetwork,
    WeightedEdge,
    bfs_distances,
    graph_diameter,
    remote_hop_counts,
)
from .hierarchical import hierarchical_edges, make_hierarchical
from .mesh import mesh_edges, make_mesh
from .ring import RingNetwork
from .torus import make_torus, torus_edges

EdgeBuilder = Callable[[int, float, float], List[WeightedEdge]]
NetworkFactory = Callable[[int, float, float], object]


def ring_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edge list of the paper's baseline ring.

    The two-node case has a single physical link pair (matching the
    collapsed :class:`~repro.interconnect.ring.RingNetwork` degenerate
    form), not two parallel pairs.
    """
    if n_nodes < 2:
        return []
    if n_nodes == 2:
        return [(0, 1, link_bandwidth, hop_latency)]
    return [
        (node, (node + 1) % n_nodes, link_bandwidth, hop_latency)
        for node in range(n_nodes)
    ]


def fully_connected_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edge list of the all-to-all fabric (one edge per pair)."""
    return [
        (u, v, link_bandwidth, hop_latency)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
    ]


@dataclass(frozen=True)
class TopologyDescriptor:
    """One registered fabric: its edge math and its network constructor."""

    name: str
    description: str
    edge_builder: EdgeBuilder
    network_factory: NetworkFactory


def _ring_factory(n: int, bandwidth: float, latency: float) -> RingNetwork:
    return RingNetwork(n, bandwidth, latency)


def _fc_factory(n: int, bandwidth: float, latency: float) -> FullyConnectedNetwork:
    return FullyConnectedNetwork(n, bandwidth, latency)


_REGISTRY: Dict[str, TopologyDescriptor] = {
    "ring": TopologyDescriptor(
        name="ring",
        description="bidirectional ring (paper baseline, Section 3.2)",
        edge_builder=ring_edges,
        network_factory=_ring_factory,
    ),
    "fully_connected": TopologyDescriptor(
        name="fully_connected",
        description="direct link between every GPM pair",
        edge_builder=fully_connected_edges,
        network_factory=_fc_factory,
    ),
    "mesh": TopologyDescriptor(
        name="mesh",
        description="2-D mesh on the most-square grid, no wraparound",
        edge_builder=mesh_edges,
        network_factory=make_mesh,
    ),
    "torus": TopologyDescriptor(
        name="torus",
        description="2-D torus (mesh plus wraparound links)",
        edge_builder=torus_edges,
        network_factory=make_torus,
    ),
    "hierarchical": TopologyDescriptor(
        name="hierarchical",
        description="4-GPM package rings bridged by a fixed board ring",
        edge_builder=hierarchical_edges,
        network_factory=make_hierarchical,
    ),
}


def topology_names() -> Tuple[str, ...]:
    """Registered topology names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_topology(name: str) -> TopologyDescriptor:
    """Look up a topology descriptor; unknown names fail loudly."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(topology_names())
        raise ValueError(
            f"unknown topology {name!r}; expected one of: {known}"
        ) from None


def build_network(
    topology: str,
    n_nodes: int,
    link_bandwidth_bytes_per_cycle: float,
    hop_latency_cycles: float,
):
    """Construct the network object for a topology (ring protocol)."""
    descriptor = get_topology(topology)
    return descriptor.network_factory(
        n_nodes, link_bandwidth_bytes_per_cycle, hop_latency_cycles
    )


@lru_cache(maxsize=None)
def _distances(topology: str, n_nodes: int) -> Tuple[Tuple[int, ...], ...]:
    """Cached all-pairs hop counts from the topology's unweighted edges."""
    edges = get_topology(topology).edge_builder(n_nodes, 1.0, 0.0)
    rows = bfs_distances(n_nodes, [(u, v) for u, v, _, _ in edges])
    return tuple(tuple(row) for row in rows)


@lru_cache(maxsize=None)
def undirected_edge_count(topology: str, n_nodes: int) -> int:
    """Number of undirected physical link pairs in the fabric."""
    return len(get_topology(topology).edge_builder(n_nodes, 1.0, 0.0))


def link_count(topology: str, n_nodes: int) -> int:
    """Distinct directional links (two per undirected edge)."""
    return 2 * undirected_edge_count(topology, n_nodes)


def mean_ports(topology: str, n_nodes: int) -> float:
    """Average directional links touching one GPM.

    Exact for node-symmetric fabrics (ring, torus, fully connected); a
    mean for irregular ones (mesh corners, hierarchical gateways).
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    return 2.0 * link_count(topology, n_nodes) / n_nodes


def average_hops(topology: str, n_nodes: int) -> float:
    """Mean shortest-path hops between distinct nodes, by BFS."""
    if n_nodes <= 1:
        return 0.0
    dist = _distances(topology, n_nodes)
    total = sum(hops for row in dist for hops in row if hops > 0)
    return total / (n_nodes * (n_nodes - 1))


def remote_distance_pmf(topology: str, n_nodes: int) -> List[Tuple[int, float]]:
    """``[(hops, probability), ...]`` over one node's remote destinations."""
    if n_nodes <= 1:
        return []
    counts = remote_hop_counts(_distances(topology, n_nodes))
    total = sum(counts.values())
    return [(hops, count / total) for hops, count in sorted(counts.items())]


def diameter(topology: str, n_nodes: int) -> int:
    """Largest shortest-path hop count between any two nodes."""
    return graph_diameter(_distances(topology, n_nodes))


def bisection_bandwidth(
    topology: str, n_nodes: int, link_bandwidth: float
) -> float:
    """Total bandwidth crossing the canonical half-split, both directions.

    The cut separates nodes ``0 .. n//2 - 1`` from the rest.  Node
    numbering in each registered topology is chosen so this is a minimum
    bisection (column-major grids cut between middle columns; contiguous
    packages cut between board links), and edge weights are honored, so
    the hierarchical fabric reports its fixed board capacity rather than
    a scaled package figure.
    """
    edges = get_topology(topology).edge_builder(n_nodes, link_bandwidth, 0.0)
    half = n_nodes // 2
    return sum(
        bandwidth for u, v, bandwidth, _ in edges if (u < half) != (v < half)
    )


def total_fabric_bandwidth(
    topology: str, n_nodes: int, link_bandwidth: float
) -> float:
    """Sum of all undirected edge bandwidths (total installed capacity).

    The budget model charges link PHY area/power against this figure
    (times two endpoints per edge); for the hierarchical fabric it mixes
    package-rate and fixed board-rate edges correctly.
    """
    edges = get_topology(topology).edge_builder(n_nodes, link_bandwidth, 0.0)
    return sum(bandwidth for _, _, bandwidth, _ in edges)
