"""Topology registry: one place that knows every inter-GPM fabric.

Every registered topology supplies an **edge builder** —
``(n_nodes, link_bandwidth, hop_latency) ->`` undirected weighted edge
list — plus a link-name prefix and, for the ring alone, a route
tie-break.  :func:`build_network` turns that edge list into a
:class:`~repro.interconnect.grid.GraphNetwork`, so the edges the
analytics read are, by construction, the ones that are simulated.  All
analytical quantities (hop distributions, port counts, diameter,
bisection bandwidth, PHY totals) are derived generically by BFS over the
same edges, with no per-topology closed forms to keep in sync.

``core.config`` validates ``SystemConfig.topology`` against this
registry, ``core.gpu`` builds fabrics through :func:`build_network`, and
``core.analytical`` / ``validate.invariants`` dispatch their math
through the query helpers — so registering a topology here is the single
step that makes it simulatable, analyzable, and validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .grid import (
    GraphNetwork,
    TieBreak,
    WeightedEdge,
    bfs_distances,
    graph_diameter,
    remote_hop_counts,
    ring_edges,
)
from .hierarchical import hierarchical_edges
from .mesh import mesh_edges
from .torus import torus_edges

EdgeBuilder = Callable[[int, float, float], List[WeightedEdge]]


def _ring_builder(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edge list of the paper's baseline ring over ``0..n-1``."""
    return ring_edges(range(n_nodes), link_bandwidth, hop_latency)


def _ring_tie_break(node: int, candidates: Sequence[int]) -> int:
    """Antipodal pairs on an even ring: even sources go clockwise.

    Both directions are equally short only at the source of an antipodal
    pair, so the source-parity split spreads opposite-corner traffic
    over both directions instead of piling it onto one half while the
    other idles.  Ties arise only on even rings, where an even node is
    never ``n - 1`` and an odd node never ``0``, so neither step wraps.
    """
    return node + 1 if node % 2 == 0 else node - 1


def fully_connected_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edge list of the all-to-all fabric (one edge per pair).

    Section 3.2 leaves other topologies open.  All-to-all needs
    ``n*(n-1)/2`` links instead of the ring's ``n``, so at a fixed
    per-GPM escape budget each link is thinner, but every transfer is
    one hop; ``topology_study`` runs that iso-budget comparison.
    """
    return [
        (u, v, link_bandwidth, hop_latency)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
    ]


@dataclass(frozen=True)
class TopologyDescriptor:
    """One registered fabric: its edge math, link names and routing rule."""

    name: str
    description: str
    edge_builder: EdgeBuilder
    #: Link-name prefix: links are ``"<prefix>.<src>-><dst>"``.
    link_prefix: str
    #: Route choice among equally short next hops (default: lowest index).
    tie_break: Optional[TieBreak] = None


_REGISTRY: Dict[str, TopologyDescriptor] = {
    "ring": TopologyDescriptor(
        name="ring",
        description="bidirectional ring (paper baseline, Section 3.2)",
        edge_builder=_ring_builder,
        link_prefix="ring",
        tie_break=_ring_tie_break,
    ),
    "fully_connected": TopologyDescriptor(
        name="fully_connected",
        description="direct link between every GPM pair",
        edge_builder=fully_connected_edges,
        link_prefix="fc",
    ),
    "mesh": TopologyDescriptor(
        name="mesh",
        description="2-D mesh on the most-square grid, no wraparound",
        edge_builder=mesh_edges,
        link_prefix="mesh",
    ),
    "torus": TopologyDescriptor(
        name="torus",
        description="2-D torus (mesh plus wraparound links)",
        edge_builder=torus_edges,
        link_prefix="torus",
    ),
    "hierarchical": TopologyDescriptor(
        name="hierarchical",
        description="4-GPM package rings bridged by a fixed board ring",
        edge_builder=hierarchical_edges,
        link_prefix="hier",
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
) -> GraphNetwork:
    """Construct the routed network of a registered topology."""
    descriptor = get_topology(topology)
    return GraphNetwork(
        n_nodes,
        descriptor.edge_builder(
            n_nodes, link_bandwidth_bytes_per_cycle, hop_latency_cycles
        ),
        name=descriptor.link_prefix,
        tie_break=descriptor.tie_break,
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


def iso_budget_link_bandwidth(ring_setting: float, n_nodes: int) -> float:
    """Per-link bandwidth giving all-to-all the ring's per-GPM escape budget.

    A ring node has ports on 2 links; an all-to-all node on ``n-1`` links.
    Holding the per-GPM escape bandwidth constant (2 x setting), each
    all-to-all link gets ``2 * ring_setting / (n - 1)``.
    """
    if n_nodes < 2:
        raise ValueError("iso-budget comparison needs at least two nodes")
    return 2.0 * ring_setting / (n_nodes - 1)
