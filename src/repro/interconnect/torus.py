"""2-D torus inter-GPM topology.

The mesh of :mod:`repro.interconnect.mesh` plus wraparound links in both
grid dimensions.  Wraparound halves the diameter and doubles the
bisection bandwidth at the cost of two extra ports on every node —
the classic NoC trade the scale-out study quantifies at 8/16/64 GPMs.

Degenerate dimensions are handled by construction: a dimension of size
2's wraparound link would duplicate the existing mesh edge (it is
dropped), and a dimension of size 1 has no links at all, so a prime node
count yields a plain ring.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from .grid import WeightedEdge
from .mesh import grid_dims, grid_node


def torus_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected weighted edge list of the ``n``-node 2-D torus."""
    rows, cols = grid_dims(n_nodes)
    edges: List[WeightedEdge] = []
    seen: Set[FrozenSet[int]] = set()
    for col in range(cols):
        for row in range(rows):
            here = grid_node(row, col, rows)
            neighbors = (
                grid_node((row + 1) % rows, col, rows),
                grid_node(row, (col + 1) % cols, rows),
            )
            for there in neighbors:
                if here == there:
                    continue  # dimension of size 1 has no links
                key = frozenset((here, there))
                if key in seen:
                    continue  # dimension of size 2: wrap == mesh edge
                seen.add(key)
                edges.append(
                    (min(here, there), max(here, there), link_bandwidth, hop_latency)
                )
    return edges

