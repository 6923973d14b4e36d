"""Generic routed-graph network: arbitrary static topologies over links.

Mesh, torus, and hierarchical package/board fabrics share everything but
their edge lists.  :class:`GraphNetwork` takes an undirected weighted
edge list, builds one directional :class:`~repro.interconnect.link.Link`
per direction of each edge, and precomputes deterministic shortest-path
routes (BFS distances, greedy next-hop with lowest-index tie-break).  It
exposes the same protocol as :class:`~repro.interconnect.ring.RingNetwork`
— ``route()`` / ``hops_between()`` / ``transfer()`` / ``total_link_bytes``
/ ``links`` / ``reset()`` — plus the precomputed ``_routes`` table the
generated walkers key on, so every topology built on this class gets the
fast engine path for free.

The module also hosts the pure-graph math (:func:`bfs_distances`,
:func:`remote_hop_counts`, :func:`graph_diameter`) the topology registry
uses for its closed-form-free analytical dispatch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .link import REQUEST, RESPONSE, Link

#: One undirected edge: (node u, node v, total bandwidth across both
#: directions in bytes/cycle, per-hop latency in cycles).
WeightedEdge = Tuple[int, int, float, float]


def bfs_distances(n_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """All-pairs shortest-path hop counts of an undirected graph.

    Plain per-source BFS — the fabrics modeled here stay well under a
    hundred nodes, so O(n * (n + e)) is instant.  Unreachable pairs keep
    distance -1 (callers treat a disconnected fabric as a construction
    error).
    """
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neighbors in adjacency:
        neighbors.sort()
    distances: List[List[int]] = []
    for src in range(n_nodes):
        dist = [-1] * n_nodes
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if dist[neighbor] < 0:
                        dist[neighbor] = dist[node] + 1
                        nxt.append(neighbor)
            frontier = nxt
        distances.append(dist)
    return distances


def remote_hop_counts(distances: Sequence[Sequence[int]]) -> Dict[int, int]:
    """Histogram of shortest-path hops over all ordered remote pairs."""
    counts: Dict[int, int] = {}
    for src, row in enumerate(distances):
        for dst, hops in enumerate(row):
            if src != dst and hops > 0:
                counts[hops] = counts.get(hops, 0) + 1
    return counts


def graph_diameter(distances: Sequence[Sequence[int]]) -> int:
    """Largest finite shortest-path distance (0 for a single node)."""
    return max((hops for row in distances for hops in row), default=0)


class GraphNetwork:
    """A statically routed network over an arbitrary undirected edge list.

    Parameters
    ----------
    n_nodes:
        Number of GPMs (a single-node network is legal and link-free).
    edges:
        Undirected :data:`WeightedEdge` list; each entry materializes two
        directional links, one per direction, each granted *half* the
        edge's total bandwidth (the ring's full-duplex convention).
    name:
        Prefix for link names (telemetry and debugging).

    Routing is minimal and deterministic: per-pair shortest paths are
    walked greedily, preferring the lowest-numbered neighbor that stays
    on a shortest path, and frozen into ``_routes`` at construction.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Sequence[WeightedEdge],
        name: str = "graph",
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.name = name
        self.edges: List[WeightedEdge] = list(edges)
        self._link_by_pair: Dict[Tuple[int, int], Link] = {}
        self._link_order: List[Link] = []
        for u, v, bandwidth, latency in self.edges:
            if not 0 <= u < n_nodes or not 0 <= v < n_nodes or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for {n_nodes} nodes")
            if (u, v) in self._link_by_pair:
                raise ValueError(f"duplicate edge ({u}, {v})")
            per_direction = bandwidth / 2.0
            for src, dst in ((u, v), (v, u)):
                link = Link(
                    per_direction, latency, name=f"{name}.{src}->{dst}"
                )
                self._link_by_pair[(src, dst)] = link
                self._link_order.append(link)
        self._dist = bfs_distances(
            n_nodes, [(u, v) for u, v, _, _ in self.edges]
        )
        for src, row in enumerate(self._dist):
            for dst, hops in enumerate(row):
                if hops < 0:
                    raise ValueError(
                        f"{name!r} fabric is disconnected: no path {src}->{dst}"
                    )
        adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
        for u, v, _, _ in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for neighbors in adjacency:
            neighbors.sort()
        # Shortest paths are static; precompute them so the per-transfer
        # hot path (and the generated walkers) is a tuple walk.
        self._routes: List[List[tuple]] = [
            [
                tuple(self._compute_route(src, dst, adjacency))
                for dst in range(n_nodes)
            ]
            for src in range(n_nodes)
        ]

    def _compute_route(
        self, src: int, dst: int, adjacency: Sequence[Sequence[int]]
    ) -> List[Link]:
        if src == dst:
            return []
        path: List[Link] = []
        node = src
        while node != dst:
            target = self._dist[node][dst]
            step = next(
                neighbor
                for neighbor in adjacency[node]
                if self._dist[neighbor][dst] == target - 1
            )
            path.append(self._link_by_pair[(node, step)])
            node = step
        return path

    def hops_between(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        self._check_node(src)
        self._check_node(dst)
        return self._dist[src][dst]

    def route(self, src: int, dst: int) -> List[Link]:
        """Ordered list of directional links on the shortest path."""
        self._check_node(src)
        self._check_node(dst)
        return list(self._routes[src][dst])

    def transfer(
        self, now: float, src: int, dst: int, n_bytes: int, channel: str = REQUEST
    ) -> float:
        """Move ``n_bytes`` from ``src`` to ``dst``; returns arrival cycle.

        Each hop serializes on its link's ``channel`` virtual channel and
        adds that link's latency; same-node transfers are free.
        """
        time = now
        if channel == RESPONSE:
            for link in self._routes[src][dst]:
                time = link.response_pipe.transfer(time, n_bytes) + link.latency_cycles
        else:
            for link in self._routes[src][dst]:
                time = link.request_pipe.transfer(time, n_bytes) + link.latency_cycles
        return time

    @property
    def total_link_bytes(self) -> int:
        """Aggregate bytes carried, counting each hop traversed."""
        return sum(link.bytes_transferred for link in self._link_order)

    @property
    def links(self) -> List[Link]:
        """All directional links, in construction order."""
        return list(self._link_order)

    def average_hops_uniform(self) -> float:
        """Mean shortest-path hop count over distinct uniformly random pairs."""
        if self.n_nodes == 1:
            return 0.0
        total = sum(
            hops for row in self._dist for hops in row if hops > 0
        )
        return total / (self.n_nodes * (self.n_nodes - 1))

    def diameter(self) -> int:
        """Largest shortest-path hop count between any two nodes."""
        return graph_diameter(self._dist)

    def bisection_bandwidth(self) -> float:
        """Bandwidth across the canonical half-split, both directions.

        The cut separates nodes ``0 .. n//2 - 1`` from the rest; the sum
        is over the per-direction bandwidth of every directional link
        crossing it.  For the regular fabrics built on this class the
        canonical split is a minimum cut, so this is the classical
        bisection bandwidth.
        """
        half = self.n_nodes // 2
        total = 0.0
        for u, v, bandwidth, _ in self.edges:
            if (u < half) != (v < half):
                total += bandwidth  # both directions, bandwidth/2 each
        return total

    def reset(self) -> None:
        """Clear all link counters and timing state."""
        for link in self._link_order:
            link.reset()

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.n_nodes}-node network"
            )
