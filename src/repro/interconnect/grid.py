"""Generic routed-graph network: every inter-GPM fabric over links.

Ring, fully-connected, mesh, torus, and hierarchical package/board
fabrics share everything but their edge lists (and, for the ring, one
tie-break rule).  :class:`GraphNetwork` takes an undirected weighted
edge list, builds one directional :class:`~repro.interconnect.link.Link`
per direction of each edge, and precomputes deterministic shortest-path
routes (BFS distances, greedy next hop, lowest index unless a
``tie_break`` hook picks among equally short next hops).  Its protocol —
``route()`` / ``hops_between()`` / ``transfer()`` / ``total_link_bytes``
/ ``links`` / ``reset()`` — plus the precomputed ``_routes`` table the
generated walkers key on is what the memory system drives.

The module also hosts the shared ring edge helper (:func:`ring_edges`)
and the pure-graph math (:func:`bfs_distances`, :func:`remote_hop_counts`,
:func:`graph_diameter`) the topology registry uses for its
closed-form-free analytical dispatch.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .link import REQUEST, RESPONSE, Link

#: One undirected edge: (node u, node v, total bandwidth across both
#: directions in bytes/cycle, per-hop latency in cycles).
WeightedEdge = Tuple[int, int, float, float]

#: Route-choice hook: ``(node, candidates) -> next hop``, called only when
#: several neighbors (sorted ascending) stay on a shortest path.
TieBreak = Callable[[int, Sequence[int]], int]


def _adjacency(n_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """Sorted neighbor lists of an undirected graph."""
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for neighbors in adjacency:
        neighbors.sort()
    return adjacency


def ring_edges(
    nodes: Sequence[int], link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Ring edges over an ordered node list, each node to the next.

    One node has no edges.  Two nodes share a single physical link pair,
    not two parallel pairs of which minimal routing could only ever use
    one.
    """
    count = len(nodes)
    if count < 2:
        return []
    if count == 2:
        return [(nodes[0], nodes[1], link_bandwidth, hop_latency)]
    return [
        (nodes[i], nodes[(i + 1) % count], link_bandwidth, hop_latency)
        for i in range(count)
    ]


def bfs_distances(n_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """All-pairs shortest-path hop counts of an undirected graph.

    Plain per-source BFS — the fabrics modeled here stay well under a
    hundred nodes, so O(n * (n + e)) is instant.  Unreachable pairs keep
    distance -1 (callers treat a disconnected fabric as a construction
    error).
    """
    adjacency = _adjacency(n_nodes, edges)
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
    tie_break:
        Optional :data:`TieBreak` hook; only the ring sets one.

    Routing is minimal and deterministic: per-pair shortest paths are
    walked greedily, preferring the lowest-numbered neighbor that stays
    on a shortest path (or the ``tie_break`` choice among several), and
    frozen into ``_routes`` at construction.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Sequence[WeightedEdge],
        name: str = "graph",
        tie_break: Optional[TieBreak] = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.name = name
        self._link_by_pair: Dict[Tuple[int, int], Link] = {}
        self._link_order: List[Link] = []
        for u, v, bandwidth, latency in edges:
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
        pairs = [(u, v) for u, v, _, _ in edges]
        self._dist = bfs_distances(n_nodes, pairs)
        for src, row in enumerate(self._dist):
            for dst, hops in enumerate(row):
                if hops < 0:
                    raise ValueError(
                        f"{name!r} fabric is disconnected: no path {src}->{dst}"
                    )
        adjacency = _adjacency(n_nodes, pairs)
        # Shortest paths are static; precompute them so the per-transfer
        # hot path (and the generated walkers) is a tuple walk.
        self._routes: List[List[tuple]] = [
            [
                tuple(self._compute_route(src, dst, adjacency, tie_break))
                for dst in range(n_nodes)
            ]
            for src in range(n_nodes)
        ]

    def _compute_route(
        self,
        src: int,
        dst: int,
        adjacency: Sequence[Sequence[int]],
        tie_break: Optional[TieBreak],
    ) -> List[Link]:
        if src == dst:
            return []
        path: List[Link] = []
        node = src
        while node != dst:
            target = self._dist[node][dst] - 1
            candidates = [
                neighbor
                for neighbor in adjacency[node]
                if self._dist[neighbor][dst] == target
            ]
            if len(candidates) > 1 and tie_break is not None:
                step = tie_break(node, candidates)
            else:
                step = candidates[0]
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

    def reset(self) -> None:
        """Clear all link counters and timing state."""
        for link in self._link_order:
            link.reset()

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(
                f"node {node} out of range for {self.n_nodes}-node network"
            )
