"""Page / address placement policies across DRAM partitions.

The baseline MCM-GPU interleaves addresses at line granularity across all
physical DRAM partitions for maximum bandwidth utilization (Section 3.2).
The optimized design replaces this with a *first-touch* policy (Section 5.3,
Figure 11): the first GPM to touch a page gets the page in its local
partition.  A page-granularity round-robin policy is included because the
paper mentions evaluating it for the multi-GPU baseline (Section 6.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict


class PlacementPolicy(ABC):
    """Maps a (page, requesting GPM) pair to a DRAM partition index."""

    def __init__(self, n_partitions: int) -> None:
        if n_partitions <= 0:
            raise ValueError(f"n_partitions must be positive, got {n_partitions}")
        self.n_partitions = n_partitions

    @abstractmethod
    def partition_of_page(self, page_addr: int, requester_gpm: int) -> int:
        """Return the partition holding ``page_addr``, allocating if new."""

    def reset(self) -> None:
        """Forget all mappings (new simulation on the same system)."""


class FineGrainInterleave(PlacementPolicy):
    """Baseline policy: line-granularity interleave across partitions.

    Stateless — the partition is a pure function of the address, so pages
    are effectively striped across all partitions and roughly
    ``(n-1)/n`` of all accesses are remote on an ``n``-GPM ring.

    This policy operates at *line* granularity; the page argument of
    :meth:`partition_of_page` is actually ignored by the memory system,
    which calls :meth:`partition_of_line` directly for interleaved systems.
    """

    def partition_of_page(self, page_addr: int, requester_gpm: int) -> int:
        return page_addr % self.n_partitions

    def partition_of_line(self, line_addr: int) -> int:
        """Line-granularity home computation used on the access path."""
        return line_addr % self.n_partitions


class FirstTouchPlacement(PlacementPolicy):
    """Optimized policy: a page lives in the partition of its first toucher.

    Combined with distributed CTA scheduling this keeps the bulk of DRAM
    accesses local to the GPM (Figure 11) and lets locality persist across
    kernel re-launches (Figure 12) because CTA indices are re-bound to the
    same GPM every launch.
    """

    def __init__(self, n_partitions: int) -> None:
        super().__init__(n_partitions)
        self._page_map: Dict[int, int] = {}
        self.first_touch_allocations = 0

    def partition_of_page(self, page_addr: int, requester_gpm: int) -> int:
        partition = self._page_map.get(page_addr)
        if partition is None:
            partition = requester_gpm % self.n_partitions
            self._page_map[page_addr] = partition
            self.first_touch_allocations += 1
        return partition

    def reset(self) -> None:
        self._page_map.clear()
        self.first_touch_allocations = 0


class RoundRobinPagePlacement(PlacementPolicy):
    """Pages assigned to partitions round-robin in first-touch order.

    Explored by the paper for the multi-GPU baseline, where it produced
    "very low and inconsistent performance" (Section 6.1) — it destroys
    requester locality while still camping whole pages on one partition.
    """

    def __init__(self, n_partitions: int) -> None:
        super().__init__(n_partitions)
        self._page_map: Dict[int, int] = {}
        self._next_partition = 0

    def partition_of_page(self, page_addr: int, requester_gpm: int) -> int:
        partition = self._page_map.get(page_addr)
        if partition is None:
            partition = self._next_partition
            self._page_map[page_addr] = partition
            self._next_partition = (self._next_partition + 1) % self.n_partitions
        return partition

    def reset(self) -> None:
        self._page_map.clear()
        self._next_partition = 0


def _make_migrating(n_partitions: int):
    from .migration import MigratingFirstTouch

    return MigratingFirstTouch(n_partitions)


#: Registry used by configuration code to build policies by name.
PLACEMENT_POLICIES = {
    "interleave": FineGrainInterleave,
    "first_touch": FirstTouchPlacement,
    "round_robin_page": RoundRobinPagePlacement,
    "migrating_first_touch": _make_migrating,
}


def make_placement(name: str, n_partitions: int) -> PlacementPolicy:
    """Instantiate a placement policy from its registry name."""
    try:
        policy_cls = PLACEMENT_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(PLACEMENT_POLICIES))
        raise ValueError(f"unknown placement policy {name!r}; expected one of: {known}")
    return policy_cls(n_partitions)
