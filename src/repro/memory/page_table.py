"""Page table: resolves line addresses to home DRAM partitions.

This is the driver-level mechanism of Section 5.3 — the paper implements
first-touch placement "in the software layer by extending current GPU driver
functionality".  The page table glues an :class:`~repro.memory.address.AddressMap`
to a :class:`~repro.memory.placement.PlacementPolicy` and counts how many
resolutions were local vs. remote, which feeds the locality metrics.
"""

from __future__ import annotations

from .address import AddressMap
from .placement import FineGrainInterleave, PlacementPolicy


class PageTable:
    """Resolves the home partition of every memory access.

    Parameters
    ----------
    address_map:
        Line/page geometry.
    policy:
        Placement policy; line-interleaved policies bypass page lookup
        entirely (the partition is a pure function of the line address).
    """

    def __init__(self, address_map: AddressMap, policy: PlacementPolicy) -> None:
        self.address_map = address_map
        self.policy = policy
        self._line_interleaved = isinstance(policy, FineGrainInterleave)
        self.local_resolutions = 0
        self.remote_resolutions = 0

    def home_partition(self, line_addr: int, requester_gpm: int) -> int:
        """Home partition of ``line_addr`` for a request from ``requester_gpm``.

        First-touch policies may allocate the page as a side effect, exactly
        like a first-reference page fault handled by the driver.
        """
        if self._line_interleaved:
            partition = line_addr % self.policy.n_partitions
        else:
            page = self.address_map.page_of_line(line_addr)
            partition = self.policy.partition_of_page(page, requester_gpm)
        if partition == requester_gpm:
            self.local_resolutions += 1
        else:
            self.remote_resolutions += 1
        return partition

    def reset(self) -> None:
        """Clear mappings and counters for a fresh simulation."""
        self.policy.reset()
        self.local_resolutions = 0
        self.remote_resolutions = 0
