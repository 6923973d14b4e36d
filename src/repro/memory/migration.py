"""Dynamic page migration on top of first-touch placement.

The paper's placement policy is static first touch (Section 5.3); its
related work (Section 7) cites the classic NUMA literature on *dynamic*
page placement [Wilson & Aglietti, TPC-C].  This extension implements the
natural follow-on: a page whose accesses keep arriving from one *other*
GPM migrates there.

Mechanics: the policy keeps, per page, a small saturating counter of
consecutive remote accesses from a single GPM.  When it exceeds
``threshold``, the page is re-homed to that GPM.  The memory system
charges the migration copy (page-sized DRAM read + write plus a ring
transfer) through the normal bandwidth models, so over-eager migration
shows up as real cost — the classic ping-pong failure mode is measurable,
not hidden.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .placement import PlacementPolicy


class MigratingFirstTouch(PlacementPolicy):
    """First-touch placement with threshold-triggered page migration.

    Parameters
    ----------
    n_partitions:
        Number of DRAM partitions.
    threshold:
        Consecutive remote accesses from one GPM that trigger migration.
    max_migrations_per_page:
        Cap on how often a single page may move (ping-pong damper).
    """

    def __init__(
        self,
        n_partitions: int,
        threshold: int = 64,
        max_migrations_per_page: int = 2,
    ) -> None:
        super().__init__(n_partitions)
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if max_migrations_per_page < 0:
            raise ValueError("max_migrations_per_page must be non-negative")
        self.threshold = threshold
        self.max_migrations_per_page = max_migrations_per_page
        self._page_home: Dict[int, int] = {}
        # page -> (candidate gpm, consecutive count, migrations so far)
        self._pressure: Dict[int, Tuple[int, int, int]] = {}
        self.first_touch_allocations = 0
        self.migrations = 0
        #: Set by partition_of_page when the access it served triggered a
        #: migration; the memory system pops it to charge the copy cost.
        self.pending_migration: Optional[Tuple[int, int, int]] = None

    def partition_of_page(self, page_addr: int, requester_gpm: int) -> int:
        home = self._page_home.get(page_addr)
        if home is None:
            home = requester_gpm % self.n_partitions
            self._page_home[page_addr] = home
            self.first_touch_allocations += 1
            return home
        if requester_gpm == home:
            # A local access resets remote pressure.
            if page_addr in self._pressure:
                candidate, _, moved = self._pressure[page_addr]
                self._pressure[page_addr] = (candidate, 0, moved)
            return home

        candidate, count, moved = self._pressure.get(page_addr, (requester_gpm, 0, 0))
        if candidate != requester_gpm:
            # Contended page: pressure from multiple GPMs cancels out —
            # migrating a genuinely shared page would just ping-pong.
            self._pressure[page_addr] = (requester_gpm, 1, moved)
            return home
        count += 1
        if count >= self.threshold and moved < self.max_migrations_per_page:
            old_home = home
            self._page_home[page_addr] = requester_gpm
            self._pressure[page_addr] = (requester_gpm, 0, moved + 1)
            self.migrations += 1
            self.pending_migration = (page_addr, old_home, requester_gpm)
            return requester_gpm
        self._pressure[page_addr] = (candidate, count, moved)
        return home

    def reset(self) -> None:
        self._page_home.clear()
        self._pressure.clear()
        self.first_touch_allocations = 0
        self.migrations = 0
        self.pending_migration = None
