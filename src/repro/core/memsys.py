"""The memory-system request path.

This module is the heart of the timing model: every load and store issued
by a warp group walks this path and comes back with a completion cycle.

Read path (Figure 5)::

    L1 (per SM, write-through)
      -> page table: which partition is home?
        local  -> xbar -> memory-side L2 slice -> DRAM partition
        remote -> [L1.5 GPM-side cache] -> ring hops -> remote L2 -> DRAM
                  <- ring hops (line response) ; fill L1.5

Stores are write-through/no-allocate at L1 and L1.5 and write-back with
write-allocate at the memory-side L2.  Store completion is decoupled from
the requester (write buffering): the warp group does not wait, but every
byte still consumes link and DRAM bandwidth, so heavy write traffic slows
the machine through contention — the effect behind the paper's
Streamcluster anomaly (Section 5.4).

All latencies are cycles; all bandwidth interactions go through the shared
:class:`~repro.memory.bandwidth.BandwidthPipe` instances so contention is
captured globally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..interconnect.link import REQUEST, RESPONSE
from ..memory.migration import MigratingFirstTouch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .gpu import GPUSystem
    from .sm import SM

#: Bytes of command/address/ECC/flow-control overhead per ring message
#: (GRS packetization; calibrated against the Figure 4 sensitivity curve).
REQUEST_HEADER_BYTES = 64
#: Cache line payload size on the ring.
LINE_BYTES = 128
#: Latency credited to a buffered store as seen by the issuing warp group.
STORE_ACK_LATENCY = 1.0


class MemorySystem:
    """Routes memory requests through caches, the ring, and DRAM."""

    def __init__(self, system: "GPUSystem") -> None:
        self.system = system
        self.loads = 0
        self.stores = 0
        self.remote_loads = 0
        self.remote_stores = 0
        # Hot-path bindings: resolved once so per-access work is attribute-
        # lookup free.  The set of GPMs and the ring never change after
        # construction.
        self._gpms = system.gpms
        self._ring = system.ring
        self._page_table = system.page_table
        self._migrating_policy = (
            system.page_table.policy
            if isinstance(system.page_table.policy, MigratingFirstTouch)
            else None
        )
        self.migration_bytes = 0
        # Deferred-counter flush hooks installed by make_walkers(); empty
        # whenever the walkers are not in use.
        self._walker_flushes: list = []

    # ------------------------------------------------------------------
    # public API used by the simulation engine
    # ------------------------------------------------------------------

    def load(self, now: float, sm: "SM", line_addr: int) -> float:
        """Issue a load; returns the cycle its data arrives at the SM."""
        self.loads += 1
        hit, _ = sm.l1.access(line_addr)
        l1_latency = sm.l1_hit_latency
        if hit:
            return now + l1_latency

        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        time = now + l1_latency + gpm.xbar_latency
        home = self._page_table.home_partition(line_addr, gpm_id)
        if self._migrating_policy is not None and self._migrating_policy.pending_migration:
            self._charge_migration(time)
        if gpm.xbar.classify(home):
            if gpm.l15_caches_local:
                l15_hit, _ = gpm.l15.access(line_addr)
                if l15_hit:
                    return time + gpm.l15_hit_latency
                time += gpm.l15_miss_penalty
            return self._partition_access(time, home, line_addr, False)

        self.remote_loads += 1
        if gpm.has_l15:
            l15_hit, _ = gpm.l15.access(line_addr)
            if l15_hit:
                return time + gpm.l15_hit_latency
            time += gpm.l15_miss_penalty

        ring = self._ring
        time = ring.transfer(time, gpm_id, home, REQUEST_HEADER_BYTES, REQUEST)
        time = self._partition_access(time, home, line_addr, False)
        return ring.transfer(time, home, gpm_id, LINE_BYTES + REQUEST_HEADER_BYTES, RESPONSE)

    def store(self, now: float, sm: "SM", line_addr: int) -> float:
        """Issue a store; returns the (buffered) ack cycle for the warp group.

        Bandwidth on the ring and at the home partition is charged at the
        store's natural times even though the requester does not wait.
        """
        self.stores += 1
        # Write-through, no-allocate: update the line if present, then
        # forward downstream unconditionally.  The fused touch counts a
        # write hit when the line is resident and a bypass when it is not,
        # so every store lands in exactly one counter.
        sm.l1.touch_store(line_addr)

        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        time = now + gpm.xbar_latency
        home = self._page_table.home_partition(line_addr, gpm_id)
        if self._migrating_policy is not None and self._migrating_policy.pending_migration:
            self._charge_migration(time)
        if gpm.xbar.classify(home):
            if gpm.l15_caches_local:
                gpm.l15.touch_store(line_addr)
            self._partition_access(time, home, line_addr, True)
            return now + STORE_ACK_LATENCY

        self.remote_stores += 1
        if gpm.has_l15:
            # Keep the remote copy coherent-by-value; still write through.
            gpm.l15.touch_store(line_addr)
        time = self._ring.transfer(
            time, gpm_id, home, LINE_BYTES + REQUEST_HEADER_BYTES, REQUEST
        )
        self._partition_access(time, home, line_addr, True)
        return now + STORE_ACK_LATENCY

    # ------------------------------------------------------------------
    # generated walkers (the fast path)
    # ------------------------------------------------------------------
    #
    # load()/store() above are the reference: they call the cache, DRAM
    # and pipe models directly.  The one other implementation of an access
    # is the per-GPM walker generated by repro.core.walkgen: it walks a
    # whole record's reads and writes with the same line order, state
    # mutations and charge times, deferring pure-count counters until
    # flush_walk_counters() (every kernel end and every telemetry window).
    # Both read the same records.  Only migrating placement, which
    # build_walkers rejects, runs on the reference in production.

    def walk_geometry(self, packed: bool = True) -> "WalkGeometry":
        """The :class:`WalkGeometry` traces' records are built for.

        ``packed`` is accepted and ignored: the walkers and the reference
        read the same records, so the geometry is the same either way.
        """
        from ..workloads.trace import WalkGeometry

        return WalkGeometry(self._gpms[0].sms[0].issue_throughput)

    def make_walkers(self):
        """One walker per SM (indexed by ``sm_id``), or ``None`` for the reference.

        The walkers come from :func:`repro.core.walkgen.build_walkers`,
        which decides which systems it supports; ``None`` (it raised
        :class:`~repro.core.walkgen.UnsupportedWalk`) means every access
        takes :meth:`load`/:meth:`store`.  Must be called after
        ``system.reset()`` — walkers bind the current stats objects.
        """
        from .walkgen import UnsupportedWalk, build_walkers

        self._walker_flushes = []
        try:
            return build_walkers(self)
        except UnsupportedWalk:
            self._walker_flushes = []
            return None

    def flush_walk_counters(self) -> None:
        """Fold the walkers' deferred counters into the real stats objects.

        Called at the end of every kernel drain (before live validation
        and cache flushes read the counters) and before every telemetry
        window is taken; idempotent — cells are zeroed as they are flushed.
        """
        for flush in self._walker_flushes:
            flush()

    # ------------------------------------------------------------------
    # page migration (MigratingFirstTouch extension)
    # ------------------------------------------------------------------

    def _charge_migration(self, now: float) -> None:
        """Charge the bandwidth cost of a page copy between partitions.

        The copy runs asynchronously (the triggering access is served from
        the new home immediately), but its DRAM read, ring transfer, and
        DRAM write consume real bandwidth at ``now`` — over-eager
        migration therefore costs measurable throughput.
        """
        policy = self._migrating_policy
        page_addr, old_home, new_home = policy.pending_migration
        policy.pending_migration = None
        address_map = self.system.address_map
        page_bytes = address_map.page_bytes
        lines = address_map.lines_per_page
        source = self._gpms[old_home]
        destination = self._gpms[new_home]
        source.dram.pipe.transfer(now, page_bytes)
        source.dram.reads += lines
        arrival = self._ring.transfer(now, old_home, new_home, page_bytes, REQUEST)
        destination.dram.pipe.transfer(arrival, page_bytes)
        destination.dram.writes += lines
        self.migration_bytes += page_bytes

    # ------------------------------------------------------------------
    # home-partition access (memory-side L2 in front of local DRAM)
    # ------------------------------------------------------------------

    def _partition_access(
        self, now: float, home: int, line_addr: int, is_write: bool
    ) -> float:
        """Look the line up in the home L2; a miss fills it from DRAM.

        The L2 is write-back and write-allocate, so a store miss fetches
        the line before the merge exactly like a load miss.  A dirty
        victim's write-back is charged before the fill.
        """
        gpm = self._gpms[home]
        time = now + gpm.l2_hit_latency
        hit, writeback = gpm.l2.access(line_addr, is_write)
        if hit:
            return time
        dram = gpm.dram
        if writeback is not None:
            dram.write_line(time)
        return dram.read_line(time)

    # ------------------------------------------------------------------

    def counter_snapshot(self):
        """``(loads, stores, remote_loads, remote_stores)`` right now.

        Telemetry samples this at window boundaries to form per-window
        deltas; it is read-only and never touches timing state.
        """
        return (self.loads, self.stores, self.remote_loads, self.remote_stores)

    def reset(self) -> None:
        """Clear counters for a fresh simulation."""
        self.loads = 0
        self.stores = 0
        self.remote_loads = 0
        self.remote_stores = 0
        self.migration_bytes = 0
