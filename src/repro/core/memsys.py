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
            return self._partition_read(time, home, line_addr)

        self.remote_loads += 1
        if gpm.has_l15:
            l15_hit, _ = gpm.l15.access(line_addr)
            if l15_hit:
                return time + gpm.l15_hit_latency
            time += gpm.l15_miss_penalty

        ring = self._ring
        time = ring.transfer(time, gpm_id, home, REQUEST_HEADER_BYTES, REQUEST)
        time = self._partition_read(time, home, line_addr)
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
            self._partition_write(time, home, line_addr)
            return now + STORE_ACK_LATENCY

        self.remote_stores += 1
        if gpm.has_l15:
            # Keep the remote copy coherent-by-value; still write through.
            gpm.l15.touch_store(line_addr)
        time = self._ring.transfer(
            time, gpm_id, home, LINE_BYTES + REQUEST_HEADER_BYTES, REQUEST
        )
        self._partition_write(time, home, line_addr)
        return now + STORE_ACK_LATENCY

    # ------------------------------------------------------------------
    # generated walkers (the fast path)
    # ------------------------------------------------------------------
    #
    # load()/store() above are the reference.  The one other implementation
    # of an access is the per-GPM walker generated by repro.core.walkgen:
    # it walks a whole record's geometry-specialized reads and writes with
    # the same line order, state mutations and charge times, deferring
    # pure-count counters to the kernel boundary.  Systems the generator
    # rejects run on the reference.

    def walk_geometry(self, packed: bool = True) -> "WalkGeometry":
        """The :class:`WalkGeometry` traces are specialized against."""
        from ..workloads.trace import WalkGeometry

        page_table = self._page_table
        policy = page_table.policy
        gpms = self._gpms
        sm0 = gpms[0].sms[0]
        # L2/L1.5 set indices are precomputable only when the level has one
        # set count across every GPM (0 = walkers derive the index).
        l2_counts = {gpm.l2.n_sets for gpm in gpms}
        n_l2_sets = l2_counts.pop() if len(l2_counts) == 1 else 0
        l15_counts = {
            gpm.l15.n_sets if gpm.has_l15 else 0 for gpm in gpms
        }
        n_l15_sets = l15_counts.pop() if len(l15_counts) == 1 else 0
        return WalkGeometry(
            packed=packed,
            n_l1_sets=sm0.l1.n_sets if packed else 0,
            line_interleaved=page_table._line_interleaved if packed else False,
            n_partitions=policy.n_partitions if packed else 0,
            lines_per_page=page_table.address_map.lines_per_page if packed else 0,
            issue_throughput=sm0.issue_throughput,
            n_l2_sets=n_l2_sets if packed else 0,
            n_l15_sets=n_l15_sets if packed else 0,
        )

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
        and cache flushes read the counters) and is idempotent — cells are
        zeroed as they are flushed.
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

    # Both partition paths inline the L2 lookup and the DRAM pipe charge:
    # they mirror ``SetAssocCache.access`` / ``DRAMPartition`` line for
    # line (same counters, same LRU dict operations, same pipe-charge
    # order: write-back before fill), trading the two hottest remaining
    # call chains for direct dict work.

    def _partition_read(self, now: float, home: int, line_addr: int) -> float:
        gpm = self._gpms[home]
        l2 = gpm.l2
        stats = l2.stats
        time = now + gpm.l2_hit_latency
        n_sets = l2.n_sets
        dram = gpm.dram
        if n_sets:
            cache_set = l2._sets[line_addr % n_sets]
            if line_addr in cache_set:
                stats.hits += 1
                cache_set[line_addr] = cache_set.pop(line_addr)
                return time
            stats.misses += 1
            if len(cache_set) >= l2.ways:
                if cache_set.pop(next(iter(cache_set))):
                    stats.writebacks += 1
                    dram.writes += 1
                    dram.pipe.transfer(time, dram.line_bytes)
            cache_set[line_addr] = False
        else:
            stats.misses += 1
        dram.reads += 1
        return dram.pipe.transfer(time, dram.line_bytes) + dram.latency_cycles

    def _partition_write(self, now: float, home: int, line_addr: int) -> float:
        gpm = self._gpms[home]
        l2 = gpm.l2
        stats = l2.stats
        time = now + gpm.l2_hit_latency
        n_sets = l2.n_sets
        dram = gpm.dram
        track_dirty = l2._track_dirty
        if n_sets:
            cache_set = l2._sets[line_addr % n_sets]
            if line_addr in cache_set:
                stats.hits += 1
                stats.write_hits += 1
                cache_set[line_addr] = cache_set.pop(line_addr) or track_dirty
                return time
            stats.misses += 1
            stats.write_misses += 1
            if len(cache_set) >= l2.ways:
                if cache_set.pop(next(iter(cache_set))):
                    stats.writebacks += 1
                    dram.writes += 1
                    dram.pipe.transfer(time, dram.line_bytes)
            cache_set[line_addr] = track_dirty
        else:
            stats.misses += 1
            stats.write_misses += 1
        # Write-allocate: the line is fetched into the L2 before the merge.
        dram.reads += 1
        return dram.pipe.transfer(time, dram.line_bytes) + dram.latency_cycles

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total loads and stores observed."""
        return self.loads + self.stores

    def counter_snapshot(self):
        """``(loads, stores, remote_loads, remote_stores)`` right now.

        Telemetry samples this at window boundaries to form per-window
        deltas; it is read-only and never touches timing state.
        """
        return (self.loads, self.stores, self.remote_loads, self.remote_stores)

    @property
    def remote_fraction(self) -> float:
        """Fraction of L1-missing traffic whose home partition was remote."""
        routed = sum(gpm.xbar.total_requests for gpm in self.system.gpms)
        if not routed:
            return 0.0
        remote = sum(gpm.xbar.remote_requests for gpm in self.system.gpms)
        return remote / routed

    def reset(self) -> None:
        """Clear counters for a fresh simulation."""
        self.loads = 0
        self.stores = 0
        self.remote_loads = 0
        self.remote_stores = 0
        self.migration_bytes = 0
