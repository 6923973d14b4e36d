"""Event-driven simulation engine.

The engine advances a global min-heap of warp-group readiness events.
Executing one :class:`~repro.workloads.trace.TraceRecord` charges the SM's
issue ports, routes the record's loads and stores through the memory
system, and re-arms the group at ``issue_start + max(compute, memory)`` —
the classic GPU latency-hiding model where a group's arithmetic overlaps
its own memory batch and other groups fill the SM in the meantime.

CTA lifecycle: the configured scheduler places an initial wave of CTAs
breadth-first across SMs, then refills an SM whenever one of its resident
CTAs retires.  Kernels run back-to-back; every kernel boundary flushes the
software-coherent caches (L1, L1.5) exactly as Section 5.1.1 requires.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from math import inf
from typing import List

from ..core.gpu import GPUSystem
from ..memory.cache import CacheStats
from ..sched.distributed import make_scheduler
from ..workloads.trace import KernelLaunch, Workload
from .result import SimResult


def _perline_requested() -> bool:
    """True when ``REPRO_SIM_PERLINE`` forces the reference per-line path.

    Verification knob: the generated walkers are the production default
    wherever the system supports them; the per-line path is the
    executable specification the bit-identity suite diffs them against
    (tests/test_perf_identity.py).
    """
    return os.environ.get("REPRO_SIM_PERLINE", "") not in ("", "0")


class _CTA:
    """Bookkeeping for one resident CTA."""

    __slots__ = ("index", "groups_left", "sm")

    def __init__(self, index: int, groups_left: int, sm) -> None:
        self.index = index
        self.groups_left = groups_left
        self.sm = sm


class _WarpGroup:
    """One schedulable warp group walking its record list.

    Records are ``(compute_cycles, issue_busy, reads, writes)`` tuples
    whose reads and writes are plain line addresses.  ``walk`` is the SM's
    generated walker, or ``None`` when the group takes the per-line
    reference path; both read the same records.
    """

    __slots__ = ("cta", "records", "position", "walk")

    def __init__(self, cta: _CTA, records, walk=None) -> None:
        self.cta = cta
        self.records = records
        self.position = 0
        self.walk = walk


def _pack_plain_trace(trace, geometry):
    """The engine's records for a hand-built ``CTATrace`` under ``geometry``.

    Synthetic workloads produce :class:`ColumnarCTATrace` objects that
    derive (and cache) their records from numpy columns; plain
    record-list traces (tests, ad-hoc workloads) are small enough to pack
    per launch.  Only the issue busy time depends on the machine.
    """
    throughput = geometry.issue_throughput
    return [
        [
            (
                record.compute_cycles,
                (record.compute_cycles + len(record.reads) + len(record.writes))
                / throughput,
                record.reads,
                record.writes,
            )
            for record in records
        ]
        for records in trace
    ]


class SimulationEngine:
    """Runs workloads on a :class:`~repro.core.gpu.GPUSystem`."""

    def __init__(self, system: GPUSystem) -> None:
        self.system = system
        self.scheduler = make_scheduler(system.config.scheduler, system)
        self.records_executed = 0
        self.ctas_executed = 0
        self.kernels_executed = 0
        # Telemetry sampling state.  With no probe attached the boundary
        # stays at +inf, so the event loop's only telemetry residue is one
        # always-false float comparison per record — results are
        # bit-identical with or without the subsystem.
        self._telemetry = None
        self._next_sample = inf
        #: Generated walkers on (where the system supports them) or off,
        #: forcing the per-line reference path.  Both produce bit-identical
        #: results; the flag exists so the identity suite can diff them.
        self.batched = not _perline_requested()
        # The geometry traces' records are built for and the per-SM walkers
        # (None on the reference path).  ``_fast_cache`` holds the one-time
        # walker build for this system, in a 1-tuple (None is a result).
        self._geometry = None
        self._walkers = None
        self._fast_cache = None

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> SimResult:
        """Simulate ``workload`` to completion and return its result."""
        self.system.reset()
        # Fresh scheduler per run: the centralized policy carries
        # cross-launch placement state (its fill rotation) that must not
        # leak between independent simulations.
        self.scheduler = make_scheduler(self.system.config.scheduler, self.system)
        self.records_executed = 0
        self.ctas_executed = 0
        self.kernels_executed = 0
        telemetry = self.system.telemetry
        self._telemetry = telemetry
        self._next_sample = (
            inf if telemetry is None else telemetry.begin_run(self.system, workload.name)
        )

        # Walkers are built once per engine and reused across runs — every
        # object a walker binds (cache sets, stats, pipes, page maps,
        # routes) is reset in place by ``system.reset()``.  An attached
        # probe, ``batched`` off, or a system the walker generator rejects
        # takes the per-line reference over the same records.
        memsys = self.system.memsys
        self._geometry = memsys.walk_geometry()
        if telemetry is None and self.batched:
            cached = self._fast_cache
            if cached is None:
                cached = self._fast_cache = (memsys.make_walkers(),)
            self._walkers = cached[0]
        else:
            self._walkers = None

        # Live invariant checking is opt-in and read-only: with no validator
        # attached the loop pays one `is not None` test per kernel, and an
        # attached validator only *reads* structural state, so results are
        # bit-identical either way.
        validator = self.system.validator

        clock = 0.0
        first = True
        for kernel in workload.kernels():
            if not first:
                self.system.kernel_boundary_flush()
            first = False
            clock = self._run_kernel(kernel, clock)
            self.kernels_executed += 1
            if validator is not None:
                validator.after_kernel(self.system, clock)

        if telemetry is not None:
            telemetry.end_run(clock, self.system, self.records_executed)
        result = self._collect(workload, clock)
        if validator is not None:
            validator.after_run(self.system, result)
        return result

    # ------------------------------------------------------------------

    def _run_kernel(self, kernel: KernelLaunch, start_time: float) -> float:
        scheduler = self.scheduler
        scheduler.start_kernel(kernel.n_ctas)
        heap: List = []
        self._seq = 0
        telemetry = self._telemetry
        if telemetry is not None:
            phase_ctas = self.ctas_executed
            phase_records = self.records_executed

        # Breadth-first initial wave: one CTA per SM per round, in the
        # scheduler's preferred SM order, until slots or CTAs run out.
        fill_order = scheduler.initial_fill_order()
        placed = True
        while placed and not scheduler.exhausted:
            placed = False
            for sm in fill_order:
                if sm.free_cta_slots <= 0:
                    continue
                cta_index = scheduler.next_cta(sm)
                if cta_index is None:
                    continue
                self._launch(heap, kernel, cta_index, sm, start_time)
                placed = True

        kernel_end = self._drain(heap, kernel, start_time)

        if not scheduler.exhausted:  # pragma: no cover - engine invariant
            raise RuntimeError(
                f"kernel {kernel.label!r} drained with "
                f"{scheduler.remaining} CTAs undispatched"
            )
        # Kernel completion implies a memory fence: buffered store traffic
        # still queued at DRAM or on the ring must drain before the next
        # kernel (or the final makespan) begins.
        quiesce = self.system.quiesce_time()
        if telemetry is not None:
            telemetry.record_phase(
                kernel.label,
                self.kernels_executed,
                start_time,
                kernel_end,
                quiesce if quiesce > kernel_end else kernel_end,
                self.ctas_executed - phase_ctas,
                self.records_executed - phase_records,
            )
        return quiesce if quiesce > kernel_end else kernel_end

    # ------------------------------------------------------------------
    # event-heap drain loop
    # ------------------------------------------------------------------

    def _drain(self, heap: List, kernel: KernelLaunch, start_time: float) -> float:
        scheduler = self.scheduler
        memsys = self.system.memsys
        load = memsys.load
        store = memsys.store
        telemetry = self._telemetry
        next_sample = self._next_sample
        pop = heappop
        push = heappush
        seq = self._seq
        records_executed = 0
        kernel_end = start_time
        while heap:
            ready, _, group = pop(heap)
            # Heap pops are monotone in ready time (pushes always re-arm at
            # finish >= the current pop), so crossing a window boundary here
            # closes the window exactly once.  Dormant (+inf) without a probe.
            if ready >= next_sample:
                next_sample = telemetry.take_window(
                    ready, self.system, self.records_executed + records_executed
                )
            cta = group.cta
            sm = cta.sm
            clock = sm.clock
            issue_start = clock if clock > ready else ready
            position = group.position
            records = group.records
            # The issue busy time comes pre-divided (same left-to-right
            # arithmetic as SM.charge_issue).
            compute_cycles, busy, reads, writes = records[position]
            position += 1
            group.position = position
            sm.clock = issue_start + busy
            sm.issue_busy_cycles += busy

            walk = group.walk
            if walk is not None:
                if reads or writes:
                    mem_done = walk(issue_start, reads, writes)
                else:
                    mem_done = issue_start
            else:
                mem_done = issue_start
                for line in reads:
                    done = load(issue_start, sm, line)
                    if done > mem_done:
                        mem_done = done
                for line in writes:
                    store(issue_start, sm, line)

            finish = issue_start + compute_cycles
            if mem_done > finish:
                finish = mem_done
            records_executed += 1

            if position < len(records):
                seq += 1
                push(heap, (finish, seq, group))
                continue

            if finish > kernel_end:
                kernel_end = finish
            cta.groups_left -= 1
            if cta.groups_left == 0:
                self.ctas_executed += 1
                sm.release_slot()
                next_index = scheduler.next_cta(sm)
                if next_index is not None:
                    # _launch shares the sequence counter; sync around it.
                    self._seq = seq
                    self._launch(heap, kernel, next_index, sm, finish)
                    seq = self._seq
        self._seq = seq
        self._next_sample = next_sample
        self.records_executed += records_executed
        # Fold the walkers' deferred counters into the real stats objects
        # before anything at the kernel boundary (live validation, cache
        # flush telemetry, result collection) reads them.
        memsys.flush_walk_counters()
        return kernel_end

    def _launch(self, heap: List, kernel: KernelLaunch, cta_index: int, sm, at: float) -> None:
        # Loop rather than recurse: a degenerate all-empty CTA retires
        # immediately, and its freed slot must pull the next CTA from the
        # scheduler — otherwise a refill-path chain of empty CTAs strands
        # undispatched work and the drain invariant below trips.
        while True:
            trace = kernel.trace_fn(cta_index)
            if len(trace) != kernel.groups_per_cta:
                raise ValueError(
                    f"kernel {kernel.label!r}: trace_fn returned {len(trace)} groups, "
                    f"expected {kernel.groups_per_cta}"
                )
            # Records for the machine's issue rate: derived and cached by
            # columnar traces, packed per launch for plain lists.
            fast_groups = getattr(trace, "fast_groups", None)
            if fast_groups is not None:
                groups = fast_groups(self._geometry)
            else:
                groups = _pack_plain_trace(trace, self._geometry)
            walkers = self._walkers
            walk = walkers[sm.sm_id] if walkers is not None else None
            sm.occupy_slot()
            cta = _CTA(cta_index, len(trace), sm)
            for records in groups:
                if not records:
                    cta.groups_left -= 1
                    continue
                self._seq += 1
                heappush(heap, (at, self._seq, _WarpGroup(cta, records, walk)))
            if cta.groups_left > 0:
                return
            # Degenerate empty CTA: retire immediately and refill the slot.
            self.ctas_executed += 1
            sm.release_slot()
            next_index = self.scheduler.next_cta(sm)
            if next_index is None:
                return
            cta_index = next_index

    # ------------------------------------------------------------------

    def _collect(self, workload: Workload, cycles: float) -> SimResult:
        system = self.system
        l1 = CacheStats()
        l15 = CacheStats()
        l2 = CacheStats()
        dram_read = 0
        dram_written = 0
        for gpm in system.gpms:
            l1 = l1.merge(gpm.aggregate_l1_stats())
            if gpm.l15 is not None:
                l15 = l15.merge(gpm.l15.stats)
            l2 = l2.merge(gpm.l2.stats)
            dram_read += gpm.dram.bytes_read
            dram_written += gpm.dram.bytes_written
        memsys = system.memsys
        page_local = sum(gpm.xbar.local_requests for gpm in system.gpms)
        page_remote = sum(gpm.xbar.remote_requests for gpm in system.gpms)
        config = system.config
        digest = workload.digest() if hasattr(workload, "digest") else workload.name
        return SimResult(
            workload_name=workload.name,
            system_name=config.name,
            cycles=cycles,
            kernels=self.kernels_executed,
            ctas=self.ctas_executed,
            records=self.records_executed,
            loads=memsys.loads,
            stores=memsys.stores,
            remote_loads=memsys.remote_loads,
            remote_stores=memsys.remote_stores,
            l1=l1,
            l15=l15,
            l2=l2,
            dram_bytes_read=dram_read,
            dram_bytes_written=dram_written,
            link_bytes=system.ring.total_link_bytes,
            page_local=page_local,
            page_remote=page_remote,
            migration_bytes=memsys.migration_bytes,
            line_bytes=config.line_bytes,
            link_tier=config.link_tier,
            workload_digest=digest,
            system_digest=config.digest(),
        )
