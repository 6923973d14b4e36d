"""Static workload characterization.

Computes, from traces alone (no timing simulation), the properties the
paper uses to classify its suite (Section 4): memory intensity, footprint
coverage, inter-CTA sharing, and hot-set concentration.  Useful both for
auditing the synthetic suite's composition claims and for sizing new
workload specs.

The profile also carries per-CTA means and workload-wide extrapolations
(CTA count, kernel launches, distinct-line estimate) so the analytical
predictor in :mod:`repro.core.analytical` can reconstruct total work
from a sampled trace without replaying every CTA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from .synthetic import SyntheticWorkload, WorkloadSpec
from .trace import KernelLaunch, Workload

#: Page sizes (bytes) the locality table is evaluated at — covering the
#: ``page_bytes`` settings the presets and built-in sweeps use.
PAGE_LOCALITY_GRANULARITIES = (512, 1024, 2048, 4096, 8192)
#: Contiguous CTA-block counts (GPM counts) the table is evaluated at.
PAGE_LOCALITY_BLOCKS = (2, 4, 8)
#: Line size the synthetic traces are expressed in.
_LINE_BYTES = 128


@dataclass(frozen=True)
class WorkloadProfile:
    """Trace-level statistics of one workload (first kernel, sampled CTAs)."""

    name: str
    sampled_ctas: int
    total_accesses: int
    store_fraction: float
    compute_per_access: float
    distinct_lines: int
    footprint_coverage: float
    #: Fraction of sampled lines touched by more than one sampled CTA.
    shared_line_fraction: float
    #: Fraction of accesses landing on the 10% most-touched lines.
    hot_concentration: float
    #: CTAs in the profiled kernel (not just the sampled subset).
    n_ctas: int = 0
    #: Kernel launches across the whole workload (iterations included).
    kernel_launches: int = 1
    #: Warp groups per CTA in the profiled kernel.
    groups_per_cta: float = 1.0
    #: Mean accesses issued by one CTA.
    per_cta_accesses: float = 0.0
    #: Mean trace records walked by one CTA.
    per_cta_records: float = 0.0
    #: Mean distinct lines touched by one CTA.
    per_cta_distinct_lines: float = 0.0
    #: Mean compute cycles charged per record.
    compute_per_record: float = 0.0
    #: Distinct lines extrapolated to all CTAs, capped at the footprint.
    distinct_lines_estimate: float = 0.0
    #: First-touch locality table: ``(page_bytes, n_blocks, local_fraction)``
    #: rows, where ``local_fraction`` is the fraction of accesses whose CTA
    #: lies in the same contiguous CTA block (of ``n_blocks`` equal blocks,
    #: the distributed scheduler's split) as the page's first toucher.
    page_locality: Tuple[Tuple[int, int, float], ...] = field(default=())

    @property
    def memory_intensity(self) -> float:
        """Accesses per compute cycle — higher means more memory-bound."""
        if self.compute_per_access <= 0:
            return float("inf")
        return 1.0 / self.compute_per_access

    def page_local_fraction(self, page_bytes: int, n_blocks: int) -> float:
        """First-touch locality at the nearest profiled (page size, blocks).

        Falls back to the uniform ``1 / n_blocks`` when the table is empty
        (legacy profiles).  Page size snaps to the nearest profiled
        granularity in log space; the block count to the nearest profiled
        count.
        """
        if not self.page_locality:
            return 1.0 / max(1, n_blocks)
        best_g = min(
            {row[0] for row in self.page_locality},
            key=lambda g: abs(g.bit_length() - int(page_bytes).bit_length()),
        )
        candidates = [row for row in self.page_locality if row[0] == best_g]
        _, _, fraction = min(candidates, key=lambda row: abs(row[1] - n_blocks))
        return fraction


def _sample_ctas(kernel: KernelLaunch, max_ctas: int) -> Iterable[int]:
    if kernel.n_ctas <= max_ctas:
        return range(kernel.n_ctas)
    step = kernel.n_ctas / max_ctas
    return (int(index * step) for index in range(max_ctas))


def _block_of(cta: int, n_ctas: int, n_blocks: int) -> int:
    """Contiguous equal-split block of ``cta`` (distributed-scheduler split)."""
    base, extra = divmod(n_ctas, n_blocks)
    if base == 0:
        return min(cta, n_blocks - 1)
    cutoff = extra * (base + 1)
    if cta < cutoff:
        return cta // (base + 1)
    return extra + (cta - cutoff) // base


def _page_locality_table(
    page_touches: Dict[int, Dict[int, Dict[int, int]]],
    n_ctas: int,
    accesses: int,
) -> Tuple[Tuple[int, int, float], ...]:
    """First-touch locality rows from per-granularity page touch counts.

    The first toucher of a page is approximated by the lowest touching
    CTA index — under the distributed scheduler each GPM starts its batch
    at its lowest index, so the earliest toucher in time is the lowest
    index of the winning block, and ties between blocks only shift pages
    between equally-plausible homes.
    """
    if accesses <= 0 or n_ctas <= 0:
        return ()
    rows = []
    for granularity in PAGE_LOCALITY_GRANULARITIES:
        per_page = page_touches[granularity]
        for n_blocks in PAGE_LOCALITY_BLOCKS:
            local = 0
            for touches_by_cta in per_page.values():
                home = _block_of(min(touches_by_cta), n_ctas, n_blocks)
                local += sum(
                    count
                    for cta, count in touches_by_cta.items()
                    if _block_of(cta, n_ctas, n_blocks) == home
                )
            rows.append((granularity, n_blocks, local / accesses))
    return tuple(rows)


def _declared_footprint(workload: Workload) -> int:
    """The workload's declared footprint in lines, if it declares one.

    Synthetic workloads carry it on their spec; ingested workloads expose
    it directly.  Returns 0 for workloads declaring neither (the profiler
    then falls back to the observed footprint).
    """
    spec = getattr(workload, "spec", None)
    if spec is not None and hasattr(spec, "footprint_lines"):
        return int(spec.footprint_lines)
    declared = getattr(workload, "footprint_lines", None)
    return int(declared) if declared else 0


def profile_workload(workload: Workload, max_ctas: int = 64) -> WorkloadProfile:
    """Characterize any ``Workload`` from its first kernel's traces.

    Works for synthetic and ingested workloads alike: the grid shape
    comes from the kernel launch, the footprint from the workload's
    declaration (spec or ``footprint_lines`` attribute) with the observed
    line range as fallback.
    """
    kernels = list(workload.kernels())
    kernel = kernels[0]
    touch_counts: Dict[int, int] = {}
    ctas_touching: Dict[int, Set[int]] = {}
    lines_per_page = {
        granularity: max(1, granularity // _LINE_BYTES)
        for granularity in PAGE_LOCALITY_GRANULARITIES
    }
    page_touches: Dict[int, Dict[int, Dict[int, int]]] = {
        granularity: {} for granularity in PAGE_LOCALITY_GRANULARITIES
    }
    accesses = 0
    stores = 0
    compute = 0.0
    records = 0
    sampled = 0
    sample = list(_sample_ctas(kernel, max_ctas))
    if kernel.prefetch is not None:
        # Build just the sampled traces, as one batch, not the whole kernel.
        kernel.prefetch(sample)
    for cta_index in sample:
        sampled += 1
        for group in kernel.trace_fn(cta_index):
            for record in group:
                records += 1
                compute += record.compute_cycles
                for line in record.reads + record.writes:
                    accesses += 1
                    touch_counts[line] = touch_counts.get(line, 0) + 1
                    ctas_touching.setdefault(line, set()).add(cta_index)
                    for granularity, per_line in lines_per_page.items():
                        by_cta = page_touches[granularity].setdefault(
                            line // per_line, {}
                        )
                        by_cta[cta_index] = by_cta.get(cta_index, 0) + 1
                stores += len(record.writes)

    distinct = len(touch_counts)
    shared = sum(1 for ctas in ctas_touching.values() if len(ctas) > 1)
    # Mean per-CTA footprint: each line contributes once per CTA touching it.
    cta_line_pairs = sum(len(ctas) for ctas in ctas_touching.values())
    ordered = sorted(touch_counts.values(), reverse=True)
    hot_count = max(1, distinct // 10)
    hot_accesses = sum(ordered[:hot_count])
    footprint_lines = _declared_footprint(workload)
    if not footprint_lines:
        footprint_lines = (max(touch_counts) + 1) if touch_counts else 1
    if sampled >= kernel.n_ctas:
        distinct_estimate = float(distinct)
    else:
        # Linear extrapolation capped at the declared footprint; sharing
        # makes the union grow sublinearly, so this overestimates — the
        # calibration bands absorb the slack.
        distinct_estimate = min(
            float(footprint_lines),
            distinct * kernel.n_ctas / max(1, sampled),
        )
    return WorkloadProfile(
        name=workload.name,
        sampled_ctas=sampled,
        total_accesses=accesses,
        store_fraction=stores / accesses if accesses else 0.0,
        compute_per_access=compute / accesses if accesses else 0.0,
        distinct_lines=distinct,
        footprint_coverage=distinct / footprint_lines,
        shared_line_fraction=shared / distinct if distinct else 0.0,
        hot_concentration=hot_accesses / accesses if accesses else 0.0,
        n_ctas=kernel.n_ctas,
        kernel_launches=len(kernels),
        groups_per_cta=float(kernel.groups_per_cta),
        per_cta_accesses=accesses / sampled if sampled else 0.0,
        per_cta_records=records / sampled if sampled else 0.0,
        per_cta_distinct_lines=cta_line_pairs / sampled if sampled else 0.0,
        compute_per_record=compute / records if records else 0.0,
        distinct_lines_estimate=distinct_estimate,
        page_locality=_page_locality_table(page_touches, kernel.n_ctas, accesses),
    )


def profile_spec(spec: WorkloadSpec, max_ctas: int = 64) -> WorkloadProfile:
    """Characterize a spec directly."""
    return profile_workload(SyntheticWorkload(spec), max_ctas=max_ctas)


#: Process-local cache of profiles keyed by workload digest — profiling
#: replays sampled traces, which is cheap but not free, and the explore
#: screen asks for the same rung-0 suite repeatedly.
_PROFILE_CACHE: Dict[str, WorkloadProfile] = {}


def cached_profile(workload: Workload, max_ctas: int = 64) -> WorkloadProfile:
    """Memoized :func:`profile_workload` keyed by the workload digest.

    Keying by ``digest()`` rather than object identity is what makes the
    cache correct for ingested workloads: their digest is the trace
    *content hash*, so two objects loaded from the same file share one
    profile, and editing the file (new hash) invalidates it — the same
    self-invalidation path the result cache uses.
    """
    key = f"{workload.digest()}|{max_ctas}"
    profile = _PROFILE_CACHE.get(key)
    if profile is None:
        profile = profile_workload(workload, max_ctas=max_ctas)
        _PROFILE_CACHE[key] = profile
    return profile
