"""Simulation results and derived metrics.

A :class:`SimResult` is a frozen snapshot of everything one run produced:
the makespan in cycles, cache statistics per level, DRAM and ring traffic,
page-placement locality, and the data-movement energy breakdown.  All of
the paper's reported quantities (speedups, inter-GPM bandwidth in TB/s,
traffic reductions) derive from these counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from ..core.energy import EnergyBreakdown, IntegrationTier, breakdown_from_traffic
from ..memory.cache import CacheStats

#: Serialized-result schema revision.  Bumped when the *shape or meaning*
#: of a SimResult's counters changes without the timing model (MODEL_REV)
#: moving — e.g. the store-path bypass accounting fix plus the
#: read-vs-write cache-stat split (schema 2).  The result cache embeds
#: this in every entry so stale-schema entries self-invalidate instead of
#: serving results whose stats no longer satisfy the invariant layer.
RESULT_SCHEMA = 2


@dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one workload on one system configuration."""

    workload_name: str
    system_name: str
    cycles: float
    kernels: int
    ctas: int
    records: int
    loads: int
    stores: int
    remote_loads: int
    remote_stores: int
    l1: CacheStats
    l15: CacheStats
    l2: CacheStats
    dram_bytes_read: int
    dram_bytes_written: int
    link_bytes: int
    page_local: int
    page_remote: int
    #: Bytes moved by dynamic page migration (zero for the paper's static
    #: placements); lets conservation checks account for DRAM/ring traffic
    #: that is not attributable to demand requests.
    migration_bytes: int = 0
    line_bytes: int = 128
    link_tier: str = "package"
    workload_digest: str = ""
    system_digest: str = ""

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total loads and stores issued by warp groups."""
        return self.loads + self.stores

    @property
    def inter_gpm_bandwidth(self) -> float:
        """Average inter-module link traffic in bytes/cycle (== GB/s at 1 GHz)."""
        if self.cycles <= 0:
            return 0.0
        return self.link_bytes / self.cycles

    @property
    def inter_gpm_tbps(self) -> float:
        """Average inter-module traffic in TB/s — the Figure 7/10/14 y-axis."""
        return self.inter_gpm_bandwidth / 1000.0

    @property
    def dram_bytes(self) -> int:
        """All DRAM array traffic."""
        return self.dram_bytes_read + self.dram_bytes_written

    @property
    def remote_access_fraction(self) -> float:
        """Fraction of routed (post-L1) requests with a remote home."""
        total = self.page_local + self.page_remote
        if not total:
            return 0.0
        return self.page_remote / total

    def speedup_over(self, baseline: "SimResult") -> float:
        """Performance of this run relative to ``baseline`` (same workload)."""
        if baseline.workload_name != self.workload_name:
            raise ValueError(
                f"speedup compares the same workload; got {self.workload_name!r} "
                f"vs {baseline.workload_name!r}"
            )
        if self.cycles <= 0:
            raise ValueError("cannot compute speedup of a zero-cycle run")
        return baseline.cycles / self.cycles

    @property
    def energy(self) -> EnergyBreakdown:
        """Data-movement energy, charged at the link tier's cost per bit."""
        tier = IntegrationTier(self.link_tier)
        on_chip_bytes = self.accesses * self.line_bytes
        return breakdown_from_traffic(
            on_chip_bytes=on_chip_bytes,
            inter_module_bytes=self.link_bytes,
            dram_bytes=self.dram_bytes,
            inter_module_tier=tier,
        )

    # ------------------------------------------------------------------
    # serialization (disk result cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON serialization."""
        data = asdict(self)
        data["l1"] = asdict(self.l1)
        data["l15"] = asdict(self.l15)
        data["l2"] = asdict(self.l2)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        for level in ("l1", "l15", "l2"):
            payload[level] = CacheStats(**payload[level])
        return cls(**payload)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.workload_name} on {self.system_name}: "
            f"{self.cycles:,.0f} cycles, "
            f"L2 hit {self.l2.hit_rate:.0%}, "
            f"inter-GPM {self.inter_gpm_bandwidth:,.0f} GB/s, "
            f"remote {self.remote_access_fraction:.0%}"
        )
