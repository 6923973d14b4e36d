"""Factory functions for every machine configuration the paper evaluates.

Full-scale capacities are quoted from the paper and scaled through
:data:`~repro.core.config.MEMORY_SCALE`; bandwidths and latencies are used
at face value (bytes/cycle == GB/s at the 1 GHz clock).

The configurations:

* :func:`baseline_mcm_gpu` — Table 3: 4 GPMs x 64 SMs, 16 MB memory-side L2,
  3 TB/s DRAM, 768 GB/s ring links, centralized scheduler, fine-grain
  address interleave.
* :func:`mcm_gpu_with_l15` — Section 5.1 design-space points (8/16/32 MB
  L1.5, all vs remote-only allocation, iso-transistor L2 rebalance).
* :func:`optimized_mcm_gpu` — Section 5.4: remote-only L1.5 + distributed
  CTA scheduling + first-touch placement (8 MB L1.5 + 8 MB L2 is the best
  configuration once first-touch is on, Figure 13).
* :func:`monolithic_gpu` — single-die GPU of any SM count with L2 and DRAM
  bandwidth scaled proportionally (used for Figure 2 and the
  buildable/unbuildable comparison points).
* :func:`multi_gpu` — Section 6: two maximally-sized 128-SM GPUs on a board
  link, baseline and optimized (GPU-side remote cache) flavors.
"""

from __future__ import annotations

from typing import Optional

from ..interconnect.board import BOARD_AGGREGATE_GBPS, BOARD_HOP_LATENCY_CYCLES
from ..memory.cache import AllocationPolicy, WritePolicy
from .config import MEMORY_SCALE, CacheConfig, GPMConfig, SMConfig, SystemConfig

MB = 1 << 20
KB = 1 << 10

#: Full-scale per-SM L1 capacity (Table 3).
L1_BYTES_FULL = 128 * KB
#: Full-scale total memory-side L2 of the 256-SM machines (Table 3).
L2_TOTAL_BYTES_FULL = 16 * MB
#: Residual L2 kept when the entire L2 is rebalanced into L1.5 caches
#: (footnote 3: "a small cache capacity of 32KB is maintained ... to
#: accelerate atomic operations") — per GPM.
L2_RESIDUAL_BYTES_FULL = 32 * KB

#: DRAM bandwidth per 32 SMs (GB/s) used by the Figure 2 scaling rule
#: ("384 GB/s for a 32-SM GPU and 3 TB/s for a 256-SM GPU").
DRAM_GBPS_PER_32_SMS = 384.0
#: Memory-side L2 per 32 SMs, full scale (16 MB / 256 SMs).
L2_BYTES_PER_32_SMS_FULL = 2 * MB

#: Latencies (cycles) for each hierarchy level.
L1_HIT_LATENCY = 4.0
L15_HIT_LATENCY = 25.0
L2_HIT_LATENCY = 30.0

#: Scaled page size; stands for a 64 KB GPU page at full scale.
PAGE_BYTES = 2 * KB


def _l1_config(scale: float) -> CacheConfig:
    return CacheConfig(
        size_bytes=max(512, int(L1_BYTES_FULL * scale)),
        ways=4,
        hit_latency=L1_HIT_LATENCY,
        write_policy=WritePolicy.WRITE_THROUGH,
    )


def _l2_config(total_bytes_full: int, n_gpms: int, scale: float) -> CacheConfig:
    per_gpm = total_bytes_full // n_gpms
    return CacheConfig(
        size_bytes=max(512, int(per_gpm * scale)),
        ways=16,
        hit_latency=L2_HIT_LATENCY,
        write_policy=WritePolicy.WRITE_BACK,
    )


def _l15_config(
    total_bytes_full: int,
    n_gpms: int,
    scale: float,
    remote_only: bool,
) -> CacheConfig:
    per_gpm = total_bytes_full // n_gpms
    return CacheConfig(
        size_bytes=max(512, int(per_gpm * scale)),
        ways=16,
        hit_latency=L15_HIT_LATENCY,
        write_policy=WritePolicy.WRITE_THROUGH,
        allocation=AllocationPolicy.REMOTE_ONLY if remote_only else AllocationPolicy.ALL,
    )


def _sm_config(scale: float) -> SMConfig:
    return SMConfig(l1=_l1_config(scale))


def baseline_mcm_gpu(
    n_gpms: int = 4,
    sms_per_gpm: int = 64,
    link_bandwidth: float = 768.0,
    scale: float = MEMORY_SCALE,
    name: Optional[str] = None,
) -> SystemConfig:
    """Table 3 baseline: no L1.5, centralized scheduling, interleave."""
    gpm = GPMConfig(
        n_sms=sms_per_gpm,
        sm=_sm_config(scale),
        l2=_l2_config(L2_TOTAL_BYTES_FULL, n_gpms, scale),
        l15=None,
        dram_bandwidth=768.0,
        dram_latency=100.0,
    )
    return SystemConfig(
        name=name or f"mcm-baseline-{int(link_bandwidth)}",
        n_gpms=n_gpms,
        gpm=gpm,
        link_bandwidth=link_bandwidth,
        scheduler="centralized",
        placement="interleave",
        page_bytes=PAGE_BYTES,
    )


def mcm_gpu_with_l15(
    l15_total_mb: int = 16,
    remote_only: bool = True,
    scheduler: str = "centralized",
    placement: str = "interleave",
    link_bandwidth: float = 768.0,
    scale: float = MEMORY_SCALE,
    n_gpms: int = 4,
    sms_per_gpm: int = 64,
    name: Optional[str] = None,
) -> SystemConfig:
    """Section 5.1 design points: L1.5 capacity rebalanced from the L2.

    The iso-transistor rule (Section 5.1.2): an 8 MB L1.5 leaves 8 MB of
    L2; a 16 MB L1.5 leaves only the 32 KB-per-GPM residual; a 32 MB L1.5
    doubles the transistor budget and also leaves the residual L2.
    """
    if l15_total_mb not in (8, 16, 32):
        raise ValueError(f"the paper evaluates 8/16/32 MB L1.5, got {l15_total_mb}")
    if l15_total_mb == 8:
        l2_total_full = L2_TOTAL_BYTES_FULL // 2
    else:
        l2_total_full = L2_RESIDUAL_BYTES_FULL * n_gpms
    gpm = GPMConfig(
        n_sms=sms_per_gpm,
        sm=_sm_config(scale),
        l2=_l2_config(l2_total_full, n_gpms, scale),
        l15=_l15_config(l15_total_mb * MB, n_gpms, scale, remote_only),
        dram_bandwidth=768.0,
        dram_latency=100.0,
    )
    alloc = "remote" if remote_only else "all"
    return SystemConfig(
        name=name or f"mcm-l15-{l15_total_mb}mb-{alloc}-{scheduler}-{placement}",
        n_gpms=n_gpms,
        gpm=gpm,
        link_bandwidth=link_bandwidth,
        scheduler=scheduler,
        placement=placement,
        page_bytes=PAGE_BYTES,
    )


def optimized_mcm_gpu(
    l15_total_mb: int = 8,
    link_bandwidth: float = 768.0,
    scale: float = MEMORY_SCALE,
    name: Optional[str] = None,
) -> SystemConfig:
    """Section 5.4: remote-only L1.5 + distributed scheduling + first touch.

    With first-touch placement most traffic is local, so the 8 MB L1.5 +
    8 MB L2 split beats the 16 MB L1.5 + residual L2 split (Figure 13);
    8 MB is therefore the default.
    """
    return mcm_gpu_with_l15(
        l15_total_mb=l15_total_mb,
        remote_only=True,
        scheduler="distributed",
        placement="first_touch",
        link_bandwidth=link_bandwidth,
        scale=scale,
        name=name or f"mcm-optimized-{l15_total_mb}mb",
    )


#: On-die fabric parameters for monolithic GPUs: effectively unlimited
#: bandwidth ("10s of TB/s" on chip, Table 2) at crossbar-scale latency.
ON_DIE_FABRIC_BANDWIDTH = 32768.0
ON_DIE_FABRIC_LATENCY = 6.0
#: Number of memory-partition slices a big GPU die is organized into.
#: Keeping the slice structure identical to the MCM-GPU makes the
#: monolithic reference structurally fair — the only differences are the
#: fabric's bandwidth/latency and the absence of NUMA optimizations.
MONOLITHIC_SLICES = 4


def monolithic_gpu(
    n_sms: int = 128,
    scale: float = MEMORY_SCALE,
    name: Optional[str] = None,
) -> SystemConfig:
    """A single-die GPU with L2 and DRAM bandwidth scaled to its SM count.

    Follows Figure 2's proportional-scaling rule.  ``n_sms=128`` is the
    "largest implementable" GPU; ``n_sms=256`` is the unbuildable
    reference.  Structurally the die is four SM/L2/DRAM slices — like the
    MCM-GPU's GPMs — joined by an on-die fabric with near-unlimited
    bandwidth and crossbar latency; cross-slice traffic costs chip-tier
    energy (80 fJ/bit) instead of package-tier.
    """
    if n_sms <= 0 or n_sms % 32:
        raise ValueError(f"n_sms must be a positive multiple of 32, got {n_sms}")
    units = n_sms // 32
    gpm = GPMConfig(
        n_sms=n_sms // MONOLITHIC_SLICES,
        sm=_sm_config(scale),
        l2=_l2_config(units * L2_BYTES_PER_32_SMS_FULL, MONOLITHIC_SLICES, scale),
        l15=None,
        dram_bandwidth=units * DRAM_GBPS_PER_32_SMS / MONOLITHIC_SLICES,
        dram_latency=100.0,
    )
    return SystemConfig(
        name=name or f"monolithic-{n_sms}",
        n_gpms=MONOLITHIC_SLICES,
        gpm=gpm,
        link_bandwidth=ON_DIE_FABRIC_BANDWIDTH,
        hop_latency=ON_DIE_FABRIC_LATENCY,
        scheduler="centralized",
        placement="interleave",
        page_bytes=PAGE_BYTES,
        link_tier="chip",
    )


def multi_gpu(
    optimized: bool = False,
    n_gpus: int = 2,
    sms_per_gpu: int = 128,
    board_bandwidth_aggregate: float = BOARD_AGGREGATE_GBPS,
    board_hop_latency: float = BOARD_HOP_LATENCY_CYCLES,
    scale: float = MEMORY_SCALE,
    name: Optional[str] = None,
) -> SystemConfig:
    """Section 6: discrete GPUs joined by a board link, exposed as one GPU.

    The baseline already applies distributed scheduling and first-touch
    placement (Section 6.1 — finer-grain options performed "very poorly").
    The optimized flavor additionally moves half of each GPU's memory-side
    cache into a GPU-side remote-only cache, mirroring the L1.5 idea.
    """
    per_gpu_l2_full = 8 * MB
    if optimized:
        l2 = _l2_config(per_gpu_l2_full // 2 * n_gpus, n_gpus, scale)
        l15: Optional[CacheConfig] = _l15_config(
            per_gpu_l2_full // 2 * n_gpus, n_gpus, scale, remote_only=True
        )
    else:
        l2 = _l2_config(per_gpu_l2_full * n_gpus, n_gpus, scale)
        l15 = None
    gpm = GPMConfig(
        n_sms=sms_per_gpu,
        sm=_sm_config(scale),
        l2=l2,
        l15=l15,
        dram_bandwidth=1536.0,
        dram_latency=100.0,
    )
    flavor = "optimized" if optimized else "baseline"
    return SystemConfig(
        name=name or f"multi-gpu-{flavor}",
        n_gpms=n_gpus,
        gpm=gpm,
        # link_bandwidth is the per-link *total* (both directions); the
        # board's aggregate 256 GB/s is one link between the two GPUs.
        link_bandwidth=board_bandwidth_aggregate,
        hop_latency=board_hop_latency,
        scheduler="distributed",
        placement="first_touch",
        page_bytes=PAGE_BYTES,
        link_tier="board",
    )
