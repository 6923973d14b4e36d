"""Table 3: baseline MCM-GPU configuration.

Renders the simulated baseline's parameters next to the paper's Table 3
values, translating scaled capacities back to their full-scale
equivalents so the correspondence is auditable.
"""

from __future__ import annotations

from typing import List

from ..analysis.report import format_table
from ..core.config import MEMORY_SCALE, SystemConfig
from ..core.presets import baseline_mcm_gpu
from .common import ExperimentPlan


def full_scale_bytes(scaled: int, scale: float = MEMORY_SCALE) -> int:
    """Invert the memory scale applied by the presets."""
    return int(round(scaled / scale))


def plan(config: SystemConfig = None) -> ExperimentPlan:
    """Rows: parameter, paper value, this model (full-scale equivalent)."""
    if config is None:
        config = baseline_mcm_gpu()
    gpm = config.gpm
    l2_total_full = full_scale_bytes(config.total_l2_bytes) // (1 << 20)
    l1_full = full_scale_bytes(gpm.sm.l1.size_bytes) // (1 << 10)
    return ExperimentPlan((), lambda suites: [
        ["Number of GPMs", "4", str(config.n_gpms)],
        ["Total SMs", "256", str(config.total_sms)],
        ["GPU frequency", "1 GHz", "1 GHz (cycle==ns)"],
        ["Max warps per SM", "64", str(gpm.sm.max_warps)],
        ["L1 data cache / SM", "128 KB, 128B lines, 4 ways",
         f"{l1_full} KB (scaled {gpm.sm.l1.size_bytes}B), 128B, {gpm.sm.l1.ways} ways"],
        ["Total L2 cache", "16 MB, 128B lines, 16 ways",
         f"{l2_total_full} MB (scaled {config.total_l2_bytes}B), 128B, {gpm.l2.ways} ways"],
        ["Inter-GPM interconnect", "768 GB/s/link, ring, 32 cyc/hop",
         f"{config.link_bandwidth:.0f} GB/s/link, ring, {config.hop_latency:.0f} cyc/hop"],
        ["Total DRAM bandwidth", "3 TB/s", f"{config.total_dram_bandwidth/1000:.1f} TB/s"],
        ["DRAM latency", "100 ns", f"{gpm.dram_latency:.0f} cycles"],
    ])


def matches_paper(config: SystemConfig = None) -> bool:
    """True when the preset reproduces every Table 3 parameter."""
    if config is None:
        config = baseline_mcm_gpu()
    gpm = config.gpm
    return (
        config.n_gpms == 4
        and config.total_sms == 256
        and gpm.sm.max_warps == 64
        and full_scale_bytes(gpm.sm.l1.size_bytes) == 128 << 10
        and full_scale_bytes(config.total_l2_bytes) == 16 << 20
        and config.link_bandwidth == 768.0
        and config.hop_latency == 32.0
        and config.total_dram_bandwidth == 3072.0
        and gpm.dram_latency == 100.0
    )


def report(rows: List[List[object]]) -> str:
    """Render Table 3 (paper vs model)."""
    return format_table(
        ["Parameter", "Paper", "Model"],
        rows,
        title="Table 3: Baseline MCM-GPU configuration",
    )
