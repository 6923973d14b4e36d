"""Core MCM-GPU architecture: configuration, structural model, request path."""

from .analytical import (
    AnalyticalPrediction,
    BandwidthRequirement,
    average_hops,
    expected_slowdown_bound,
    predict_cycles,
    predict_speedup,
    predict_suite_score,
    predicted_objectives,
    required_link_bandwidth,
    supply_bandwidth_per_partition,
    topology_link_count,
    topology_ports,
)
from .config import (
    CLOCK_HZ,
    MEMORY_SCALE,
    CacheConfig,
    GPMConfig,
    SMConfig,
    SystemConfig,
    scaled_bytes,
)
from .energy import (
    DRAM_PJ_PER_BIT,
    ENERGY_PJ_PER_BIT,
    TIER_BANDWIDTH_GBPS,
    EnergyBreakdown,
    IntegrationTier,
    breakdown_from_traffic,
    dram_energy_joules,
    energy_joules,
)
from .gpm import GPM
from .gpu import GPUSystem, build_system
from .memsys import MemorySystem
from .presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
    optimized_mcm_gpu,
)
from .sm import SM

__all__ = [
    "AnalyticalPrediction",
    "BandwidthRequirement",
    "average_hops",
    "expected_slowdown_bound",
    "predict_cycles",
    "predict_speedup",
    "predict_suite_score",
    "predicted_objectives",
    "required_link_bandwidth",
    "supply_bandwidth_per_partition",
    "topology_link_count",
    "topology_ports",
    "CLOCK_HZ",
    "MEMORY_SCALE",
    "CacheConfig",
    "GPMConfig",
    "SMConfig",
    "SystemConfig",
    "scaled_bytes",
    "DRAM_PJ_PER_BIT",
    "ENERGY_PJ_PER_BIT",
    "TIER_BANDWIDTH_GBPS",
    "EnergyBreakdown",
    "IntegrationTier",
    "breakdown_from_traffic",
    "dram_energy_joules",
    "energy_joules",
    "GPM",
    "GPUSystem",
    "build_system",
    "MemorySystem",
    "baseline_mcm_gpu",
    "mcm_gpu_with_l15",
    "monolithic_gpu",
    "multi_gpu",
    "optimized_mcm_gpu",
    "SM",
]
